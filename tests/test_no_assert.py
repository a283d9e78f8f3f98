"""No `assert` statement in src/qcalc.

`python -O` strips assert statements, so a check written as one vanishes
there; the library raises its errors explicitly instead.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qcalc"


def test_no_assert_statements_in_the_package():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
