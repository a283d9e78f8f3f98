"""No `assert` statement in src/qcalc.

`python -O` strips assert statements, so a check written as one vanishes
there; the library raises its errors explicitly instead.
"""

import ast

from test_reachable import package_modules


def test_no_assert_statements_in_the_package():
    found = [f"{name}:{node.lineno}"
             for name, path in package_modules()
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
