"""No library code path builds a dense N x N operator.

The lattice operators are stencils, diagonals times shift powers, and
`Stencil.dense` expands one into its (sectors, size, size) matrices.
Code under src/qcalc calls it in one place only: `Hamiltonian.matrices`,
the lazy view the benchmark reads.  Tests may call it freely, as a
reference.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qcalc"

ALLOWED = {"schrodinger.Hamiltonian.matrices"}


def _dense_calls(tree, prefix):
    """Qualified name of the def or class around each `.dense(` call."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield from _dense_calls(node, f"{prefix}.{node.name}")
            continue
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dense"):
            yield prefix
        yield from _dense_calls(node, prefix)


def _package_dense_calls():
    return [where for path in sorted(PACKAGE.glob("*.py"))
            for where in _dense_calls(ast.parse(path.read_text()), path.stem)]


def test_only_hamiltonian_matrices_calls_dense():
    assert sorted(_package_dense_calls()) == sorted(ALLOWED)


def test_calls_are_qualified_by_their_defs():
    tree = ast.parse("class A:\n    def f(self):\n        return g(x.dense())"
                     "\n\ny = op.dense(1)\n")
    assert list(_dense_calls(tree, "m")) == ["m.A.f", "m"]
