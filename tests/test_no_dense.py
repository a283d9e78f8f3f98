"""No library code path builds a dense N x N operator.

The lattice operators are stencils, diagonals times shift powers, and
`Stencil.dense` expands one into its (sectors, size, size) matrices.
Code under src/qcalc calls it in one place only: `Hamiltonian.matrices`,
the lazy view the benchmark reads.  Tests may call it freely, as a
reference.
"""

import ast

from test_reachable import package_modules

ALLOWED = {"schrodinger.Hamiltonian.matrices"}


def calls(tree, prefix, attrs):
    """Qualified name of the def or class around each `.attr(` call, attr
    one of attrs."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield from calls(node, f"{prefix}.{node.name}", attrs)
            continue
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in attrs):
            yield prefix
        yield from calls(node, prefix, attrs)


def package_calls(attrs):
    """Where code under src/qcalc calls `.attr(`, attr one of attrs."""
    return [where for name, path in package_modules()
            for where in calls(ast.parse(path.read_text()), name, attrs)]


def test_only_hamiltonian_matrices_calls_dense():
    assert sorted(package_calls({"dense"})) == sorted(ALLOWED)


def test_calls_are_qualified_by_their_defs():
    tree = ast.parse("class A:\n    def f(self):\n        return g(x.dense())"
                     "\n\ny = op.dense(1)\n")
    assert list(calls(tree, "m", {"dense"})) == ["m.A.f", "m"]
