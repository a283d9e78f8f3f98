"""Every def and class in src/qcalc is reached from the code of src/ or bench/.

The battery CLI and the benchmark are the library's two users, so a name
that only tests call is code without a user.  A name counts as reached
when the syntax trees of src/ and bench/ use it: as a name, an
attribute, an imported name or alias, or a string constant that is a
bare identifier (the benchmark looks some attributes up by their string
name).  Docstrings, comments and other prose do not count; nor does the
def that defines the name.  The trees are read rather than the tokens,
since a call inside an f-string is a string token on Python 3.11.
Dunder methods are reached through the language and skipped.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qcalc"

# Reached only from tests, on purpose.
ALLOWED = {
    "Scalar.evaluate_exact":
        "the exact reference value the ring tests compare arithmetic with",
    "qpoch": "serves criterion 4 in tests/test_acceptance.py",
    "qfact": "serves criterion 4 in tests/test_acceptance.py",
    "kernel_store_info":
        "tests read the kernel store's sizes and counts; the observability "
        "report of ROADMAP item 7 will read it too",
    "clear_kernel_store":
        "tests reset the kernel store to start from cold rows; the "
        "observability report of ROADMAP item 7 will use it too",
}


def _definitions(tree, prefix=""):
    """(qualified name, name) of every def and class, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield prefix + node.name, node.name
            yield from _definitions(node, prefix + node.name + ".")
        else:
            yield from _definitions(node, prefix)


def _docstrings(tree):
    """The constant nodes that are docstrings of the tree's module, defs
    and classes."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef,
                             ast.AsyncFunctionDef, ast.ClassDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                yield first.value


def _uses(tree):
    """Every name the tree's code uses, once per use."""
    prose = set(map(id, _docstrings(tree)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.Constant) and id(node) not in prose \
                and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value


def _use_counts():
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    return Counter(name for path in files
                   for name in _uses(ast.parse(path.read_text())))


def _package_definitions():
    return [d for path in sorted(PACKAGE.glob("*.py"))
            for d in _definitions(ast.parse(path.read_text()))]


def test_every_definition_is_reached_from_src_or_bench():
    uses = _use_counts()
    orphans = [qual for qual, name in _package_definitions()
               if not (name.startswith("__") and name.endswith("__"))
               and not uses[name] and qual not in ALLOWED]
    assert orphans == []


def test_allowlist_holds_only_unreached_definitions():
    # an allowlisted name that gains a user in src/ or bench/ leaves the list
    assert len(ALLOWED) <= 5
    uses = _use_counts()
    quals = {qual for qual, _ in _package_definitions()}
    for qual in ALLOWED:
        assert qual in quals and not uses[qual.rsplit(".", 1)[-1]], qual


def test_definitions_are_qualified_by_their_classes():
    tree = ast.parse("class A:\n    def f(self):\n        def g():\n"
                     "            pass\n")
    assert list(_definitions(tree)) == [("A", "A"), ("A.f", "f"),
                                        ("A.f.g", "g")]


def test_code_counts_and_prose_does_not():
    tree = ast.parse('"""Call named() here."""\n'
                     'import a.b as c\n'
                     'from d import e\n'
                     'def f():\n'
                     '    """named() again."""\n'
                     '    # named() in a comment\n'
                     '    x = f"{called(1)} named()"\n'
                     '    return getattr(x, "looked_up"), x.attr\n')
    uses = Counter(_uses(tree))
    assert not uses["named"]
    assert all(uses[n] == 1 for n in ("a", "b", "c", "e", "called",
                                      "looked_up", "attr"))


def test_the_backend_split_is_gone():
    # the context's old backend flag and converter have no use left
    uses = _use_counts()
    assert not uses["exact"] and not uses["as_exact"]
