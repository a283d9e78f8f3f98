"""Every def and class in src/qcalc is reached from src/ or bench/.

A name counts as reached when it appears, as a whole word, in the text of
src/ or bench/ more often than it is defined in src/qcalc: the battery
CLI and the benchmark are the library's two users, so a name that only
tests call is code without a user.  Text rather than code tokens, since
the benchmark looks some attributes up by their string name.  Dunder
methods are reached through the language and skipped.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qcalc"

# Reached only from tests, on purpose.
ALLOWED = {
    "Scalar.evaluate_exact":
        "the exact reference value the ring tests compare arithmetic with",
    "QCombinatorics.qpoch": "serves criterion 4 in tests/test_acceptance.py",
    "QCombinatorics.qfact": "serves criterion 4 in tests/test_acceptance.py",
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


def _word_counts():
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    return Counter(word for path in files
                   for word in re.findall(r"\w+", path.read_text()))


def _package_definitions():
    return [d for path in sorted(PACKAGE.glob("*.py"))
            for d in _definitions(ast.parse(path.read_text()))]


def test_every_definition_is_reached_from_src_or_bench():
    words = _word_counts()
    defs = _package_definitions()
    defined = Counter(name for _, name in defs)
    orphans = [qual for qual, name in defs
               if not (name.startswith("__") and name.endswith("__"))
               and words[name] <= defined[name] and qual not in ALLOWED]
    assert orphans == []


def test_allowlist_holds_only_unreached_definitions():
    # an allowlisted name that gains a user in src/ or bench/ leaves the list
    assert len(ALLOWED) <= 3
    words = _word_counts()
    quals = {qual for qual, _ in _package_definitions()}
    for qual in ALLOWED:
        assert qual in quals and words[qual.rsplit(".", 1)[-1]] == 1, qual


def test_definitions_are_qualified_by_their_classes():
    tree = ast.parse("class A:\n    def f(self):\n        def g():\n"
                     "            pass\n")
    assert list(_definitions(tree)) == [("A", "A"), ("A.f", "f"),
                                        ("A.f.g", "g")]
