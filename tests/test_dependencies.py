"""The package imports exactly the third-party modules pyproject.toml declares.

An AST scan of src/qcalc collects the top-level name of every absolute
import that is neither standard library nor qcalc itself; that set must
equal the names in `[project] dependencies`.  A subprocess then imports
every qcalc module and runs special-tables, whose kernel rows past q^2
come from the lattice recurrence seeded by the series summed on Python
ints, and checks that mpmath (a test-only reference) was never imported.
Another imports the exact engine alone and checks that numpy was not.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qcalc"


def _third_party_imports():
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "qcalc"}


def _declared_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S)
    return {re.split(r"[<>=!~;\[ ]", spec, maxsplit=1)[0].lower()
            .replace("-", "_")
            for spec in re.findall(r'"([^"]+)"', block.group(1))}


def test_every_third_party_import_is_declared_and_used():
    assert _third_party_imports() == _declared_dependencies()


SCRIPT = """
import importlib, json, pkgutil, sys, tempfile
import qcalc
for mod in pkgutil.iter_modules(qcalc.__path__):
    importlib.import_module("qcalc." + mod.name)
from qcalc.cli import main
from qcalc.special import kernel_store_info
with tempfile.TemporaryDirectory() as out:
    code = main(["special-tables", "--q", "1.5", "--out", out])
print(json.dumps({"code": code,
                  "mpmath": "mpmath" in sys.modules,
                  "entries": kernel_store_info()[1.5]["misses"]}))
"""


def _run(script):
    """The last line script prints, run in a fresh interpreter on src/."""
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_package_runs_the_integer_series_without_mpmath():
    got = json.loads(_run(SCRIPT))
    assert got["code"] in (0, 1)
    assert got["mpmath"] is False
    # the rows out to q^132 were filled: the recurrence really ran
    assert got["entries"] > 132


def test_exact_engine_imports_no_numpy():
    # the field engine, its integrals included, is pure Python
    modules = ("scalars", "context", "algebra", "fields", "integration")
    script = "import sys\n" + "".join(f"import qcalc.{m}\n" for m in modules)
    assert _run(script + "print('numpy' in sys.modules)") == "False"
