"""The package imports exactly the third-party modules pyproject.toml declares.

An AST scan of src/qcalc collects the top-level name of every absolute
import that is neither standard library nor qcalc itself; that set must
equal the names in `[project] dependencies`.  A subprocess then imports
every qcalc module and runs special-tables, whose kernel rows past q^2
come from the lattice recurrence seeded by the series summed on Python
ints, and checks that mpmath (a test-only reference) was never imported.
Another runs the field engine's subcommands through the CLI and checks
that numpy was never imported.
"""

import ast
import json
import os
import re
import subprocess
import sys
from test_reachable import ROOT, package_modules


def _third_party_imports():
    names = set()
    for _, path in package_modules():
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
for mod in pkgutil.walk_packages(qcalc.__path__, "qcalc."):
    importlib.import_module(mod.name)
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


EXACT_SCRIPT = """
import contextlib, io, json, sys, tempfile
from qcalc.cli import main
runs = (["verify-algebra"], ["leibniz", "--q", "3/2"],
        ["integrate", "--q", "4/3"],
        ["integrate", "--q", "3/2", "--poly", "2*x^3 - x^-1", "--from", "-4",
         "--to", "4"])
done = []
with tempfile.TemporaryDirectory() as out, \\
        contextlib.redirect_stdout(io.StringIO()):
    for argv in runs:
        code = main(argv if "--poly" in argv else argv + ["--out", out])
        done.append([code, "numpy" in sys.modules])
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["integrate", "--poly", "x^2", "--from", "0", "--to", "3"])
print(json.dumps({"runs": done, "error": [code, err.getvalue()]}))
"""


def test_exact_subcommands_load_no_numpy():
    # the field engine, its integrals included, is pure Python, and the
    # CLI and the battery registry load no engine of their own
    got = json.loads(_run(EXACT_SCRIPT))
    assert got["runs"] == [[0, False]] * 4
    # a library error still exits 2 with one line, through the error
    # list the CLI looks up only once an exception reaches it
    code, err = got["error"]
    assert code == 2 and err.startswith("error: ParityMismatch: ")
    assert len(err.splitlines()) == 1
