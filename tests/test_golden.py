"""Artifact guard: CLI reports stay byte-identical to the golden files.

`tests/golden/<dir>/` holds the `<command>.json` and `<command>-checks.csv`
files the CLI wrote before the exact field layer moved to integer
storage:

  * `q3_2/`: `verify-algebra`, `leibniz` and `integrate` at `--q 3/2`;
  * `default/`: `integrate` at its default q (the double backend).

Each test reruns the command through `cli.main` into a temporary
directory and compares bytes.  The one allowed difference is that the
`leibniz` report appends the one-form rows in `NEW_LEIBNIZ_ROWS`, each
passing, after the golden rows, which must stay exactly as they are.
A change meant to alter one of these artifacts replaces its golden
file (rerun the command with `--out tests/golden/<dir>`) and says why.
"""

import json
from pathlib import Path

import pytest

from qcalc.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

RUNS = [("verify-algebra", "q3_2", ["--q", "3/2"]),
        ("leibniz", "q3_2", ["--q", "3/2"]),
        ("integrate", "q3_2", ["--q", "3/2"]),
        ("integrate", "default", [])]

NEW_LEIBNIZ_ROWS = ["d-leibniz-A-b+1", "d-leibniz-A-b-1", "d-leibniz-B-b+1",
                    "d-leibniz-B-b-1", "d-squared"]


def _split_new_rows(command, json_bytes, csv_bytes):
    """The leibniz report without its appended one-form rows, re-serialized
    as the CLI writes it; other reports unchanged."""
    if command != "leibniz":
        return json_bytes, csv_bytes
    report = json.loads(json_bytes)
    n_old = len(report["checks"]) - len(NEW_LEIBNIZ_ROWS)
    new = report["checks"][n_old:]
    assert [r["check"] for r in new] == NEW_LEIBNIZ_ROWS
    assert all(r["ok"] for r in new)
    report["checks"] = report["checks"][:n_old]
    lines = csv_bytes.splitlines(keepends=True)
    assert [ln.split(b",")[0].decode() for ln in lines[-len(new):]] \
        == NEW_LEIBNIZ_ROWS
    return ((json.dumps(report, indent=2, sort_keys=True) + "\n").encode(),
            b"".join(lines[:-len(new)]))


@pytest.mark.parametrize("command, subdir, argv", RUNS,
                         ids=[f"{c}-{d}" for c, d, _ in RUNS])
def test_artifacts_match_golden(command, subdir, argv, tmp_path, capsys):
    assert main([command, *argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = [(tmp_path / f"{command}{suffix}").read_bytes()
           for suffix in (".json", "-checks.csv")]
    want = [(GOLDEN / subdir / f"{command}{suffix}").read_bytes()
            for suffix in (".json", "-checks.csv")]
    assert list(_split_new_rows(command, *got)) == want
