"""Artifact guard: CLI reports stay byte-identical to the golden files.

`tests/golden/<dir>/` holds the `<command>.json` and `<command>-checks.csv`
files the CLI wrote before the exact field layer moved to integer
storage:

  * `q3_2/`: `verify-algebra`, `leibniz` and `integrate` at `--q 3/2`;
  * `default/`: `integrate` at its default q, 2.

Each test reruns the command through `cli.main` into a temporary
directory and compares bytes.  The one allowed difference is that the
`q3_2/` `leibniz` report appends the one-form rows in `NEW_LEIBNIZ_ROWS`,
each passing, after the golden rows, which must stay exactly as they are.

`verify-algebra` and `leibniz` at default flags are pinned in `default/`
too, one-form rows included, captured before the normal ordering moved to
one p^b x^a table.  The README example `verify-algebra --trials 200`
spells out a default, so it is held to the same files.
A change meant to alter one of these artifacts replaces its golden
file (rerun the command with `--out tests/golden/<dir>`) and says why.
The `integrate`, `spectrum` and `oscillator` reports were recaptured
when their batteries appended rows (`inverse-series`;
`heisenberg-relation` and `nabla-adjoint`; `number-operator-form` and
`raising-xi-exchange`); every earlier row is unchanged byte for byte.

The lattice subcommands are pinned the same way, at default flags
(`default/`) and at `--q 1.5` (`q1_5/`), every file they write included,
captured before `LatticeFn` moved to one sector-stacked array.  The
evolve `history.csv` (about 420 kB) is pinned by its SHA-256 instead of
a stored copy.  Exit codes are pinned too: at `--q 1.5` only `evolve`
exits 1, on `stationarity-drift` (its deep window is sized for q = 2).
The evolve reports and `history.csv` hashes were
recaptured when `Hamiltonian.eigh` moved to the parity-chain solve,
which rounds the evolution differently: norm-drift, energy-drift and
continuity moved in their last digits, every verdict held.

The `q1_5/` spectrum and evolve reports were recaptured when the
stationary states moved from per-site lookups at the products x y to the
kernel rows at the exact doubles q ** m: at q = 1.5 the two differ in
the last bit, and the `S,2n,1`/`S,2n,2` residuals of `spectrum.csv` and
the evolve `continuity` residual moved, every verdict held.  The `q1_5/`
special-tables, fourier and evolve reports were recaptured when the
kernel rows past q^2 moved to the exact lattice points: their NaN/inf
residuals became finite, and every row but evolve's
`stationarity-drift` now passes.  At `--q 3` the lattice subcommands are
pinned by exit code, row count and the rows that fail, which are the
q = 3 column of the verdict map (`tests/test_verdict_map.py`):
special-tables, gauge and oscillator exit 1, the other three exit 0.
The gauge reports at `--q 3` and at `--window -12 12` (both exit 1, on
`commutator` and `curvature-covariance`) are pinned by the SHA-256 of
`gauge.json` and `gauge-checks.csv`, so that a residual refactored to
round differently in its last bit fails here.

`evolve` with a config file that sets `potential` and `initial`, the two
keys without a flag, is pinned by the SHA-256 of its `evolve.json` and
`history.csv`, captured before the experiment stopped passing its
config through a JSON string.

Later recaptures, each its own change with every verdict held:

  * `verify-algebra.json` in `default/` and `q3_2/` lost `"q"` from its
    config when the battery stopped declaring a q (it is symbolic in
    q^(1/2)); every row is unchanged.
  * the `spectrum` reports and `spectrum.csv` in `default/` and `q1_5/`
    when the residual moved from the dense matrix-vector product to the
    Hamiltonian's stencil apply, which rounds differently:
    `eigenvalue-table` reads 7.595e-12 -> 1.155e-11 at default and
    2.958e-13 -> 1.798e-13 at `--q 1.5`, against a tolerance of 1e-6.
  * the `q1_5/` evolve reports when `Hamiltonian.energy` moved to the
    stencil apply: `energy-drift` reads 3.986e-12 -> 3.979e-12; the
    `history.csv` hashes held.
  * the config run's `evolve.json` digest, for the same reason: its
    `energy-drift` reads 3.348e-13 -> 3.890e-13; its `history.csv`
    digest held.
  * the `integrate` reports in `default/` and `q3_2/` when one q came
    to run both engines: the `backend` key left the config, and the
    default q echoes as its fraction, "2" (it was "2.0").  Both runs
    make the field rows and the lattice rows, with the field Stokes row
    named `field-stokes` and appended last; at `--q 3/2` the lattice
    rows are new, and the all-or-nothing rows' tolerance tightened
    from 0.5 to 1e-12.  Every earlier row at default is unchanged.
  * the `q1_5/` gauge reports when every gauge derivative came to
    divide by the grid's lam x, as nabla does, instead of multiplying
    by x^-1 and then 1/lam (at q = 2 the two agree bit for bit, and the
    `default/` gauge files held): `derivative-routes` 5.024e-15 ->
    3.662e-15, `product-leibniz` 1.089e-14 -> 7.944e-15,
    `derivative-covariance` 7.324e-15 -> 5.617e-15, `connection-law`
    1.0695e-14 -> 1.0805e-14, `commutator` 7.35974e-08 -> 7.35971e-08,
    `curvature-covariance` 4.66746e-12 -> 4.66741e-12,
    `commutator-order` 1.9999949 -> 1.9999990, `coupling-linearity`
    1.55092425206e-4 -> 1.55092425312e-4; `einbein-transport` stays 0.0.
  * the special-tables, fourier, spectrum, evolve and oscillator files in
    `default/` and `q1_5/`, both `history.csv` hashes and the config
    run's two digests, when the kernel row entries m <= 2 moved from the
    series summed in doubles to the recurrence pass (entries m >= 3 held
    every bit).  Kernel values in `special_values.csv` moved by at most
    11 ulps; `orthogonality-offdiagonal` reads 7.516e-13 -> 1.454e-13 at
    default and 6.254e-14 -> 1.068e-14 at `--q 1.5`, where `recurrences`
    rose 4.440e-15 -> 9.964e-15.  At `--q 3` special-tables no longer
    fails `orthogonality-offdiagonal` (1.644e-10 -> 6.047e-12).
"""

import hashlib
import json
from pathlib import Path

import pytest

from qcalc.cli import main
from test_verdict_map import VERDICTS

GOLDEN = Path(__file__).resolve().parent / "golden"

RUNS = [("verify-algebra", "q3_2", ["--q", "3/2"]),
        ("leibniz", "q3_2", ["--q", "3/2"]),
        ("integrate", "q3_2", ["--q", "3/2"]),
        ("integrate", "default", []),
        ("verify-algebra", "default", []),
        ("leibniz", "default", []),
        ("verify-algebra", "default", ["--trials", "200"])]

NEW_LEIBNIZ_ROWS = ["d-leibniz-A-b+1", "d-leibniz-A-b-1", "d-leibniz-B-b+1",
                    "d-leibniz-B-b-1", "d-squared"]


def _split_new_rows(command, subdir, json_bytes, csv_bytes):
    """The q3_2 leibniz report without its appended one-form rows,
    re-serialized as the CLI writes it; other reports unchanged."""
    if (command, subdir) != ("leibniz", "q3_2"):
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


RUN_IDS = [f"{c}-{d}" + "".join(a[2:] if d == "q3_2" else a)
           for c, d, a in RUNS]


@pytest.mark.parametrize("command, subdir, argv", RUNS, ids=RUN_IDS)
def test_artifacts_match_golden(command, subdir, argv, tmp_path, capsys):
    assert main([command, *argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = [(tmp_path / f"{command}{suffix}").read_bytes()
           for suffix in (".json", "-checks.csv")]
    want = [(GOLDEN / subdir / f"{command}{suffix}").read_bytes()
            for suffix in (".json", "-checks.csv")]
    assert list(_split_new_rows(command, subdir, *got)) == want


# Files each lattice subcommand writes besides its report and checks CSV.
LATTICE_EXTRAS = {
    "special-tables": ["special_values.csv"],
    "fourier": ["step_transform.csv"],
    "spectrum": ["spectrum.csv"],
    "evolve": ["history.csv"],
    "gauge": [],
    "oscillator": ["gaussian_pair.json", "ground_state.csv", "levels.csv"],
}
HISTORY_SHA256 = {
    "default": "590584339e72c84fea210d3e956bfe7db3c4392da4c477b96aeb5af789249dbe",
    "q1_5": "edf6cc0aa259d4d0af34abe2556ff076341fc59a5c1a02747953dd13899e5959",
}
FAILING_AT_Q1_5 = {"evolve"}
LATTICE_RUNS = [(command, subdir, argv)
                for subdir, argv in (("default", []), ("q1_5", ["--q", "1.5"]))
                for command in LATTICE_EXTRAS]


@pytest.mark.parametrize("command, subdir, argv", LATTICE_RUNS,
                         ids=[f"{c}-{d}" for c, d, _ in LATTICE_RUNS])
def test_lattice_artifacts_match_golden(command, subdir, argv, tmp_path,
                                        capsys):
    want_exit = 1 if subdir == "q1_5" and command in FAILING_AT_Q1_5 else 0
    assert main([command, *argv, "--out", str(tmp_path)]) == want_exit
    capsys.readouterr()
    names = [f"{command}.json", f"{command}-checks.csv",
             *LATTICE_EXTRAS[command]]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        got = (tmp_path / name).read_bytes()
        if name == "history.csv":
            assert hashlib.sha256(got).hexdigest() == HISTORY_SHA256[subdir]
        else:
            assert got == (GOLDEN / subdir / name).read_bytes(), name


# At --q 3 the lattice subcommands are pinned by exit code and verdicts:
# the rows that fail, in report order (which is sorted order for all six),
# and the number of rows.
Q3_FAILING = VERDICTS[("q", "3")]
Q3_ROWS = {"special-tables": 6, "fourier": 7, "spectrum": 3, "evolve": 6,
           "gauge": 12, "oscillator": 10}


@pytest.mark.parametrize("command", list(LATTICE_EXTRAS))
def test_lattice_verdicts_at_q3(command, tmp_path, capsys):
    failing = Q3_FAILING[command]
    assert main([command, "--q", "3", "--out", str(tmp_path)]) \
        == (1 if failing else 0)
    capsys.readouterr()
    checks = json.loads((tmp_path / f"{command}.json").read_bytes())["checks"]
    assert len(checks) == Q3_ROWS[command]
    assert tuple(r["check"] for r in checks if not r["ok"]) == failing


GAUGE_SHA256 = {
    "q3": (["--q", "3"], {
        "gauge.json":
            "17707906e3c27cb86022b457a70e78752f676e112ee38a6bf36b1064617df4bf",
        "gauge-checks.csv":
            "15124349347f6ef225e00ac3ceff978531769cfc124d14c998ab84a400841f51",
    }),
    "window12": (["--window", "-12", "12"], {
        "gauge.json":
            "b75e71fc7ed261d4a3d67afc63c543c662958235892f53411d88099cddaa164f",
        "gauge-checks.csv":
            "dd3ca82dbf5fe07fba24f4618073b9c7d331b79bd0667024f6ded16ae4bbd17b",
    }),
}


@pytest.mark.parametrize("run_id", list(GAUGE_SHA256))
def test_gauge_reports_match_digests(run_id, tmp_path, capsys):
    argv, digests = GAUGE_SHA256[run_id]
    assert main(["gauge", *argv, "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() \
            == digest, name


EVOLVE_CONFIG = {"potential": {"[1, 0]": 0.01, "[-1, 3]": -0.02},
                 "initial": {"family": "S", "label": "2n", "n": 1,
                             "sector": -1}}
EVOLVE_CONFIG_SHA256 = {
    "evolve.json":
        "07cbea47a6a38a6f9c75fda45b45d04d70d99106d0fd6f10105780f9ddcf03f5",
    "history.csv":
        "52e93fd56e3e0147a1bfee10d85564678bb94a40214ec4b1aeff9d958b1899d2",
}


def test_evolve_config_potential_and_initial_match_golden(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(EVOLVE_CONFIG))
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    assert "evolve: 6/6 ok" in capsys.readouterr().out
    for name, digest in EVOLVE_CONFIG_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() \
            == digest, name
