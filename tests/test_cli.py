"""Exit codes, artifact determinism, config merging for the qcalc CLI."""

import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcalc import batteries
from qcalc.batteries import REGISTRY, ConfigError, parse_q, resolve
from qcalc.cli import build_parser, main, report_to_csv
from qcalc.oscillator import ContaminationWarning


def run(tmp_path, *argv):
    return main(list(argv) + ["--out", str(tmp_path)])


# -- README examples -----------------------------------------------------------


def _readme_examples():
    """(argv, exit status, printed value) per line of the README Examples."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("Examples (", 1)[1].split("```\n", 2)[1]
    out = []
    for line in block.splitlines():
        command, _, note = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "qcalc", line
        status = re.search(r"exit (\d)", note)
        printed = re.search(r"prints (\S+)", note)
        out.append((argv[1:], int(status.group(1)) if status else 0,
                    printed.group(1) if printed else None))
    return out


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("argv, status, printed", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _, _ in README_EXAMPLES])
def test_readme_example(argv, status, printed, tmp_path, capsys):
    assert run(tmp_path, *argv) == status
    if printed is not None:
        assert capsys.readouterr().out.split()[-1] == printed


# -- one q, two engines ------------------------------------------------------

# Subcommands that take q; all but leibniz and integrate run the lattice
# alone.
Q_BATTERIES = [name for name, battery in REGISTRY.items()
               if any(p.key == "q" for p in battery.params)]
LATTICE = [name for name in Q_BATTERIES if name not in ("leibniz",
                                                        "integrate")]
FIELD_ROWS = ["trace-vs-closed-form", "x-inverse-rule", "inverse-series",
              "field-stokes"]


def test_parse_q_reads_one_exact_rational():
    assert parse_q("3/2") == parse_q("1.5") == Fraction(3, 2)
    assert parse_q("2") == parse_q("2.0") == 2
    assert parse_q("4/3") == Fraction(4, 3)
    # a decimal is the exact value of its double
    assert parse_q("1.1") == Fraction(1.1) != Fraction(11, 10)
    assert all(type(parse_q(v)) is Fraction for v in ("2", "1.5", "3/2"))
    for bad in ("1", "0.5", "2/4", "nan", "inf", "1e400", "zebra", "1/0"):
        with pytest.raises(ConfigError):
            parse_q(bad)


def test_verify_algebra_ignores_q(tmp_path):
    # verify-algebra is symbolic in q^(1/2): it takes no q and ignores --q
    assert run(tmp_path, "verify-algebra", "--q", "2.0",
               "--trials", "5") == 0
    report = json.loads((tmp_path / "verify-algebra.json").read_text())
    assert report["config"] == {"seed": 0, "trials": 5}


def test_double_battery_refuses_exact(tmp_path, capsys):
    # a q with no exact double: the lattice refuses it and names the
    # double to pass instead
    for name in LATTICE:
        assert run(tmp_path, name, "--q", "4/3") == 2, name
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err
        assert "1.3333333333333333" in err[0], err


@pytest.mark.parametrize("q", ["1", "0.5", "2/4", "nan", "inf", "zebra"])
def test_bad_q_exits_two_with_one_line(q, tmp_path, capsys):
    for name in Q_BATTERIES:
        assert run(tmp_path, name, "--q", q) == 2, name
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err


@pytest.mark.parametrize("name", Q_BATTERIES)
def test_decimal_and_fraction_q_write_the_same_artifacts(name, tmp_path,
                                                         capsys):
    dec, frac = tmp_path / "dec", tmp_path / "frac"
    assert main([name, "--q", "1.5", "--out", str(dec)]) \
        == main([name, "--q", "3/2", "--out", str(frac)])
    capsys.readouterr()
    names = sorted(p.name for p in dec.iterdir())
    assert names == sorted(p.name for p in frac.iterdir())
    for file in names:
        assert (dec / file).read_bytes() == (frac / file).read_bytes(), file
    # the lattice echoes its double, the field engine its fraction
    q = json.loads((dec / f"{name}.json").read_text())["config"]["q"]
    want = {"leibniz": "3/2", "integrate": "3/2", "gauge": 1.5}
    assert q == want.get(name, "1.5")


@pytest.mark.parametrize("q", ["1.5", "2", "2.5", "3", "1.0001", "4/3"])
def test_leibniz_runs_at_every_q(q, tmp_path):
    assert run(tmp_path, "leibniz", "--q", q, "--trials", "20") == 0
    report = json.loads((tmp_path / "leibniz.json").read_text())
    assert report["config"]["q"] == str(parse_q(q))


@pytest.mark.parametrize("name", LATTICE)
def test_lattice_batteries_run_at_a_dyadic_fraction(name, tmp_path):
    code = run(tmp_path / "frac", name, "--q", "5/2")
    assert code != 2 and code == run(tmp_path / "dec", name, "--q", "2.5")


@pytest.mark.parametrize("q", ["4/3", "1.0001"])
def test_integrate_runs_its_field_rows_where_the_lattice_cannot(q,
                                                                 tmp_path):
    assert run(tmp_path, "integrate", "--q", q, "--trials", "20") == 0
    report = json.loads((tmp_path / "integrate.json").read_text())
    assert [r["check"] for r in report["checks"]] == FIELD_ROWS
    assert all(r["residual"] == 0.0 and r["tolerance"] == 1e-12
               for r in report["checks"])


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["no-such-battery"])
    assert err.value.code == 2


# -- one-shot integration ----------------------------------------------------


def test_integrate_one_shot_prints_six(capsys, tmp_path):
    code = run(tmp_path, "integrate", "--q", "2", "--poly", "x",
               "--from", "0", "--to", "2")
    assert code == 0
    assert capsys.readouterr().out.strip() == "6"


def test_integrate_one_shot_exact_fraction(capsys, tmp_path):
    # (q^6 - 1)/[3] at q = 3/2 over [q^0, q^2]
    code = run(tmp_path, "integrate", "--q", "3/2", "--poly", "x^2",
               "--from", "0", "--to", "2")
    assert code == 0
    assert capsys.readouterr().out.strip() == "45/16"


@pytest.mark.parametrize("q, printed", [("1.5", "1139.5"),
                                        ("2.5", "9.78534e+06"),
                                        ("1.1", "2.79881")])
def test_integrate_one_shot_decimal_q(q, printed, capsys, tmp_path):
    # integrated at the exact rational the double stores, printed rounded
    code = run(tmp_path, "integrate", "--q", q, "--poly",
               "2*x^3 - x^-1 + 1/2", "--from", "-3", "--to", "5")
    assert code == 0
    assert capsys.readouterr().out == printed + "\n"


def test_integrate_poly_parser_errors(tmp_path):
    assert run(tmp_path, "integrate", "--q", "2", "--poly", "x") == 2
    assert run(tmp_path, "integrate", "--q", "2", "--poly", "x + ^",
               "--from", "0", "--to", "2") == 2


# -- batteries and exit codes -------------------------------------------------


def test_verify_algebra_battery(tmp_path):
    assert run(tmp_path, "verify-algebra", "--q", "3/2",
               "--trials", "40") == 0
    report = json.loads((tmp_path / "verify-algebra.json").read_text())
    assert report["command"] == "verify-algebra"
    assert all(r["ok"] for r in report["checks"])
    names = {r["check"] for r in report["checks"]}
    assert "defining-relation" in names
    assert "derivative-extraction" in names


def test_integrate_batteries_both_backends(tmp_path):
    # every q with an exact double runs the field and the lattice rows
    lattice = ["stokes", "partial-integration", "nabla2-hermiticity",
               "green-identity"]
    for q in ("3/2", "2"):
        assert run(tmp_path, "integrate", "--q", q, "--trials", "20") == 0
        report = json.loads((tmp_path / "integrate.json").read_text())
        assert report["config"] == {"q": q, "seed": 0, "trials": 20}
        assert [r["check"] for r in report["checks"]] \
            == FIELD_ROWS[:2] + lattice + FIELD_ROWS[2:]


@pytest.mark.parametrize("q", ["1.5", "2.5"])
def test_integrate_field_rows_are_exact_at_a_decimal_q(q, tmp_path):
    assert run(tmp_path, "integrate", "--q", q) == 0
    report = json.loads((tmp_path / "integrate.json").read_text())
    residual = {r["check"]: r["residual"] for r in report["checks"]}
    for name in ("trace-vs-closed-form", "x-inverse-rule", "inverse-series"):
        assert residual[name] == 0.0


def test_tolerance_override_forces_failure(tmp_path):
    assert run(tmp_path, "fourier", "--tol", "1e-30") == 1
    report = json.loads((tmp_path / "fourier.json").read_text())
    assert not any(r["ok"] for r in report["checks"])
    assert all(r["tolerance"] == 1e-30 for r in report["checks"])


def test_spectrum_table_artifact(tmp_path):
    assert run(tmp_path, "spectrum", "--q", "2", "--n-max", "2") == 0
    lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "family,label,n,energy,residual"
    assert len(lines) == 1 + 2 * 2 * 2
    for row in lines[1:]:
        energy = float(row.split(",")[3])
        assert energy > 0.0


def test_bad_window_rejected(tmp_path):
    assert run(tmp_path, "spectrum", "--q", "2", "--window", "4", "-4") == 2


# -- artifacts ----------------------------------------------------------------


def test_artifacts_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["fourier", "--q", "2", "--seed", "7",
                     "--out", str(out)]) == 0
    for name in ("fourier.json", "fourier-checks.csv",
                 "step_transform.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_report_to_csv_writes_repr_floats_and_int_verdicts():
    rows = [{"check": "a", "residual": 1.5e-17, "tolerance": 1e-12,
             "ok": True},
            {"check": "b", "residual": math.nan, "tolerance": 0.5,
             "ok": False}]
    assert report_to_csv(rows) == ("check,residual,tolerance,ok\n"
                                   "a,1.5e-17,1e-12,1\n"
                                   "b,nan,0.5,0\n")


def test_oscillator_artifacts(tmp_path):
    assert run(tmp_path, "oscillator", "--q", "2", "--levels", "4") == 0
    levels = (tmp_path / "levels.csv").read_text().strip().splitlines()
    assert levels[0] == "n,energy,residual"
    assert len(levels) == 6
    assert abs(float(levels[2].split(",")[1]) - 1.0) < 1e-10
    assert (tmp_path / "ground_state.csv").exists()
    gp = json.loads((tmp_path / "gaussian_pair.json").read_text())
    assert gp["max_rel"] < 1e-8


def test_config_file_merge_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": "2", "levels": 5}))
    out = tmp_path / "from-file"
    assert main(["oscillator", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert len((out / "levels.csv").read_text().strip().splitlines()) == 7
    out2 = tmp_path / "flag-wins"
    assert main(["oscillator", "--config", str(cfg), "--levels", "2",
                 "--out", str(out2)]) == 0
    assert len((out2 / "levels.csv").read_text().strip().splitlines()) == 4


def test_config_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["gauge", "--config", str(missing),
                 "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["gauge", "--config", str(bad),
                 "--out", str(tmp_path)]) == 2


def test_gauge_battery(tmp_path):
    assert run(tmp_path, "gauge") == 0
    report = json.loads((tmp_path / "gauge.json").read_text())
    assert {r["check"] for r in report["checks"]} >= {
        "derivative-covariance", "commutator", "commutator-order"}
    assert all(r["ok"] for r in report["checks"])


def test_evolve_battery(tmp_path):
    assert run(tmp_path, "evolve", "--q", "2", "--steps", "50") == 0
    history = (tmp_path / "history.csv").read_text().splitlines()
    assert history[0] == "t,sigma,n,rho,j"
    assert len(history) > 10


@pytest.mark.parametrize("given", [{"n": 1}, {}, {"sector": -1,
                                                   "family": "S"}])
def test_evolve_echoes_the_initial_state_it_ran(tmp_path, given):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"initial": given}))
    assert main(["evolve", "--config", str(cfg), "--steps", "2",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "evolve.json").read_text())
    assert report["config"]["initial"] == {**batteries.INITIAL, **given}
    assert set(report["config"]["initial"]) == {"family", "label", "n",
                                                "sector"}


@pytest.mark.parametrize("given, named", [
    ({"famly": "S"}, "'famly'"),
    ({"n": "1"}, "n"),
    ({"n": 1.5}, "n"),
    ({"sector": None}, "sector"),
    ({"family": ["C"]}, "family"),
], ids=["misspelled", "n-string", "n-float", "sector-null", "family-list"])
def test_evolve_refuses_a_bad_initial_state(tmp_path, capsys, given, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"initial": given}))
    assert main(["evolve", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2
    line = _last_stderr_line(capsys)
    assert line.startswith("config error: initial: ") and named in line


# -- honest verdicts and validated inputs -------------------------------------


def test_nan_gram_sums_fail_the_orthogonality_row(tmp_path):
    assert run(tmp_path, "special-tables", "--q", "50") == 1
    report = json.loads((tmp_path / "special-tables.json").read_text())
    off = next(r for r in report["checks"]
               if r["check"] == "orthogonality-offdiagonal")
    assert not off["ok"]


def test_nan_spectrum_residuals_exit_one(tmp_path):
    assert run(tmp_path, "spectrum", "--q", "10",
               "--window", "-40", "40") == 1


def _last_stderr_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err.strip().splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ["evolve", "--steps", "-1"],
    ["evolve", "--dt", "nan"],
    ["spectrum", "--q", "1.0000001"],
    ["spectrum", "--q", "inf"],
    ["fourier", "--tol", "0"],
    ["gauge", "--transforms", "0"],
])
def test_bad_values_exit_two(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 2
    assert _last_stderr_line(capsys).startswith("config error: ")


def _one_config_error(capsys, key):
    """The run printed nothing but one `config error:` line naming key."""
    printed = capsys.readouterr()
    assert printed.out == "" and "Traceback" not in printed.err
    line, = printed.err.strip().splitlines()
    assert line.startswith(f"config error: {key}"), line


def test_bad_config_file_value_exits_two(tmp_path, capsys):
    # a file value no flag could spell is refused, never truncated
    cfg = tmp_path / "cfg.json"
    for command, value in [
            ("oscillator", {"levels": "many"}),
            ("leibniz", {"trials": 2.5}),
            ("leibniz", {"trials": True}),
            ("special-tables", {"k_max": 3.99}),
            ("spectrum", {"window": [-12.9, 12.9]}),
            ("spectrum", {"window": [True, 12]}),
            ("spectrum", {"window": "12"}),
            ("spectrum", {"mass": True})]:
        cfg.write_text(json.dumps(value))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2, value
        key, = value
        _one_config_error(capsys, key)


@pytest.mark.parametrize("value", [7, "7"])
def test_config_file_integers_read_as_their_flag_does(tmp_path, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": value, "seed": value}))
    assert main(["verify-algebra", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify-algebra.json").read_text())
    assert report["config"] == {"seed": 7, "trials": 7}


def test_unusable_out_exits_two_before_the_battery_runs(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "below"):
        assert main(["verify-algebra", "--trials", "2",
                     "--out", str(out)]) == 2
        _one_config_error(capsys, "out")
    # the directory exists, but the report cannot be written into it
    (tmp_path / "d" / "verify-algebra.json").mkdir(parents=True)
    assert main(["verify-algebra", "--trials", "2",
                 "--out", str(tmp_path / "d")]) == 2
    _one_config_error(capsys, "out")


@pytest.mark.parametrize("text, named", [
    ('{"[1, 99]": 0.1}', "'[1, 99]'"),  # outside the +-12 window
    ('{"[2, 0]": 0.1}', "'[2, 0]'"),  # no sector 2
    ("[1, 2]", "potential"),
    ('{"1": 0.1}', "'1'"),
    ('{"[1, 0]": null}', "'[1, 0]'"),
    ('{"[1, 0]": 1e400}', "'[1, 0]'"),
], ids=["outside-window", "sector-2", "list", "bare-exponent", "null",
        "overflow"])
def test_bad_config_potential_exits_two_naming_it(tmp_path, capsys, text,
                                                  named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"potential": %s}' % text)
    assert main(["evolve", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError: ")
    assert named in err[0]


@pytest.mark.parametrize("argv, exc", [
    (["oscillator", "--levels", "40"], "InsufficientPadding"),
    (["gauge", "--window", "-16", "16"], "RouteMismatch"),
    # q^-16 underflows to 0.0: refused when the grid is built
    (["gauge", "--q", "1e25", "--window", "-16", "4"], "OverflowError"),
])
def test_library_exception_exits_two_naming_it(tmp_path, capsys, argv, exc):
    assert run(tmp_path, *argv) == 2
    assert _last_stderr_line(capsys).startswith(f"error: {exc}: ")


@pytest.mark.parametrize("window", [["0", "20"], ["2", "20"]])
def test_out_of_radius_exits_two_with_one_error_line(tmp_path, capsys,
                                                     window):
    # a window that starts at or near the origin puts the ground state's
    # q-exponential argument outside its unit radius
    assert run(tmp_path, "oscillator", "--window", *window) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: OutOfRadius: ")


def test_overflow_prints_the_error_line_alone(tmp_path):
    # q^k overflows on the way to the error: numpy must not warn about it
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "qcalc.cli", "special-tables", "--q", "1e25",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: OverflowError: ")


@pytest.mark.parametrize("levels", ["12", "40"])
def test_warnings_before_a_library_error_stay_unprinted(tmp_path, levels):
    # the excited tower warns once per contaminated state on its way to
    # InsufficientPadding; only the error line may reach stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "qcalc.cli", "oscillator", "--levels", levels,
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "error: InsufficientPadding: ")


def test_finished_run_prints_each_distinct_warning_once(tmp_path, capsys,
                                                        monkeypatch):
    report = batteries.scenario_report

    def warning_report(cfg):
        # one warning from two call sites, then a two-line one
        warnings.warn("state 7 has 4 boundary-clean sites",
                      ContaminationWarning)
        warnings.warn("state 7 has 4 boundary-clean sites",
                      ContaminationWarning)
        warnings.warn("first line\nsecond line")
        return report(cfg)

    monkeypatch.setattr(batteries, "scenario_report", warning_report)
    assert run(tmp_path, "gauge") == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: ContaminationWarning: state 7 has 4 boundary-clean sites",
        "warning: UserWarning: first line"]


# -- registry -----------------------------------------------------------------


def test_registry_entries_are_subcommands_with_registry_defaults(capsys):
    parser = build_parser()
    for name, battery in REGISTRY.items():
        given = vars(parser.parse_args([name]))
        assert given.pop("command") == name
        assert given == {}
        q, params = resolve(name, given)
        defaults = {p.key: p.check(p.default) for p in battery.params}
        assert q == (parse_q(defaults.pop("q")) if "q" in defaults
                     else None)
        assert params == defaults

        with pytest.raises(SystemExit):
            parser.parse_args([name, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for p in battery.params:
            if p.option and p.default is not None:
                shown = (" ".join(map(str, p.default))
                         if isinstance(p.default, tuple) else p.default)
                assert f"{p.option} " in text
                assert f"(default {shown})" in text


# -- property: every invocation ends in a documented way ----------------------

GOOD_Q = st.sampled_from(["3/2", "5/2", "2", "2.5", "3", "10"])
ANY_Q = st.sampled_from(["1", "0.5", "1.0000001", "nan", "inf", "zebra",
                         "2/4", "3/2", "2"])
WINDOWS = st.one_of(st.tuples(st.integers(-16, -6), st.integers(6, 16)),
                    st.tuples(st.integers(-16, 16), st.integers(-16, 16)))
FLAG_VALUES = {
    "seed": st.integers(0, 3),
    "trials": st.integers(1, 3),
    "k_max": st.integers(0, 4),
    "m_cut": st.integers(-3, 3),
    "n_max": st.integers(1, 3),
    "mass": st.sampled_from(["1", "0.5", "2"]),
    "dt": st.sampled_from(["1e-3", "0.01", "0.1"]),
    "steps": st.integers(1, 5),
    "transforms": st.integers(1, 4),
    "levels": st.integers(1, 5),
    "m_index": st.integers(1, 3),
    "poly": st.sampled_from(["x", "x^2 - 1/2", "2*x^3 - x^-1 + 1"]),
    "from_exp": st.integers(-3, 3),
    "to_exp": st.integers(-3, 3),
    "sector": st.sampled_from([1, -1]),
}
BAD_VALUES = st.sampled_from(["-1", "0", "nan", "inf", "-1e-3", "x + ^"])
# Config-file values no flag could spell, by the kind of key they fill.
UNSPELLED = {int: [2.5, True, 3.99], float: [True],
             "window": [[-12.9, 12.9], [True, 8]]}


@st.composite
def invocations(draw):
    name = draw(st.sampled_from(sorted(REGISTRY)))
    argv = [name, "--q", draw(st.one_of(GOOD_Q, ANY_Q))]
    if draw(st.booleans()):
        argv += ["--window", *map(str, draw(WINDOWS))]
    if draw(st.booleans()):
        argv += ["--tol", draw(st.sampled_from(["1e-30", "1e-6", "1", "0",
                                                 "nan"]))]
    for p in REGISTRY[name].params:
        # random batteries always get a small trial count
        if p.key in FLAG_VALUES and (p.key == "trials"
                                     or draw(st.booleans())):
            bad = draw(st.integers(0, 7)) == 0
            value = draw(BAD_VALUES if bad else FLAG_VALUES[p.key])
            argv += [p.option, str(value)]
    # sometimes an --out that is a file, or a config file value no flag
    # could spell for a key no flag sets; either must exit 2
    out_is_file = draw(st.integers(0, 7)) == 0
    free = [p for p in REGISTRY[name].params
            if p.kind in UNSPELLED and p.option not in argv]
    cfg = None
    if free and draw(st.integers(0, 7)) == 0:
        p = draw(st.sampled_from(free))
        cfg = {p.key: draw(st.sampled_from(UNSPELLED[p.kind]))}
    return argv, out_is_file, cfg


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_invocation_ends_with_a_documented_exit(invocation):
    argv, out_is_file, cfg = invocation
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        if out_is_file:
            Path(out).write_text("")
        if cfg is not None:
            path = os.path.join(tmp, "cfg.json")
            Path(path).write_text(json.dumps(cfg))
            argv = argv + ["--config", path]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--out", out])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        # the one-shot integral writes no artifacts and needs no --out
        if cfg is not None or (out_is_file and "--poly" not in argv):
            assert code == 2
        report = Path(out) / f"{argv[0]}.json"
        if report.exists():
            for r in json.loads(report.read_text())["checks"]:
                assert not r["ok"] or math.isfinite(r["residual"]), r
