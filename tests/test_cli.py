"""Exit codes, artifact determinism, config merging for the qcalc CLI."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcalc.batteries import REGISTRY, ConfigError, parse_q, resolve
from qcalc.cli import build_parser, main


def run(tmp_path, *argv):
    return main(list(argv) + ["--out", str(tmp_path)])


# -- backend selection -------------------------------------------------------


def test_parse_q_backends():
    assert parse_q("3/2").exact
    assert not parse_q("2").exact
    assert not parse_q("2.0").exact
    with pytest.raises(ConfigError):
        parse_q("1")
    with pytest.raises(ConfigError):
        parse_q("2/4")
    with pytest.raises(ConfigError):
        parse_q("zebra")


def test_exact_battery_refuses_double(tmp_path):
    assert run(tmp_path, "verify-algebra", "--q", "2.0") == 2
    assert run(tmp_path, "leibniz", "--q", "2.0") == 2


def test_double_battery_refuses_exact(tmp_path):
    assert run(tmp_path, "spectrum", "--q", "3/2") == 2
    assert run(tmp_path, "fourier", "--q", "3/2") == 2
    assert run(tmp_path, "oscillator", "--q", "3/2") == 2


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
    assert run(tmp_path, "integrate", "--q", "3/2", "--trials", "20") == 0
    assert run(tmp_path, "integrate", "--q", "2", "--trials", "20") == 0
    report = json.loads((tmp_path / "integrate.json").read_text())
    assert report["config"]["backend"] == "double"
    assert {r["check"] for r in report["checks"]} >= {
        "trace-vs-closed-form", "stokes", "green-identity"}


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


def test_bad_config_file_value_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"levels": "many"}))
    assert main(["oscillator", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2
    assert _last_stderr_line(capsys).startswith("config error: levels")


@pytest.mark.parametrize("argv, exc", [
    (["oscillator", "--levels", "40"], "InsufficientPadding"),
    (["gauge", "--window", "-16", "16"], "RouteMismatch"),
])
def test_library_exception_exits_two_naming_it(tmp_path, capsys, argv, exc):
    assert run(tmp_path, *argv) == 2
    assert _last_stderr_line(capsys).startswith(f"error: {exc}: ")


# -- registry -----------------------------------------------------------------


def test_registry_entries_are_subcommands_with_registry_defaults(capsys):
    parser = build_parser()
    for name, battery in REGISTRY.items():
        given = vars(parser.parse_args([name]))
        assert given.pop("command") == name
        assert given == {}
        ctx, params = resolve(name, given)
        defaults = {p.key: p.check(p.default) for p in battery.params}
        assert ctx.q == parse_q(defaults.pop("q")).q
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

GOOD_Q = {"exact": ["3/2", "5/2"], "double": ["2", "2.5", "3", "10"]}
GOOD_Q["either"] = GOOD_Q["exact"] + GOOD_Q["double"]
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


@st.composite
def invocations(draw):
    name = draw(st.sampled_from(sorted(REGISTRY)))
    good_q = st.sampled_from(GOOD_Q[REGISTRY[name].backend])
    argv = [name, "--q", draw(st.one_of(good_q, ANY_Q))]
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
    return argv


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_invocation_ends_with_a_documented_exit(argv):
    with tempfile.TemporaryDirectory() as out:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--out", out])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        report = Path(out) / f"{argv[0]}.json"
        if report.exists():
            for r in json.loads(report.read_text())["checks"]:
                assert not r["ok"] or math.isfinite(r["residual"]), r
