"""Command-line front end: one subcommand per residual battery.

Every subcommand runs a battery from `qcalc.batteries` against one slice
of the library, prints one pass/fail line per check with the worst
residual seen, and drops machine-readable artifacts (a JSON report plus
CSV tables) into the output directory.  Exit status is 0 when every
residual is finite and inside tolerance, 1 when any check fails, 2 on a
configuration error: a bad flag or config value, or a library exception
raised because the configuration lies outside what the battery can
compute.

Flags, their defaults and help come from the battery registry.  --q
is read once as an exact rational: a fraction such as 3/2 as written, a
decimal such as 1.5 as the exact value of its double, so the two
spellings run the same.  Field checks run at any q > 1; lattice checks
need q to be a double and refuse, naming the nearest double, a q such
as 4/3; verify-algebra is symbolic in q^(1/2) and ignores --q.  Defaults
may be supplied as a JSON object via --config; explicit flags win over
file values.  Runs are deterministic: the same config and seed produce
byte-identical artifacts.

The CLI imports the registry alone, and a subcommand loads only its
battery's engine.  So verify-algebra, leibniz, integrate --poly and
integrate at a q the lattice refuses never import numpy.
"""

import argparse
import json
import os
import sys
import warnings

from .batteries import REGISTRY, ConfigError, Param, row, run

# Options of the runner itself, accepted by every subcommand.
RUNNER = (
    Param("out", "qcalc-artifacts", "artifact directory", kind=str),
    Param("tol", None, "override every tolerance in the battery",
          kind=float, low=0.0),
)
# Options every subcommand accepts; a battery that declares one of them
# supplies its own default, the others ignore it.
COMMON = (
    Param("q", None, "deformation parameter (unused by this battery)",
          kind=str),
    Param("window", None, "lattice exponent range (unused by this battery)",
          kind="window"),
    Param("seed", None, "RNG seed (unused by this battery)", low=0),
) + RUNNER


def _load_file_cfg(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


# -- artifacts ----------------------------------------------------------------


def report_to_csv(rows):
    """The text of <command>-checks.csv: a header, then one line per row."""
    lines = ["check,residual,tolerance,ok"]
    for r in rows:
        lines.append(f"{r['check']},{repr(r['residual'])},"
                     f"{repr(r['tolerance'])},{int(r['ok'])}")
    return "\n".join(lines) + "\n"


def _make_out(out_dir):
    """Create the artifact directory, before any battery runs."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: {exc}") from exc


def _write(out_dir, name, text):
    try:
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"out: {exc}") from exc


def _finish(command, rows, config, extra, out_dir, tol):
    if tol is not None:
        rows = [row(r["check"], r["residual"], tol) for r in rows]
    report = {"command": command, "config": config, "checks": rows}
    _write(out_dir, command + ".json",
           json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write(out_dir, command + "-checks.csv", report_to_csv(rows))
    for name, text in extra:
        _write(out_dir, name, text)
    width = max(len(r["check"]) for r in rows)
    for r in rows:
        mark = "ok  " if r["ok"] else "FAIL"
        print(f"{mark} {r['check']:<{width}}  residual={r['residual']:.3e}"
              f"  tol={r['tolerance']:.3e}")
    bad = sum(1 for r in rows if not r["ok"])
    verdict = "all checks passed" if not bad else f"{bad} check(s) FAILED"
    print(f"{command}: {len(rows) - bad}/{len(rows)} ok, {verdict}; "
          f"artifacts in {out_dir}")
    return 1 if bad else 0


# -- entry point --------------------------------------------------------------


def _add_option(parser, p):
    kw = {"dest": p.key, "help": p.help}
    if p.default is not None:
        shown = (" ".join(map(str, p.default))
                 if isinstance(p.default, tuple) else p.default)
        kw["help"] += f" (default {shown})"
    if p.kind == "window":
        kw.update(nargs=2, type=int, metavar=("LO", "HI"))
    else:
        kw.update(type=p.kind, choices=p.choices)
    parser.add_argument(p.option, **kw)


def build_parser():
    top = argparse.ArgumentParser(
        prog="qcalc",
        description="Residual batteries for the q-deformed calculus; "
                    "each subcommand prints per-check results and writes "
                    "JSON/CSV artifacts.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, battery in REGISTRY.items():
        # only explicit flags reach the namespace, so config-file values
        # can fill the rest before the registry defaults do
        p = sub.add_parser(name, help=battery.help,
                           argument_default=argparse.SUPPRESS)
        own = {prm.key: prm for prm in battery.params}
        for prm in COMMON:
            _add_option(p, own.pop(prm.key, prm))
        p.add_argument("--config", help="JSON file supplying defaults; "
                       "explicit flags win")
        for prm in own.values():
            if prm.option:
                _add_option(p, prm)
    return top


def _library_errors():
    """The library exceptions a run reports as exit 2.  The lattice
    batteries list them and load numpy, so an except clause calls this:
    Python evaluates the clause only once an exception reaches it."""
    from .batteries.doubles import LIBRARY_ERRORS
    return LIBRARY_ERRORS


def _one_line(kind, category, message):
    first = (str(message).splitlines() or [""])[0]
    return f"{kind}: {category.__name__}: {first}"


def main(argv=None):
    given = vars(build_parser().parse_args(argv))
    command = given.pop("command")
    try:
        given = {**_load_file_cfg(given.pop("config", None)), **given}
        out, tol = (prm.pick(given) for prm in RUNNER)
        if command == "integrate" and given.get("poly") is not None:
            from .batteries.rational import print_integral
            return print_integral(given)
        _make_out(out)
        # warnings wait for the verdict: a run that ends in a library
        # error prints that one line alone
        with warnings.catch_warnings(record=True) as caught:
            rows, used, extra = run(command, given)
        for line in dict.fromkeys(_one_line("warning", w.category, w.message)
                                  for w in caught):
            print(line, file=sys.stderr)
        return _finish(command, rows, used, extra, out, tol)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _library_errors() as exc:
        print(_one_line("error", type(exc), exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
