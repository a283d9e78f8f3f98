"""Command-line front end: one subcommand per residual battery.

Every subcommand runs a battery from `qcalc.batteries` against one slice
of the library, prints one pass/fail line per check with the worst
residual seen, and drops machine-readable artifacts (a JSON report plus
CSV tables) into the output directory.  Exit status is 0 when every
residual is finite and inside tolerance, 1 when any check fails, 2 on a
configuration error: a bad flag or config value, or a library exception
raised because the configuration lies outside what the battery can
compute.

Flags, their defaults and help come from the battery registry.  The
--q value picks the arithmetic backend: a fraction such as 3/2 runs on
exact rationals, a decimal such as 2.0 on doubles.  The algebraic
batteries (verify-algebra, leibniz) demand the exact backend; the
lattice batteries demand doubles.  Defaults may be supplied as a JSON
object via --config; explicit flags win over file values.  Runs are
deterministic: the same config and seed produce byte-identical
artifacts.
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .batteries import (
    LIBRARY_ERRORS,
    REGISTRY,
    ConfigError,
    Param,
    resolve,
    run,
)
from .fields import LaurentPoly
from .gauge import report_to_csv
from .integration import definite_integral

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


# -- one-shot integral --------------------------------------------------------


_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?\*?(x(?:\^(-?\d+))?)?")


def _parse_poly(ctx, text):
    """Sums of Laurent monomials: '2*x^3 - x^-1 + 1/2'."""
    src = text.replace(" ", "")
    if not src:
        raise ConfigError("empty polynomial")
    coeffs = {}
    pos = 0
    while pos < len(src):
        m = _TERM.match(src, pos)
        if m is None or m.end() == pos or (m.group(2) is None
                                           and m.group(3) is None):
            raise ConfigError(f"cannot parse polynomial near {src[pos:]!r}")
        sign, num, xpart, expo = m.groups()
        c = Fraction(num) if num else Fraction(1)
        if sign == "-":
            c = -c
        n = (int(expo) if expo else 1) if xpart else 0
        coeffs[n] = coeffs.get(n, ctx.zero) + ctx.coerce(c)
        pos = m.end()
    return LaurentPoly(ctx, {n: c for n, c in coeffs.items()
                             if not ctx.is_zero(c)})


def _print_integral(given):
    ctx, params = resolve("integrate", given)
    lo, hi = params["from_exp"], params["to_exp"]
    if lo is None or hi is None:
        raise ConfigError("--poly needs --from and --to lattice exponents")
    val = definite_integral(_parse_poly(ctx, params["poly"]), lo, hi,
                            sector=params["sector"])
    if ctx.exact:
        print(val if val.im != 0 else val.re)
    else:
        print(f"{val.real:g}" if abs(val.imag) < 1e-30 else f"{val:g}")
    return 0


# -- artifacts ----------------------------------------------------------------


def _write(out_dir, name, text):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def _finish(command, rows, config, extra, out_dir, tol):
    if tol is not None:
        for r in rows:
            r["tolerance"] = tol
            r["ok"] = bool(r["residual"] < tol)
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


def main(argv=None):
    given = vars(build_parser().parse_args(argv))
    command = given.pop("command")
    try:
        given = {**_load_file_cfg(given.pop("config", None)), **given}
        out, tol = (prm.pick(given) for prm in RUNNER)
        if command == "integrate" and given.get("poly") is not None:
            return _print_integral(given)
        rows, used, extra = run(command, given)
        return _finish(command, rows, used, extra, out, tol)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LIBRARY_ERRORS as exc:
        msg = str(exc).splitlines()[0] if str(exc) else ""
        print(f"error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
