"""Residual batteries: one per CLI subcommand, shared with the acceptance gate.

A battery checks one family of the library's identities.  It is a
function `(q, params) -> (rows, used, extra)`: `rows` holds one
verdict per check (name, worst residual, tolerance, ok), `used` is the
effective configuration echoed into the report, and `extra` lists
further artifacts as (file name, text) pairs.

There is one q, an exact rational (`parse_q`), and two engines that
compute at it.  The field engine (leibniz, integrate's field rows) runs
on `QContext(q)` at any q > 1.  The lattice engine runs on
`lattice_context(q)`, whose q is a double; it refuses a q that is not
exactly its double.  verify-algebra is symbolic in q^(1/2) and takes
no q.

The batteries live in one module per engine: `rational` holds the
field engine's (verify-algebra, leibniz, integrate) and `doubles` the
lattice engine's (the other six, and the library errors the CLI
reports).  Only `doubles` imports numpy.

`REGISTRY` records per subcommand its battery, by module and function
name, and its parameters with their defaults.  `run` resolves a
battery's parameters against the registry (given values win over
defaults), validates them, imports the battery's module and calls the
battery with the parsed q (None when it declares no q); the CLI builds
its flags and help from the same records.  So this module imports no
engine, and a battery's engine loads only when it runs.
"""

import importlib
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from ..context import QContext
# row and worst are read from here too, by the CLI and the acceptance gate
from ..verdicts import DEFAULT_SCENARIO, row, worst


class ConfigError(Exception):
    """Bad flag or config-file value; maps to exit status 2."""


# Below this q the normalising products (q^-4; q^-4)_inf of the lattice
# engine underflow (they fall like exp(-pi^2 / (24 ln q))); the field
# engine runs at any q > 1.
Q_MIN_DOUBLE = 1.001


def lattice_context(q):
    """The lattice engine's context at the exact rational q:
    QContext(float(q)).  ConfigError unless that double is finite, at
    least Q_MIN_DOUBLE and exactly q; the message names the double."""
    try:
        x = float(q)
    except OverflowError:
        x = math.inf
    if not Q_MIN_DOUBLE <= x < math.inf:
        raise ConfigError(f"the lattice needs a finite q >= {Q_MIN_DOUBLE}, "
                          f"got {x!r}")
    if x != q:
        raise ConfigError(f"the lattice needs q as a double and {q} is not "
                          f"one; pass q as {x!r}")
    return QContext(x)


# evolve's initial state: its keys and the values run when a config omits one
INITIAL = {"family": "C", "label": "2n+1", "n": 0, "sector": 1}


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One battery parameter: config key, default, flag and valid range.

    `kind` is int, float, str, dict, "window" (two ints LO < HI) or None
    (any JSON value).  `low` is the smallest int allowed, the bound a
    float must exceed, or the smallest span of a window.  `flag` is the
    option spelling when it is not the key's; False marks a config-file
    key with no flag.
    """

    key: str
    default: object
    help: str = ""
    kind: object = int
    low: object = None
    choices: tuple = None
    flag: str = None

    @property
    def option(self):
        if self.flag is False:
            return None
        return self.flag or "--" + self.key.replace("_", "-")

    def pick(self, given):
        """The given value (a default when absent or null), checked."""
        value = given.get(self.key)
        return self.check(self.default if value is None else value)

    def check(self, value):
        """The value converted to its kind; ConfigError when out of range
        or when no flag could spell it, such as a bool, or a float for an
        int key."""
        if value is None or self.kind is None:
            return value
        if self.kind == "window":
            return _window(value, self.low or 1)
        try:
            if isinstance(value, bool):
                raise TypeError("a bool is no flag value")
            out = _int(value) if self.kind is int else self.kind(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.key}: cannot read {value!r}") from exc
        if self.kind is float and not math.isfinite(out):
            raise ConfigError(f"{self.key} must be finite, got {value!r}")
        if self.low is not None and (out <= self.low if self.kind is float
                                     else out < self.low):
            bound = ">" if self.kind is float else ">="
            raise ConfigError(f"{self.key} must be {bound} {self.low}, "
                              f"got {value!r}")
        if self.choices is not None and out not in self.choices:
            raise ConfigError(f"{self.key} must be one of {self.choices}, "
                              f"got {value!r}")
        return out


def _int(value):
    """int(value) for an int or a string of one, as a flag spells it;
    TypeError for any other value, a float or a bool included."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


def _window(value, span):
    message = f"window must be two integers LO < HI, got {value!r}"
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(message)
    try:
        lo, hi = map(_int, value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(message) from exc
    if lo >= hi:
        raise ConfigError(message)
    if hi - lo < span:
        raise ConfigError(f"this battery needs a window spanning >= {span}, "
                          f"got {value!r}")
    return lo, hi


@dataclass(frozen=True)
class Battery:
    """A battery as the function `function` of the module `module` of
    this package, both named by identifier."""

    module: str
    function: str
    help: str
    params: tuple


def _q(default):
    return Param("q", default, "deformation parameter q > 1, a decimal or a "
                 "fraction such as 3/2; lattice checks need q to be a double",
                 kind=str)


def _window_param(default, span=1):
    return Param("window", default, "lattice exponent range", kind="window",
                 low=span)


def _seed(default=0):
    return Param("seed", default, "RNG seed", low=0)


_MASS = Param("mass", 1.0, "particle mass", kind=float, low=0.0)

REGISTRY = {
    "verify-algebra": Battery(
        "rational", "verify_algebra",
        "normal-ordering ring: relations, bar, associativity, derivative "
        "extraction",
        (_seed(), Param("trials", 200, "random elements", low=1))),
    "leibniz": Battery(
        "rational", "leibniz",
        "field calculus: product rules, comultiplication, kernel and "
        "image, one-form product rules and d^2 = 0",
        (_q("3/2"), _seed(), Param("trials", 500, "random pairs", low=1))),
    "integrate": Battery(
        "rational", "integrate",
        "Jackson integrals: closed forms, Stokes, Green, hermiticity, "
        "inverse-derivative series; or one definite integral",
        (_q("2"), _seed(), Param("trials", 100, "random fields", low=1),
         Param("poly", None, "integrand, e.g. '2*x^3 - x^-1 + 1'", kind=str),
         Param("from_exp", None, "lower lattice exponent (point q^N)",
               flag="--from"),
         Param("to_exp", None, "upper lattice exponent (point q^M)",
               flag="--to"),
         Param("sector", 1, "half-line sign", choices=(1, -1)))),
    "special-tables": Battery(
        "doubles", "special_tables",
        "deformed trig tables, recurrences, orthogonality",
        (_q("2"),
         Param("k_max", 12, "table half-width in lattice exponents", low=0))),
    "fourier": Battery(
        "doubles", "fourier",
        "transform isometry, inversion, step functions",
        (_q("2"), _seed(),
         Param("m_cut", 0, "step cut exponent for the CSV table"))),
    "spectrum": Battery(
        "doubles", "spectrum",
        "second-derivative eigenvalue table, Heisenberg relation and "
        "nabla adjoint on the lattice window",
        (_q("2"), _window_param((-12, 12)),
         Param("n_max", 3, "levels per family", low=1), _MASS)),
    "evolve": Battery(
        "doubles", "evolve",
        "unitary evolution: norm and energy drift, stationarity, "
        "continuity, Noether current",
        # the adjoint identity keeps its probe 6 sites clear of both edges
        (_q("2"), _window_param((-12, 12), span=14), _seed(),
         Param("dt", 1e-3, "time step", kind=float, low=0.0),
         Param("steps", 200, "step count", low=1), _MASS,
         Param("initial", INITIAL, kind=dict, flag=False),
         Param("potential", None, kind=None, flag=False))),
    "gauge": Battery(
        "doubles", "gauge",
        "covariance battery for the gauged derivative and curvature",
        (_q(DEFAULT_SCENARIO["q"]),
         _window_param(tuple(DEFAULT_SCENARIO["window"])),
         _seed(DEFAULT_SCENARIO["seed"]),
         Param("dt", DEFAULT_SCENARIO["dt"], "time step", kind=float,
               low=0.0),
         Param("transforms", DEFAULT_SCENARIO["transforms"],
               "random phase transforms", low=1),
         Param("einbein_amplitude", DEFAULT_SCENARIO["einbein_amplitude"],
               kind=float, flag=False),
         Param("alpha_amplitude", DEFAULT_SCENARIO["alpha_amplitude"],
               kind=float, flag=False))),
    "oscillator": Battery(
        "doubles", "oscillator",
        "ladder pair, ground state, level table, Gaussian transform pair, "
        "number-operator form and xi exchange",
        (_q("2"), _window_param((-12, 12)),
         Param("levels", 4, "levels to tabulate", low=1),
         Param("m_index", 1, "ladder index m", low=1))),
}


def parse_q(value):
    """q as one exact rational: a fraction as written, a decimal as the
    exact value of its double."""
    text = str(value).strip()
    try:
        q = Fraction(text) if "/" in text else Fraction(float(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"cannot parse q={value!r} as a finite "
                          f"number") from exc
    if not q > 1:
        raise ConfigError("q must be greater than 1")
    return q


def resolve(name, given):
    """q and validated parameters: given values win over defaults.  A
    battery that declares no q gets None."""
    params = {p.key: p.pick(given) for p in REGISTRY[name].params}
    if "q" not in params:
        return None, params
    return parse_q(params.pop("q")), params


def run(name, given):
    """Resolve a battery's parameters, import its module and run it:
    (rows, used, extra).

    Floating-point overflow and invalid operations stay silent (numpy's
    RuntimeWarnings are ignored): `row` fails every NaN or inf residual,
    and a configuration the library cannot compute raises one of
    `doubles.LIBRARY_ERRORS`.
    """
    q, params = resolve(name, given)
    battery = REGISTRY[name]
    module = importlib.import_module("." + battery.module, __name__)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return getattr(module, battery.function)(q, params)
