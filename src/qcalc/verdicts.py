"""Verdicts: the rule every battery row follows, for both engines.

`row` makes one check's verdict and `worst` the largest of its
residuals.  `DEFAULT_SCENARIO` is the gauge battery's configuration:
the battery registry defaults the gauge flags to it, and
`gauge.scenario_report` fills in what a partial configuration omits.
The module imports no numpy, so the battery registry and the field
engine's batteries read it without loading the lattice engine.
"""


def row(check, residual, tolerance=0.5):
    """One verdict; it passes only on a finite residual below tolerance.

    All-or-nothing checks pass a bool that is true on failure: residual 1
    against tolerance 0.5.
    """
    residual = float(residual)
    return {"check": check, "residual": residual,
            "tolerance": float(tolerance), "ok": bool(residual < tolerance)}


def worst(residuals):
    """Largest residual; NaN as soon as one is NaN, and NaN for none, so
    a row that compares nothing fails."""
    out, seen = 0.0, False
    for r in residuals:
        seen = True
        r = float(r)
        if r != r:
            return r
        if r > out:
            out = r
    return out if seen else float("nan")


DEFAULT_SCENARIO = {
    "q": 2.0,
    "window": [-8, 8],
    "seed": 11,
    "dt": 1e-3,
    "einbein_amplitude": 0.3,
    "alpha_amplitude": 1.0,
    "transforms": 10,
}
