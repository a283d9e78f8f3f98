"""The verdict map: each lattice battery at each swept setting, one outcome.

The goldens pin the bytes at default flags and at q = 1.5.  This table
pins the verdicts everywhere else that a change tends to move them: q
from the lattice floor 1.001 up to 50, and q = 1e25, where the batteries
run past the double range, every battery at its default window; and the
windows +-24 and +-60 at q = 2 for the batteries that take a window.
Every cell runs through `batteries.run`, as the CLI does.

A cell's outcome is the sorted names of the rows that fail, or the name
of the exception the run raises, which the CLI reports as exit 2.  An
empty tuple is a run whose rows all pass.  Each non-empty cell names in
a comment the ROADMAP item that owns its failures.  A change that moves
a cell updates this table in the same commit and lists the move, with
the old and new residual, in CHANGES.md.
"""

import pytest

from qcalc.batteries import ConfigError, run
from qcalc.batteries.doubles import LIBRARY_ERRORS

BATTERIES = ("integrate", "special-tables", "fourier", "spectrum", "evolve",
             "gauge", "oscillator")
WINDOWED = ("spectrum", "evolve", "gauge", "oscillator")
QS = ("1.001", "1.05", "1.1", "1.2", "1.5", "3", "4", "10", "50", "1e25")
WINDOWS = (24, 60)

# The q columns below 1.5 fail where the batteries size their sums and
# windows for q = 2 (item 17); the q = 3 to 50 columns and the wide
# windows fail on entries that grow like q^(2W) (items 2 and 15), and
# gauge's RouteMismatch exits 2 where it should be a failing row (item 21).
# At q = 1e25 the spans sized for q = 2 leave the double range (item 17).
VERDICTS = {
    ("q", "1.001"): {
        "integrate": ("nabla2-hermiticity",),  # item 15
        "special-tables": ("gauss-constants", "orthogonality-diagonal",
                           "orthogonality-offdiagonal"),  # item 17
        "fourier": "NotConverged",  # item 17
        "spectrum": (),
        "evolve": ("adjoint-identity", "stationarity-drift"),  # item 17
        "gauge": ("commutator", "curvature-covariance"),  # item 17
        "oscillator": "NoDecay",  # item 17
    },
    ("q", "1.05"): {
        "integrate": (),
        "special-tables": ("orthogonality-diagonal",
                           "orthogonality-offdiagonal"),  # item 17
        "fourier": "NotConverged",  # item 17
        "spectrum": (),
        "evolve": ("stationarity-drift",),  # item 17
        "gauge": (),
        "oscillator": "NoDecay",  # item 17
    },
    ("q", "1.1"): {
        "integrate": (),
        "special-tables": ("orthogonality-diagonal",
                           "orthogonality-offdiagonal"),  # item 17
        "fourier": "NotConverged",  # item 17
        "spectrum": (),
        "evolve": ("stationarity-drift",),  # item 17
        "gauge": (),
        "oscillator": "NoDecay",  # item 17
    },
    ("q", "1.2"): {
        "integrate": (),
        "special-tables": ("orthogonality-diagonal",
                           "orthogonality-offdiagonal"),  # item 17
        "fourier": "NotConverged",  # item 17
        "spectrum": (),
        "evolve": ("stationarity-drift",),  # item 17
        "gauge": (),
        "oscillator": "NoDecay",  # item 17
    },
    ("q", "1.5"): {
        "integrate": (),
        "special-tables": (),
        "fourier": (),
        "spectrum": (),
        "evolve": ("stationarity-drift",),  # item 17
        "gauge": (),
        "oscillator": (),
    },
    ("q", "3"): {
        "integrate": (),
        "special-tables": ("recurrences",),  # item 15
        "fourier": (),
        "spectrum": (),
        "evolve": (),
        "gauge": ("commutator", "curvature-covariance"),  # item 2
        "oscillator": ("commutator-normalized", "hermite-tower",
                       "ladder-spectrum",
                       "number-operator-form"),  # items 2 and 15
    },
    ("q", "4"): {
        "integrate": ("nabla2-hermiticity",),  # item 15
        "special-tables": ("eigenvalue-relation", "recurrences"),  # item 15
        "fourier": (),
        "spectrum": ("eigenvalue-table",),  # item 2
        "evolve": ("energy-drift",),  # item 15
        "gauge": "RouteMismatch",  # item 21
        "oscillator": ("hermite-tower", "ladder-spectrum",
                       "number-operator-form"),  # items 2 and 15
    },
    ("q", "10"): {
        "integrate": ("green-identity", "nabla2-hermiticity"),  # item 15
        "special-tables": ("eigenvalue-relation", "orthogonality-offdiagonal",
                           "recurrences"),  # item 15
        "fourier": (),
        "spectrum": ("eigenvalue-table",),  # item 2
        "evolve": ("adjoint-identity", "energy-drift",
                   "noether-current"),  # items 2 and 15
        "gauge": "RouteMismatch",  # item 21
        "oscillator": ("commutator-normalized", "hermite-tower",
                       "ladder-spectrum", "number-operator-form",
                       "raising-identity",
                       "raising-xi-exchange"),  # items 2 and 15
    },
    ("q", "50"): {
        "integrate": ("green-identity", "nabla2-hermiticity"),  # item 15
        "special-tables": ("eigenvalue-relation",
                           "orthogonality-offdiagonal"),  # item 15
        "fourier": (),
        "spectrum": ("eigenvalue-table",),  # item 2
        "evolve": ("adjoint-identity", "energy-drift",
                   "noether-current"),  # items 2 and 15
        "gauge": "RouteMismatch",  # item 21
        "oscillator": ("commutator-normalized", "hermite-tower",
                       "ladder-spectrum", "number-operator-form",
                       "raising-identity",
                       "raising-xi-exchange"),  # items 2 and 15
    },
    ("q", "1e25"): {
        "integrate": ("green-identity", "nabla2-hermiticity"),  # item 15
        "special-tables": "ConfigError",  # item 17: q^120 past the doubles
        "fourier": "ConfigError",  # item 17: q^81 past the doubles
        "spectrum": "ChainStructureError",  # items 2 and 17
        "evolve": "ChainStructureError",  # items 2 and 17
        "gauge": "RouteMismatch",  # item 21
        # the one run whose Gaussian pair reads kernels where q^m underflows
        "oscillator": ("commutator-normalized", "ground-state-defect",
                       "hermite-tower", "ladder-spectrum",
                       "number-operator-form", "raising-identity",
                       "raising-xi-exchange"),  # items 2, 15 and 17
    },
    ("window", 24): {
        "spectrum": ("eigenvalue-table",),  # item 2
        "evolve": ("adjoint-identity", "energy-drift"),  # items 2 and 15
        "gauge": "RouteMismatch",  # item 21
        "oscillator": ("hermite-tower", "ladder-spectrum",
                       "raising-identity"),  # item 2
    },
    ("window", 60): {
        "spectrum": ("eigenvalue-table",),  # item 2
        "evolve": ("adjoint-identity", "continuity", "energy-drift",
                   "noether-current"),  # item 2
        "gauge": "RouteMismatch",  # item 21
        "oscillator": ("commutator-normalized", "ground-state-defect",
                       "hermite-tower", "ladder-spectrum",
                       "number-operator-form", "raising-identity"),  # item 2
    },
}

# every cell of the sweep, so a cell missing from the table fails to collect
CELLS = ([(("q", q), b) for q in QS for b in BATTERIES]
         + [(("window", w), b) for w in WINDOWS for b in WINDOWED])


def given(setting):
    key, value = setting
    return {"q": value} if key == "q" else {"window": (-value, value)}


def outcome(battery, setting):
    """The sorted failing rows of one run, or its exit-2 exception's name."""
    try:
        rows = run(battery, given(setting))[0]
    except (ConfigError, *LIBRARY_ERRORS) as exc:
        return type(exc).__name__
    return tuple(sorted(r["check"] for r in rows if not r["ok"]))


def test_the_map_holds_exactly_the_sweep():
    assert sorted((s, b) for s, col in VERDICTS.items() for b in col) \
        == sorted(CELLS)


@pytest.mark.parametrize("setting, battery", CELLS,
                         ids=[f"{k}={v}-{b}" for (k, v), b in CELLS])
def test_verdict(setting, battery):
    assert outcome(battery, setting) == VERDICTS[setting][battery]
