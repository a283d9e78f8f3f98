"""The verdict rule: a row passes only on a finite residual below its
tolerance, so the worst of no residuals at all is no pass."""

import math

from qcalc.verdicts import row, worst


def test_a_row_over_no_residuals_fails():
    assert math.isnan(worst([]))
    assert math.isnan(worst(iter(())))
    assert row("r", worst([]))["ok"] is False


def test_worst_of_some_residuals_starts_at_zero():
    # only the empty case reads NaN: all-negative inputs and -0.0 still
    # read +0.0, and a NaN still wins wherever it stands
    assert math.copysign(1.0, worst([-0.0])) == 1.0
    assert worst([-3.0, -1.0]) == 0.0
    assert worst(iter([1e-3, 2e-3])) == 2e-3
    assert math.isnan(worst([1.0, math.nan, 2.0]))
    assert row("r", worst([1.0, math.nan]))["ok"] is False
