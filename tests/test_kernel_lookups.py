"""No library code path looks a kernel up by its argument z.

`SpecialFunctions.cos_q(z)` and `sin_q(z)` take z to a lattice exponent
by a logarithm and raise off the lattice.  The library reads the kernels
as rows by exponent (`kernel_row`) instead.  One caller is left, for the
benchmark; tests may look kernels up freely.
"""

from test_no_dense import package_calls

ALLOWED = {
    "fourier.QFourier.step_closed_form":
        "the benchmark's probe counts its sin_q lookups, 21 per step op, "
        "to report special.cache.hit_ratio",
}


def test_only_the_step_closed_form_looks_kernels_up_by_z():
    assert sorted(package_calls({"cos_q", "sin_q"})) == sorted(ALLOWED)
