"""Sector-stacked stencil operators against dense matrices; field maxima."""

import numpy as np
import pytest

from qcalc.context import QContext
from qcalc.lattice import GridMismatch, LatticeFn, LatticeGrid, Stencil

D2 = QContext(2.0)
SEED = 20260816


def rand_stencil(rng, grid, offsets):
    shape = (len(grid.sectors), grid.size)
    return Stencil(grid, {c: rng.standard_normal(shape)
                          + 1j * rng.standard_normal(shape)
                          for c in offsets})


@pytest.fixture(params=[(1, -1), (-1,)])
def grid(request):
    return LatticeGrid(D2, -4, 4, request.param)


def test_dense_form_holds_each_diagonal(grid):
    rng = np.random.default_rng(SEED)
    a = rand_stencil(rng, grid, (-3, 0, 2, 9))
    n = grid.size
    for k, s in enumerate(grid.sectors):
        m = a.dense(s)
        for i in range(n):
            for j in range(n):
                want = a.diags[i - j][k, i] if i - j in a.diags else 0.0
                assert m[i, j] == want
    # entries that would read outside the window are held at zero
    assert not a.diags[2][:, :2].any() and not a.diags[-3][:, -3:].any()
    assert not a.diags[9].any()


def test_operations_match_dense_products(grid):
    rng = np.random.default_rng(SEED + 1)
    for _ in range(20):
        a = rand_stencil(rng, grid, rng.choice(np.arange(-4, 5), 3, False))
        b = rand_stencil(rng, grid, rng.choice(np.arange(-4, 5), 2, False))
        v = (rng.standard_normal((len(grid.sectors), grid.size))
             + 1j * rng.standard_normal((len(grid.sectors), grid.size)))
        av = a @ v
        for k, s in enumerate(grid.sectors):
            da, db = a.dense(s), b.dense(s)
            assert np.allclose((a @ b).dense(s), da @ db, rtol=0, atol=1e-14)
            assert np.array_equal(a.adjoint().dense(s), da.conj().T)
            assert np.array_equal((a + b).dense(s), da + db)
            assert np.array_equal((a - b).dense(s), da - db)
            assert np.array_equal((0.5j * a).dense(s), 0.5j * da)
            assert np.allclose(av[k], da @ v[k], rtol=0, atol=1e-14)
        for margin in (0, 1, 3):
            block = slice(margin, grid.size - margin)
            want = max(np.max(np.abs(a.dense(s)[block, block]))
                       for s in grid.sectors)
            assert a.max_abs(margin) == want


def test_composition_cuts_the_intermediate_index():
    grid = LatticeGrid(D2, -4, 4)
    up, down = Stencil(grid, {2: 1.0}), Stencil(grid, {-2: 1.0})
    # up reads two sites below, down two above: a route through a site
    # outside the window contributes nothing
    assert np.array_equal((up @ down).diags[0][0], [0, 0] + [1] * 7)
    assert np.array_equal((down @ up).diags[0][0], [1] * 7 + [0, 0])


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="long double is not wider than double here")
def test_composition_rounds_each_entry_once():
    # (1 + 2^-27)(1 - 2^-27) - 1 = -2^-54 exactly; rounding the product
    # first would give 0
    grid = LatticeGrid(D2, -4, 4)
    a = Stencil(grid, {0: 1 + 2.0 ** -27, 1: 1.0})
    b = Stencil(grid, {0: 1 - 2.0 ** -27, -1: -1.0})
    assert np.all((a @ b).diags[0][:, 1:] == -2.0 ** -54)


def test_grid_mismatch():
    a = Stencil(LatticeGrid(D2, -4, 4), {0: 1.0})
    b = Stencil(LatticeGrid(D2, -4, 5), {0: 1.0})
    for op in (lambda: a + b, lambda: a - b, lambda: a @ b):
        with pytest.raises(GridMismatch):
            op()


def test_max_abs_interior_propagates_nan_from_any_sector():
    grid = LatticeGrid(D2, -4, 4)
    f = LatticeFn.from_sites(grid, {(1, 0): 2.0, (-1, 1): np.nan})
    assert np.isnan(f.max_abs_interior())
