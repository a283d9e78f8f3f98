"""Sector-stacked stencil operators against dense matrices; the row order
of sector-stacked lattice functions; site factors; field maxima."""

import csv
import io
import math
import struct

import numpy as np
import pytest

from qcalc.context import QContext
from qcalc.integration import ParityMismatch, _site_exponents
from qcalc.lattice import (
    GridMismatch,
    InsufficientPadding,
    LatticeFn,
    LatticeGrid,
    Stencil,
    definite_integral,
    improper_integral,
    running_sum,
    to_csv,
)

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


@pytest.mark.parametrize("q, n_min, n_max", [(1e25, -16, 4),
                                              (1e100, -4, 4)])
def test_grid_outside_double_range_is_refused(q, n_min, n_max):
    # 1e25^-16 underflows to 0.0, 1e100^4 overflows
    with pytest.raises(OverflowError):
        LatticeGrid(QContext(q), n_min, n_max)


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


# -- row order of sector-stacked functions --------------------------------------
#
# Row k of LatticeFn.data holds grid.sectors[k].  A one-sector grid on the
# negative half-line carries sector -1 alone, and (-1, 1) reverses the default order, so each expectation below is built
# from the sign of the sector that should sit in that row.

ORDERS = [(-1,), (-1, 1), (1, -1)]


def site_value(s, n):
    """A value that tells sector and exponent apart."""
    return complex(s * (n + 10), 0.5 * n - s)


@pytest.fixture(params=ORDERS, ids=str)
def ordered(request):
    grid = LatticeGrid(D2, -5, 5, request.param)
    sites = {(s, n): site_value(s, n)
             for s in grid.sectors for n in grid.exponents()}
    return grid, LatticeFn.from_sites(grid, sites)


def rows_by_sign(grid, fn):
    """Expected data: row k from fn(sign of sector k, n) over the window."""
    return np.array([[fn(s, n) for n in grid.exponents()]
                     for s in grid.sectors])


def test_constructor_and_sites_fill_rows_in_sector_order(ordered):
    grid, f = ordered
    want = rows_by_sign(grid, site_value)
    assert np.array_equal(f.data, want)
    by_sector = {s: want[k] for k, s in enumerate(grid.sectors)}
    assert np.array_equal(LatticeFn(grid, by_sector).data, want)
    assert np.array_equal(LatticeFn(grid, want).data, want)
    # a mapping that leaves out a sector zeroes its row
    first = grid.sectors[0]
    part = LatticeFn(grid, {first: by_sector[first]})
    assert np.array_equal(part.sector(first), by_sector[first])
    assert not part.data[1:].any()
    for k, s in enumerate(grid.sectors):
        assert np.array_equal(f.sector(s), want[k])
        assert f.value(s, 3) == site_value(s, 3)
    with pytest.raises(ValueError):
        LatticeFn(grid, np.zeros((len(grid.sectors) + 1, grid.size)))


def test_sector_access_never_reads_a_row_by_position(ordered):
    grid, f = ordered
    with pytest.raises(AttributeError):
        f.values
    if 1 not in grid.sectors:
        with pytest.raises(KeyError):
            f.sector(1)
        with pytest.raises(KeyError):
            LatticeFn.from_sites(grid, {(1, 0): 1.0})


def test_shift_and_derivative_follow_each_sector(ordered):
    grid, f = ordered
    lam = D2.lam
    shifted = f.L_shift(2)
    want = rows_by_sign(grid, lambda s, n: site_value(s, n - 2)
                        if n - 2 >= grid.n_min else 0)
    assert np.array_equal(shifted.data, want)
    d = f.nabla_fn()
    lo, hi = d.valid_window()
    for s in grid.sectors:
        for n in range(lo, hi + 1):
            want = ((site_value(s, n + 1) - site_value(s, n - 1))
                    / (lam * s * D2.qpow(n)))
            assert d.value(s, n) == want


def test_x_multiply_uses_each_sector_sign(ordered):
    grid, f = ordered
    got = f.x_multiply()
    want = rows_by_sign(grid, lambda s, n: site_value(s, n)
                        * complex(s * D2.qpow(n)))
    assert np.array_equal(got.data, want)


def test_improper_integral_sums_sector_major(ordered):
    grid, f = ordered
    acc = 0j
    for s in grid.sectors:
        for n in grid.exponents():
            acc += D2.qpow(n) * f.value(s, n)
    assert improper_integral(f, tail_tol=math.inf) == 0.5 * D2.lam * acc


def loop_trace_integral(h, lower_exp, upper_exp, sector=1):
    """The trace integral as a loop over the sites, one value() each."""
    ctx = h.grid.ctx
    acc = 0j
    for n in _site_exponents(lower_exp, upper_exp):
        acc += (sector * ctx.qpow(n)) * h.value(sector, n)
    return ctx.lam * acc


def outcome(integral, *args):
    """The integral's type and bits, or the type of the error it raised."""
    try:
        v = integral(*args)
    except (ParityMismatch, InsufficientPadding, IndexError, KeyError,
            ValueError) as e:
        return type(e)
    bits = np.asarray(v, dtype=complex)
    return (type(v), bits.real.view(np.uint64).tolist(),
            bits.imag.view(np.uint64).tolist())


# (lower, upper): even and odd endpoint pairs inside the valid window
# [-8, 9] of a +-10 function with pads (2, 1), one each at its ends; then
# a pad site, sites past the grid, a parity mismatch and empty ranges
TRACE_WINDOWS = [(-8, 8), (-6, 2), (0, 2), (-9, 9), (8, 10), (-7, 7),
                 (-7, 9), (-5, -3), (1, 3), (-10, 10), (-9, 11), (-12, -8),
                 (-14, -6), (8, 14), (-8, 11), (4, 4), (4, 2)]


@pytest.mark.parametrize("q", [2.0, 1.5, 3.0])
@np.errstate(invalid="ignore")
def test_trace_integral_is_the_site_loop(q):
    rng = np.random.default_rng(SEED + 2)
    grid = LatticeGrid(QContext(q), -10, 10)
    f = rand_batch(rng, grid, pads=(2, 1), shape=())
    bad = f.copy()
    bad.sector(1)[4] = np.inf  # n = -6
    bad.sector(-1)[13] = complex(0.5, np.nan)  # n = 3
    batch = rand_batch(rng, grid, pads=(2, 1), shape=(3,))
    one = LatticeFn(LatticeGrid(QContext(q), -10, 10, (1,)),
                    [f.sector(1)], 2, 1)
    for h in (f, bad, batch, one):
        for s in (1, -1):
            for lo, hi in TRACE_WINDOWS:
                want = outcome(loop_trace_integral, h, lo, hi, s)
                assert outcome(definite_integral, h, lo, hi, s) == want, \
                    (lo, hi, s)
    assert outcome(definite_integral, f, -10, 10) is InsufficientPadding
    assert outcome(definite_integral, f, -8, 12) is InsufficientPadding
    assert outcome(definite_integral, f, -8, 11) is ParityMismatch
    assert outcome(definite_integral, one, -8, 8, -1) is KeyError


def test_max_abs_interior_sees_nan_in_the_last_row(ordered):
    grid, f = ordered
    last = grid.sectors[-1]
    g = f.copy()
    g.sector(last)[5] = np.nan
    assert np.isnan(g.max_abs_interior())
    assert f.max_abs_interior() == np.max(np.abs(rows_by_sign(grid,
                                                              site_value)))
    assert f.L_shift(1).max_abs_interior(1) == max(
        np.max(np.abs(f.sector(s)[1:-2])) for s in grid.sectors)


def test_serialization_round_trips_keep_sectors(ordered):
    # rows run sector by sector in grid order, exponents ascending, and
    # the repr-printed floats read back bit for bit
    grid, f = ordered
    rows = list(csv.reader(io.StringIO(to_csv(f))))
    assert rows[0] == ["sigma", "n", "re", "im"]
    assert [(int(s), int(n)) for s, n, _, _ in rows[1:]] == [
        (s, n) for s in grid.sectors for n in grid.exponents()]
    back = np.reshape([complex(float(re), float(im))
                       for _, _, re, im in rows[1:]], f.data.shape)
    assert np.array_equal(back, f.data)


# -- site factors ------------------------------------------------------------------


@pytest.mark.parametrize("q, w", [(1.2, 12), (2.5, 12), (1.5, 60), (3.0, 60)])
def test_site_factors_match_the_scalar_formulas_bit_for_bit(q, w):
    ctx = QContext(q)
    grid = LatticeGrid(ctx, -w, w)
    for k, s in enumerate(grid.sectors):
        for i, n in enumerate(grid.exponents()):
            assert grid.qpows[i] == ctx.qpow(n)
            assert grid.points[k, i] == s * ctx.qpow(n)
            assert grid.lam_x[k, i] == ctx.lam * s * ctx.qpow(n)


# -- leading batch axes ------------------------------------------------------------
#
# A batch of T functions is one LatticeFn whose data has shape
# (T, sectors, size); each result must equal, bit for bit, the loop that
# treats the members one at a time.

T = 5


def rand_batch(rng, grid, pads=(1, 2), shape=(T,)):
    shape = (*shape, len(grid.sectors), grid.size)
    return LatticeFn(grid, rng.uniform(-1, 1, shape)
                     + 1j * rng.uniform(-1, 1, shape), *pads)


def members(f):
    return [LatticeFn(f.grid, d, f.pad_lo, f.pad_hi) for d in f.data]


def assert_batch_is_the_loop(batched, looped):
    assert len(batched.data) == len(looped)
    for d, f in zip(batched.data, looped):
        assert (batched.pad_lo, batched.pad_hi) == (f.pad_lo, f.pad_hi)
        assert np.array_equal(d, f.data)


UNARY = {
    "scale": lambda f: f.scale(0.3 - 2j),
    "neg": lambda f: -f,
    "conj": lambda f: f.conj(),
    "x_multiply": lambda f: f.x_multiply(),
    "L_shift(1)": lambda f: f.L_shift(1),
    "L_shift(-1)": lambda f: f.L_shift(-1),
    "L_shift(3)": lambda f: f.L_shift(3),
    "L_shift(-3)": lambda f: f.L_shift(-3),
    "nabla_fn": lambda f: f.nabla_fn(),
}


@pytest.mark.parametrize("name", UNARY)
def test_batched_unary_ops_match_the_member_loop(grid, name):
    op = UNARY[name]
    f = rand_batch(np.random.default_rng(SEED), grid)
    assert_batch_is_the_loop(op(f), [op(m) for m in members(f)])


@pytest.mark.parametrize("name", ["add", "sub", "mul"])
def test_batched_pointwise_ops_match_the_member_loop(grid, name):
    op = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
          "mul": lambda a, b: a * b}[name]
    rng = np.random.default_rng(SEED)
    f, g = rand_batch(rng, grid), rand_batch(rng, grid, pads=(3, 0))
    single = LatticeFn(grid, g.data[0], 0, 1)
    assert_batch_is_the_loop(op(f, g), [op(a, b) for a, b in
                                        zip(members(f), members(g))])
    # one function broadcasts against the batch from either side
    assert_batch_is_the_loop(op(f, single), [op(a, single)
                                             for a in members(f)])
    assert_batch_is_the_loop(op(single, f), [op(single, a)
                                             for a in members(f)])


def test_batched_max_abs_interior_is_the_worst_member(grid):
    f = rand_batch(np.random.default_rng(SEED), grid)
    for margin in (0, 1):
        assert f.max_abs_interior(margin) == max(
            m.max_abs_interior(margin) for m in members(f))
    f.data[3, -1, 4] = np.nan
    assert np.isnan(f.max_abs_interior())
    with pytest.raises(InsufficientPadding):
        f.max_abs_interior(grid.size)


def test_interior_refuses_a_margin_past_the_window_edge(grid):
    # a negative margin widens the valid window up to the grid's edge and
    # no further: a slice would wrap a negative start round to the far end
    f = LatticeFn(grid, np.ones((len(grid.sectors), grid.size)), 1, 2)
    assert f.interior(-1).shape[-1] == grid.size - 1
    for pads, margin in (((1, 2), -2), ((0, 0), -1), ((3, 0), -1)):
        g = LatticeFn(grid, f.data, *pads)
        with pytest.raises(IndexError):
            g.interior(margin)
        with pytest.raises(IndexError):
            g.max_abs_interior(margin)
    with pytest.raises(InsufficientPadding):
        f.interior(grid.size // 2)


def test_batch_axes_keep_the_sector_layout(grid):
    f = rand_batch(np.random.default_rng(SEED), grid, shape=(2, 3))
    assert grid.stack(f.data).shape == f.data.shape
    for s in grid.sectors:
        assert np.array_equal(f.sector(s), f.data[..., grid.row(s), :])
        assert np.array_equal(f.value(s, 0),
                              f.data[..., grid.row(s), grid.index(0)])
    with pytest.raises(ValueError):
        grid.stack(f.data[..., :-1])


def _loop_sum(row):
    acc = 0.0
    for t in row:
        acc += t
    return acc


def _parts_bits(values):
    """Every bit of the real and imaginary part of each value, but one
    mark for every NaN: the sign and payload an addition gives a NaN
    depend on its operand order, which C compilers choose."""
    def bits(x):
        return "nan" if math.isnan(x) else struct.pack("<d", x)
    return [(bits(v.real), bits(v.imag)) if isinstance(v, complex)
            else bits(v) for v in values]


@np.errstate(invalid="ignore", over="ignore")
def test_running_sum_is_the_python_loop_bit_for_bit():
    specials = [-0.0, 0.0, math.nan, math.inf, -math.inf, 1e308, 1e-320]
    rng = np.random.default_rng(SEED + 3)
    reals = [[-0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0], [math.inf],
             [math.inf, -math.inf], [1e308, 1e308, -1e308], [1.0, -1.0],
             [math.nan, 1.0], [-0.0, math.nan]]
    reals += [list(rng.choice(specials, size=n)) for n in (1, 2, 3, 5)
              for _ in range(30)]
    reals += [list(rng.standard_normal(n)) for n in (1, 7, 40)]
    for rows in (reals[:1], reals):
        for row in rows:
            got = running_sum(np.array(row))
            assert type(got) is np.float64
            assert _parts_bits([got]) == _parts_bits([_loop_sum(row)]), row
    complexes = [[complex(a, b) for a, b in zip(row, row[::-1])]
                 for row in reals]
    complexes += [[complex(-0.0, -0.0)], [complex(-0.0, 0.0)] * 2,
                  [complex(math.nan, -0.0), complex(-0.0, math.inf)]]
    for row in complexes:
        got = running_sum(np.array(row, dtype=complex))
        assert _parts_bits([complex(got)]) \
            == _parts_bits([complex(_loop_sum(row))]), row
    # a 2-d array sums each row, as the loop does
    table = rng.choice(specials + [1.5, -2.25], size=(6, 4))
    assert _parts_bits(running_sum(table).tolist()) \
        == _parts_bits([_loop_sum(r) for r in table.tolist()])
    # an empty last axis sums to zeros, in the terms' dtype
    assert _parts_bits([running_sum(np.empty(0))]) == _parts_bits([0.0])
    for dtype in (float, complex):
        empty = running_sum(np.empty((3, 0), dtype=dtype))
        assert empty.dtype == dtype and empty.shape == (3,)
        assert _parts_bits(empty.tolist()) == _parts_bits([dtype(0)] * 3)
