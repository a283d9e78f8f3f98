"""Sublattice transform: isometry, inversion, step function, serialization."""

import gc
import math
import random
import struct
import weakref

import numpy as np
import pytest

from qcalc import special
from qcalc.batteries import rand_seq
from qcalc.context import QContext
from qcalc.fourier import QFourier, SublatticeSeq
from qcalc.integration import NotConverged
from qcalc.special import SpecialFunctions

D2 = QContext(2.0)
QF = QFourier(D2)

SEED = 20260816


def test_zero_maps_to_zero():
    z = SublatticeSeq(D2, -10, np.zeros(21))
    for out in (QF.qft_cos(z), QF.qft_sin(z)):
        assert out.max_abs() == 0.0
        assert out.family == "even"
        assert out.k_min == -10 and out.k_max == 10


def test_isometry_cos_even_family():
    rng = random.Random(SEED)
    for _ in range(5):
        f = rand_seq(rng, D2)
        g = QF.qft_cos(f)
        a, b = f.weighted_norm_sq(), g.weighted_norm_sq()
        assert abs(a - b) < 1e-10 * a


def test_isometry_sin_and_odd_family():
    rng = random.Random(SEED + 1)
    f = rand_seq(rng, D2, family="odd")
    g = QF.qft_sin(f)
    assert g.family == "odd"
    a, b = f.weighted_norm_sq(), g.weighted_norm_sq()
    assert abs(a - b) < 1e-10 * a


def test_round_trip_cos():
    rng = random.Random(SEED + 2)
    for _ in range(3):
        f = rand_seq(rng, D2)
        back = QF.qft_cos_inverse(QF.qft_cos(f))
        assert (back - f).max_abs() < 1e-8


def test_round_trip_sin():
    rng = random.Random(SEED + 3)
    f = rand_seq(rng, D2)
    back = QF.qft_sin_inverse(QF.qft_sin(f))
    assert (back - f).max_abs() < 1e-8


def test_double_transform_is_identity():
    # the kernel matrix is symmetric, so forward twice also returns f
    rng = random.Random(SEED + 4)
    f = rand_seq(rng, D2)
    twice = QF.qft_cos(QF.qft_cos(f))
    assert (twice - f).max_abs() < 1e-8


def test_linearity():
    rng = random.Random(SEED + 5)
    f, g = rand_seq(rng, D2), rand_seq(rng, D2)
    a, b = 1.25 - 0.5j, -2.0 + 1.0j
    lhs = QF.qft_cos(f.scale(a) + g.scale(b))
    rhs = QF.qft_cos(f).scale(a) + QF.qft_cos(g).scale(b)
    assert (lhs - rhs).max_abs() < 1e-12 * max(1.0, rhs.max_abs())


def test_fat_tail_is_refused():
    ones = SublatticeSeq(D2, -10, np.ones(21, dtype=complex))
    with pytest.raises(NotConverged):
        QF.qft_cos(ones)


def test_tail_check_fails_on_nan_and_inf():
    # a NaN edge, a NaN inside, and an inf peak: no finite edge-to-peak
    # ratio exists, so the transform refuses rather than return NaN
    ks = range(-10, 11)
    decayed = np.array([2.0 ** -(k * k) for k in ks], dtype=complex)
    for at, bad in ((0, math.nan), (-1, math.nan), (5, math.nan),
                    (10, math.inf), (10, -math.inf)):
        values = decayed.copy()
        values[at] = bad
        seq = SublatticeSeq(D2, -10, values)
        for fn in (QF.qft_cos, QF.qft_sin):
            # an inf times the zero imaginary part makes a NaN: expected
            with pytest.raises(NotConverged), np.errstate(invalid="ignore"):
                fn(seq)


def test_family_and_window_mismatch_rejected():
    a = SublatticeSeq(D2, -5, np.zeros(11), family="even")
    b = SublatticeSeq(D2, -5, np.zeros(11), family="odd")
    with pytest.raises(ValueError):
        _ = a + b
    c = SublatticeSeq(D2, -4, np.zeros(10), family="even")
    with pytest.raises(ValueError):
        _ = a + c


def test_step_transform_matches_closed_form():
    ks = range(-10, 11)
    for M in (-1, 0, 2):
        direct = QF.step_transform(M, ks)
        for k in ks:
            want = QF.step_closed_form(M, k)
            assert abs(direct[k] - want) < 1e-8


def test_step_inverse_recovers_cut_off():
    for M in (0, 1):
        g = QF.step_inverse(M, range(-6, 7))
        for n in range(-6, 7):
            want = 1.0 if n <= M else 0.0
            assert abs(g[n] - want) < 1e-8


def test_step_shift_property():
    # raising the cut by one multiplies the shifted transform by q^2
    for k in range(-6, 7):
        lhs = QF.step_closed_form(1, k)
        rhs = D2.qpow(2) * QF.step_closed_form(0, k + 1)
        assert abs(lhs - rhs) < 1e-14 * max(1.0, abs(rhs))
    direct1 = QF.step_transform(1, range(-6, 7))
    direct0 = QF.step_transform(0, range(-5, 8))
    for k in range(-6, 7):
        assert abs(direct1[k] - D2.qpow(2) * direct0[k + 1]) < 1e-12


def test_weighted_norm_uses_family_weight():
    vals = np.zeros(5, dtype=complex)
    vals[2] = 2.0  # k = 0
    even = SublatticeSeq(D2, -2, vals, family="even")
    odd = SublatticeSeq(D2, -2, vals, family="odd")
    assert abs(even.weighted_norm_sq() - 4.0) < 1e-15
    assert abs(odd.weighted_norm_sq() - 4.0 * D2.q) < 1e-15


# -- the kernel sums against the per-term loops they replaced ----------------

# q = 2, q = 1.5, and a q drawn as the q-kernels benchmark draws the
# q of its eighth group: from [1.5, 4), its first draw at seed 1
LOOP_QS = (2.0, 1.5, 1.5 + (4.0 - 1.5) * random.Random(1).random() / 2)


def _bits(values):
    """Every bit of each double: signed zeros and NaN payloads included."""
    return [struct.pack("<d", v) for v in values]


def _loop_transform(qf, f, kind):
    """QFourier.transform with one kernel lookup per j."""
    sf = qf.sf
    k_idx = np.arange(f.k_min, f.k_max + 1)
    wf = np.array([qf.ctx.qpow(-2 * k) for k in range(f.k_min, f.k_max + 1)]) \
        * f.values
    j_lo, j_hi = 2 * f.k_min, 2 * f.k_max
    kern = np.array([(sf.cos_q if kind == "cos" else sf.sin_q)(
        qf.ctx.qpow(-2 * j)) for j in range(j_lo, j_hi + 1)])
    return qf._nq * (kern[np.add.outer(k_idx, k_idx) - j_lo] @ wf)


def _loop_weighted_norm_sq(f):
    acc = 0.0
    for k in range(f.k_min, f.k_max + 1):
        expo = -2 * k if f.family == "even" else -2 * k + 1
        acc += f.ctx.qpow(expo) * abs(f.values[k - f.k_min]) ** 2
    return acc


def _loop_step_transform(qf, M, k_indices):
    ctx, sf = qf.ctx, qf.sf
    n_min = qf._auto_floor()
    out = {}
    for k in k_indices:
        acc = 0.0
        for n in range(n_min, M + 1):
            acc += ctx.qpow(2 * n) * sf.cos_q(ctx.qpow(2 * (k + n)))
        out[k] = qf._nq * acc
    return out


def _loop_step_inverse(qf, M, n_indices):
    ctx, sf = qf.ctx, qf.sf
    k_min = qf._auto_floor() - abs(M)
    k_max = -qf._auto_floor() + abs(M)
    out = {}
    for n in n_indices:
        acc = 0.0
        for k in range(k_min, k_max + 1):
            acc += ctx.qpow(2 * k) * sf.cos_q(ctx.qpow(2 * (k + n))) \
                * qf.step_closed_form(M, k)
        out[n] = acc * qf._nq
    return out


@pytest.mark.parametrize("q", LOOP_QS)
def test_transforms_and_norms_equal_the_loops_bit_for_bit(q):
    ctx = QContext(q)
    qf = QFourier(ctx)
    rng = random.Random(SEED + 6)
    for kind, family in (("cos", "even"), ("sin", "odd")):
        for _ in range(2):
            f = rand_seq(rng, ctx, family=family)
            got = qf.transform(f, kind)
            want = _loop_transform(qf, f, kind)
            assert _bits(got.values.view(float)) == _bits(want.view(float))
            for seq in (f, got):
                assert _bits([seq.weighted_norm_sq()]) \
                    == _bits([_loop_weighted_norm_sq(seq)])
    # one site at a time: its weight reaches the norm unrounded
    for family in ("even", "odd"):
        for i in range(81):
            vals = np.zeros(81, dtype=complex)
            vals[i] = 1.0
            f = SublatticeSeq(ctx, -40, vals, family=family)
            assert _bits([f.weighted_norm_sq()]) \
                == _bits([_loop_weighted_norm_sq(f)])


def test_transform_weights_are_the_lattice_points():
    # at q = 1.5, k = 24 numpy's vectorised q ** (-2.0 * k) can differ
    # in the last bit from the q ** -48 of ctx.qpow (it does under AVX-512
    # dispatch); the kernel arguments q^-104 ... q^-88 keep every kernel
    # on this window finite
    ctx = QContext(1.5)
    qf = QFourier(ctx)
    rng = random.Random(SEED + 7)
    ks = range(20, 29)
    for kind, family in (("cos", "even"), ("sin", "odd")):
        f = SublatticeSeq(ctx, ks[0], [
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            * ctx.qpow(-6 * (k - 24) ** 2) for k in ks], family=family)
        got = qf.transform(f, kind).values
        want = _loop_transform(qf, f, kind)
        assert all(map(math.isfinite, got.view(float)))
        assert _bits(got.view(float)) == _bits(want.view(float))


@pytest.mark.parametrize("q", LOOP_QS)
def test_step_sums_equal_the_loops_bit_for_bit(q):
    qf = QFourier(QContext(q))
    ks = range(-10, 11)
    values = []
    # M = -60 lies below the sum's first site at every q here: empty sums
    for M in (-1, 0, 2, -60):
        got = qf.step_transform(M, ks)
        want = _loop_step_transform(qf, M, ks)
        assert list(got) == list(want)
        assert _bits(got.values()) == _bits(want.values())
        values += got.values()
    assert qf.step_transform(-60, ks) == dict.fromkeys(ks, 0.0)
    for M in (0, 1):
        got = qf.step_inverse(M, range(-6, 7))
        want = _loop_step_inverse(qf, M, range(-6, 7))
        assert list(got) == list(want)
        assert _bits(got.values()) == _bits(want.values())
        values += got.values()
    # the kernels at the exact lattice points keep every sum finite
    assert all(map(math.isfinite, values))


# -- the kernel matrix each instance keeps per kind --------------------------


@pytest.mark.parametrize("q", (2.0, 1.5, 3.0, 3.6931))
def test_reused_instance_equals_fresh_ones_bit_for_bit(q):
    # forward, inverse and double transforms on one instance, windows
    # alternating so the kept matrix is both reused and replaced
    ctx = QContext(q)
    reused = QFourier(ctx)
    rng = random.Random(SEED + 8)
    for kind in ("cos", "sin"):
        for family in ("even", "odd"):
            for k_lo, k_hi in ((-40, 40), (-40, 40), (-30, 34), (-40, 40)):
                f = SublatticeSeq(ctx, k_lo, [
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    * ctx.qpow(-((k - 2) ** 2))
                    for k in range(k_lo, k_hi + 1)], family=family)
                g = reused.transform(f, kind)
                back = reused.transform(g, kind)
                twice = reused.transform(reused.transform(f, kind), kind)
                for got, arg in ((g, f), (back, g), (twice, g)):
                    want = QFourier(ctx).transform(arg, kind)
                    assert (got.k_min, got.family) == (want.k_min, family)
                    assert _bits(got.values.view(float)) \
                        == _bits(want.values.view(float))


def test_a_new_window_replaces_the_kept_matrix():
    qf = QFourier(D2)
    rng = random.Random(SEED + 9)
    wide = rand_seq(rng, D2)
    narrow = SublatticeSeq(D2, -10, wide.values[30:51])
    qf.qft_cos(wide)
    qf.qft_sin(wide)
    held = weakref.ref(qf._last["cos"][2])
    assert held().shape == (81, 81)
    qf.qft_cos(narrow)
    gc.collect()
    # one matrix per kind: the wide cos matrix is gone, the sin one stays
    assert held() is None
    assert {kind: last[0] for kind, last in qf._last.items()} \
        == {"cos": (-10, 10), "sin": (-40, 40)}
    held = weakref.ref(qf._last["sin"][2])
    del qf
    gc.collect()
    assert held() is None


def test_tail_check_runs_before_the_kept_matrix():
    ks = range(-10, 11)
    decayed = np.array([2.0 ** -(k * k) for k in ks], dtype=complex)
    bad = [decayed.copy() for _ in range(3)]
    bad[0][5] = math.nan
    bad[1][10] = math.inf
    bad[2][:] = 1.0
    qf = QFourier(D2)
    for kind in ("cos", "sin"):
        qf.transform(SublatticeSeq(D2, -10, decayed), kind)
        kept = qf._last[kind]
        for values in bad:
            with pytest.raises(NotConverged), np.errstate(invalid="ignore"):
                qf.transform(SublatticeSeq(D2, -10, values), kind)
            assert qf._last[kind] is kept


def test_refused_transform_at_a_fresh_q_builds_no_kernel_row():
    special.clear_kernel_store()
    ctx = QContext(2.5)
    qf = QFourier(ctx)
    with pytest.raises(NotConverged):
        qf.qft_cos(SublatticeSeq(ctx, -10, np.ones(21)))
    # the weights q^(-2k) of the window, and no kernel row
    assert special.kernel_store_info()[2.5]["row_entries"] == 21
    assert qf._last == {}
