"""Sublattice transform: isometry, inversion, step function, serialization."""

import random

import numpy as np
import pytest

from qcalc.batteries import rand_seq
from qcalc.context import QContext
from qcalc.fourier import QFourier, SublatticeSeq, WindowTooSmall
from qcalc.integration import NotConverged

D2 = QContext(2.0)
QF = QFourier(D2)

SEED = 20260816


def test_zero_maps_to_zero():
    z = SublatticeSeq.zero(D2, -10, 10)
    for out in (QF.qft_cos(z), QF.qft_sin(z)):
        assert out.is_zero()
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


def test_tau_metadata_carried():
    rng = random.Random(SEED + 6)
    f = rand_seq(rng, D2)
    f.tau = 1
    g = QF.qft_cos(f)
    assert g.tau == 1
    h = f + g
    assert h.tau == 1
    other = rand_seq(rng, D2)
    other.tau = -1
    assert (f + other).tau is None


def test_family_and_window_mismatch_rejected():
    a = SublatticeSeq.zero(D2, -5, 5, family="even")
    b = SublatticeSeq.zero(D2, -5, 5, family="odd")
    with pytest.raises(ValueError):
        _ = a + b
    c = SublatticeSeq.zero(D2, -4, 5, family="even")
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


def test_step_window_guards():
    with pytest.raises(WindowTooSmall):
        QF.step_transform(0, range(-5, 6), n_min=-5)
    with pytest.raises(WindowTooSmall):
        QF.step_inverse(0, range(-3, 4), k_max=5)


def test_csv_round_trip():
    rng = random.Random(SEED + 7)
    f = rand_seq(rng, D2, k_lo=-12, k_hi=12, family="odd")
    text = f.to_csv()
    back = SublatticeSeq.from_csv(D2, text)
    assert back.family == "odd"
    assert back.k_min == f.k_min
    assert np.array_equal(back.values, f.values)
    with pytest.raises(ValueError):
        SublatticeSeq.from_csv(D2, "a,b\n1,2\n")


def test_weighted_norm_uses_family_weight():
    vals = np.zeros(5, dtype=complex)
    vals[2] = 2.0  # k = 0
    even = SublatticeSeq(D2, -2, vals, family="even")
    odd = SublatticeSeq(D2, -2, vals, family="odd")
    assert abs(even.weighted_norm_sq() - 4.0) < 1e-15
    assert abs(odd.weighted_norm_sq() - 4.0 * D2.q) < 1e-15
