"""q-special functions: combinatorics, series, constants, eigenvalue table."""

import cmath
import functools
import gc
import hashlib
import json
import math
import os
import random
import signal
import struct
import subprocess
import sys
import time
import weakref
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import libmp

import integer_series
from qcalc import batteries, fourier, special
from qcalc.batteries.doubles import (_kernels, _sampled_kernel, rand_seq,
                                     special_tables)
from qcalc.cli import main
from qcalc.context import QContext
from qcalc.fourier import QFourier
from qcalc.lattice import LatticeFn, LatticeGrid
from qcalc.oscillator import gaussian_fourier_pair
from qcalc.schrodinger import build_representation, stationary_state
from qcalc.special import (
    EIGEN_EXPONENT,
    DivergentProduct,
    OutOfRadius,
    SpecialFunctions,
    qfact,
    qpoch,
    qpoch_inf,
)
from test_fourier import forget_kept_matrices

EXACT = QContext(Fraction(3, 2))
D2 = QContext(2.0)
SF = SpecialFunctions(D2)


# -- combinatorics ----------------------------------------------------------


def test_qnum_and_factorial():
    assert EXACT.qnum(2) == EXACT.q + 1 / EXACT.q
    assert EXACT.qnum(0) == 0
    assert EXACT.qnum(-3) == -EXACT.qnum(3)
    assert qfact(EXACT, 0) == 1
    assert qfact(EXACT, 4) == EXACT.qnum(2) * EXACT.qnum(3) * EXACT.qnum(4)


def test_qpoch_basics():
    a = EXACT.qpow(-2)
    assert qpoch(a, a, 0) == 1
    assert qpoch(a, a, 2) == (1 - a) * (1 - a * a)


def test_pochhammer_identity_exact():
    # (q^-2; q^-2)_n == q^(-n(n+1)/2) lam^n [n]! for 0 <= n <= 12
    a = EXACT.qpow(-2)
    for n in range(0, 13):
        lhs = qpoch(a, a, n)
        rhs = EXACT.qpow(Fraction(-n * (n + 1), 2)) * EXACT.lam ** n \
            * qfact(EXACT, n)
        assert lhs == rhs


def test_qpoch_inf_guard():
    with pytest.raises(DivergentProduct):
        qpoch_inf(0.5, 1.0)
    assert abs(qpoch_inf(0.5, 0.0) - 0.5) < 1e-15
    assert qpoch(0.5, 0.25, math.inf) == qpoch_inf(0.5, 0.25)


# -- series values -----------------------------------------------------------


def test_series_bound_reported():
    v, bound = SF.cos_q(1.0, with_bound=True)
    assert bound < 1e-16 * max(1.0, abs(v))


def test_recurrences_on_even_lattice():
    # (1/z)(cos(z) - cos(z/q^2)) = -q^-2 sin(z/q^2)
    # (1/z)(sin(z) - sin(z/q^2)) = cos(z)
    q = D2.q
    for l in range(-6, 7):
        z = q ** (2 * l)
        r1 = (SF.cos_q(z) - SF.cos_q(z / q ** 2)) / z \
            + q ** -2 * SF.sin_q(z / q ** 2)
        r2 = (SF.sin_q(z) - SF.sin_q(z / q ** 2)) / z - SF.cos_q(z)
        assert abs(r1) < 1e-12
        assert abs(r2) < 1e-12


def test_recurrences_on_odd_lattice_points():
    q = D2.q
    for l in range(-5, 6):
        z = q ** (2 * l + 1)
        r = (SF.sin_q(z) - SF.sin_q(z / q ** 2)) / z - SF.cos_q(z)
        assert abs(r) < 1e-12 * max(1.0, abs(SF.cos_q(z)))


def test_large_argument_values_are_tiny_on_even_powers():
    # superexponential decay on the even sublattice
    assert abs(SF.cos_q(D2.qpow(20))) < 1e-12
    assert abs(SF.sin_q(D2.qpow(30))) < 1e-20
    assert SF.cos_q(D2.qpow(120)) == SF.cos_q(D2.qpow(120))  # a row entry


# -- the rows against the exact kernel at the exact lattice point ------------

# q = 2 puts every lattice point on a power of two; the others do not,
# and 50 has the steepest terms.
KERNEL_QS = (2.0, 1.5, 2.3943, 3.6931, 50.0)
# near q = 1 the two solutions of the recurrence separate slowly, and the
# even one turns minimal late (m_h = 71 at q = 1.01, 695 at q = 1.001)
ORACLE_QS = (1.001, 1.01, 1.05, 1.1, 1.5, 2.0, 2.3943, 3.0, 3.6931, 10.0,
             50.0)
ORACLE_BOTTOM, ORACLE_TOP = -40, 132


def _peak(q, z):
    """The series' peak estimate, log10 of its largest term."""
    return integer_series.peak_digits(q, math.log(z) / math.log(q))


def _working_digits(q, z):
    return max(50, int(_peak(q, z)) + 370)


def _reference(q, z, kind, digits):
    """Direct sum of (-1)^n q^(-2n(n+1)) z^k / (q^-2; q^-2)_k, k = 2n (cos)
    or 2n + 1 (sin), from running powers and the running product."""
    with mpmath.workdps(digits):
        p = mpmath.mpf(q) ** -2
        zm = mpmath.mpf(z)
        odd = kind == "sin"
        poch = 1 - p if odd else mpmath.mpf(1)
        p_k = p * p if odd else p      # p^(k+1), the next Pochhammer factor
        gauss = mpmath.mpf(1)          # q^(-2n(n+1)) = p^(n(n+1))
        zk = zm if odd else mpmath.mpf(1)
        z2 = zm * zm
        total = biggest = mpmath.mpf(0)
        tiny = mpmath.mpf(10) ** -digits
        n = 0
        while True:
            term = gauss * zk / poch
            total += -term if n % 2 else term
            biggest = max(biggest, abs(term))
            if z2 * p ** (2 * n) < 1 and term < tiny * biggest:
                return total
            n += 1
            gauss *= p ** (2 * n)
            zk *= z2
            poch *= (1 - p_k) * (1 - p_k * p)
            p_k *= p * p


@functools.lru_cache(maxsize=None)
def _exact_rows(q):
    """{(kind, m): the kernel at q^m, rounded once to a double} for m in
    [ORACLE_BOTTOM, ORACLE_TOP], summed in Python ints."""
    table = integer_series.SeriesCoefficients(q, integer_series.dps_to_prec(
        integer_series.exact_digits(q, ORACLE_TOP)))
    return {(kind, m): integer_series.exact_kernel(q, m, kind, table)
            for kind in ("cos", "sin")
            for m in range(ORACLE_BOTTOM, ORACLE_TOP + 1)}


def _assert_rows_exact(sf, q, top):
    """Both kinds' row entries of both parities from ORACLE_BOTTOM to top,
    bit for bit the exact kernels: signed zeros, subnormals and +-inf
    included."""
    exact = _exact_rows(q)
    for kind in ("cos", "sin"):
        for first in (ORACLE_BOTTOM, ORACLE_BOTTOM + 1):
            last = top - (top - first) % 2
            got = sf.kernel_row(kind, first, last)
            want = [exact[kind, m] for m in range(first, last + 1, 2)]
            assert _float_bits(got) == _float_bits(want), (q, kind, first)


@pytest.mark.parametrize("q", ORACLE_QS)
def test_large_argument_series_matches_reference(q):
    # every entry is the exact kernel at the lattice point, correctly
    # rounded; the series at the double q ** m, which the rows once read,
    # is astronomically wrong off the dyadic q past q^2 (-4.3e116 for
    # 2.7e-141 at q = 1.5, m = 40), and summed in doubles it was wrong
    # below q^2 too (cos_q(1) read -1.8e197 at q = 1.001, and entries up
    # to 1.7e9 ulps off at q = 50)
    special.clear_kernel_store()
    _assert_rows_exact(SpecialFunctions(QContext(q)), q, ORACLE_TOP)


def test_rows_near_q1_are_exact_for_every_row_top():
    # at q = 1.01 the even solution turns minimal at m_h = 71; a Miller
    # start a fixed 24 exponents above tops 72-76 left entries 140-3158
    # ulps off, so the start is taken from the dominance gained
    q = 1.01
    for top in range(72, 81):
        special.clear_kernel_store()
        _assert_rows_exact(SpecialFunctions(QContext(q)), q, top)


def test_seed_defect_fails_the_recurrence_gram_and_isometry_rows(
        monkeypatch):
    # a cos seed off by 1e-9 must show in the rows that read the kernels
    # as a whole: the recurrence where the forward pass meets Miller's,
    # the Gram sums, the transform isometries and the step transform's
    # closed form.  derivative-relations cannot see it: the rows are built
    # from that relation
    seed = special._seed
    off = special._div((10 ** 9 + 1, 0), special._fix(10 ** 9, 0))

    def skewed(q, z):
        cos, sin = seed(q, z)
        return special._mul(cos, off), sin

    monkeypatch.setattr(special, "_seed", skewed)
    special.clear_kernel_store()
    failed = set()
    for battery in ("special-tables", "fourier"):
        rows, _, _ = batteries.run(battery, {})
        failed |= {r["check"] for r in rows if not r["ok"]}
    special.clear_kernel_store()
    assert {"recurrences", "orthogonality-diagonal",
            "orthogonality-offdiagonal", "isometry-cos", "isometry-sin",
            "step-closed-form"} <= failed


@pytest.mark.parametrize("q, check", [("4", "orthogonality-offdiagonal"),
                                      ("1.05", "recurrences")])
def test_exact_low_entries_clear_the_special_tables_row(q, check, tmp_path,
                                                        capsys):
    # these rows failed on the entries m <= 2 summed in doubles: 2.9e-8 at
    # q = 4 and 3.4e-12 at q = 1.05 (q = 3 is pinned with the goldens)
    main(["special-tables", "--q", q, "--out", str(tmp_path)])
    capsys.readouterr()
    report = json.loads((tmp_path / "special-tables.json").read_text())
    assert {r["check"]: r["ok"] for r in report["checks"]}[check]


def test_spectrum_passes_at_the_q_floor(tmp_path, capsys):
    # at q = 1.001 the double series read cos_q(1) as -1.8e197 and the
    # spectrum exited 1
    assert main(["spectrum", "--q", "1.001", "--out", str(tmp_path)]) == 0
    capsys.readouterr()


@contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_large_argument_series_terminates_at_q50():
    # the seed sum stops on the fall of its terms and Miller's start on
    # the dominance gained; at q = 50 and 1e25 both come within a few
    # terms, and the rows run past the double range both ways
    for q in (50.0, 1e25):
        special.clear_kernel_store()
        sf = SpecialFunctions(QContext(q))
        with _deadline(20):
            for kind in ("cos", "sin"):
                for par in (0, 1):
                    row = sf.kernel_row(kind, par - 40, 40 - par).tolist()
                    assert not any(math.isnan(v) for v in row)


# seconds the integer series took for the cold rows below (the fastest of
# five runs, 2-core shared x86-64 host); the recurrence must not take
# longer
COLD_FILL_BUDGET_S = {1.5: 0.099, 1.001: 0.547, 50.0: 0.269}


def test_cold_rows_fill_in_time_at_q15():
    # both kinds and parities over m in [-160, 160], on a fresh store
    for q, budget in COLD_FILL_BUDGET_S.items():
        special.clear_kernel_store()
        sf = SpecialFunctions(QContext(q))
        start = time.perf_counter()
        rows = [sf.kernel_row(kind, par - 160, 160 - par)
                for kind in ("cos", "sin") for par in (0, 1)]
        took = time.perf_counter() - start
        assert took < budget, (q, took)
        assert not any(math.isnan(v) for row in rows for v in row.tolist())


def test_special_tables_beyond_double_range_exits_two(tmp_path, capsys):
    # q^-12 at q = 1e25 underflows to 0.0, and sin_q(0.0) used to hang;
    # now the battery refuses q before any sum runs, naming the flag
    with _deadline(60):
        assert main(["special-tables", "--q", "1e25",
                     "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("config error: q: ")


def _divided(x):
    """x to a double by int division alone, past the double range too."""
    try:
        return x[0] / (1 << -x[1]) if x[1] < 0 else float(x[0] << x[1])
    except OverflowError:
        return math.copysign(math.inf, x[0])


def test_to_double_rounds_as_int_division_at_both_range_edges():
    # the range check before the division must not move a bit: mantissas
    # of a pass (_BITS bits), ties at half the smallest subnormal and at
    # the top, and zero, with |x| just under and past 2^-1075 and 2^1024
    top = 1 << special._BITS
    rng = random.Random(11)
    mantissas = [0, 1, 3, top - 1, top >> 1, (top >> 1) + 1,
                 ((1 << 53) - 1) << (special._BITS - 53),
                 (((1 << 53) - 1) << (special._BITS - 53)) + 1]
    mantissas += [rng.getrandbits(special._BITS) | top >> 1
                  for _ in range(8)]
    for m in mantissas + [-m for m in mantissas]:
        for bits in list(range(-1080, -1070)) + list(range(1020, 1030)):
            x = (m, bits - m.bit_length())
            assert _float_bits([special._to_double(x)]) \
                == _float_bits([_divided(x)]), x


def test_rows_past_the_double_range_fill_in_time(tmp_path, capsys):
    # entries past the double range once cost a 2^|e| int each: this row
    # took about 7 s, and fourier --m-cut 20000 over 200 s to exit 2
    special.clear_kernel_store()
    sf = SpecialFunctions(QContext(2.0))
    with _deadline(5):
        row = sf.kernel_row("cos", -68, 16000)
    assert row[-1] == 0.0 and row[0] == 1.0
    with _deadline(20):
        assert main(["fourier", "--m-cut", "20000",
                     "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines()[-1] == \
        "config error: m_cut: q^(2 m_cut) overflows a double at q = 2.0, " \
        "m_cut = 20000"


# -- the integer series kept as the exact reference --------------------------


def _forward_sum(coeffs, odd, z, digits, peak):
    """The series summed term by term on the one scale 2^unit: each term a
    product of table entry 2n + odd and the exact power M^(2n) (times M
    for sin), rounded onto the scale from the leading bits of both, until
    the first term that rounds to zero or falls below 10^(5 - digits) of
    the running maximum.  Returns (value, first dropped term) as doubles."""
    man, exp = integer_series.odd_man_exp(z)
    unit = math.ceil(peak * integer_series.LOG2_10) \
        - integer_series.dps_to_prec(digits)
    stop = 10 ** (digits - 5)

    def on_scale(c, power, s):
        drop_c = max(0, -s - 3 - power.bit_length())
        drop_p = max(0, -s - 3 - c.bit_length())
        x, s = (c >> drop_c) * (power >> drop_p), s + drop_c + drop_p
        return x << s if s >= 0 else (x + (1 << (-s - 1))) >> -s

    power, power_exp = (man, exp) if odd else (1, 0)
    c, c_exp = coeffs.pair(odd)
    total = on_scale(c, power, c_exp + power_exp - unit)
    running_max = abs(total)
    n = 1
    while True:
        power *= man * man
        power_exp += 2 * exp
        c, c_exp = coeffs.pair(2 * n + odd)
        term = on_scale(c, power, c_exp + power_exp - unit)
        if not term or abs(term) * stop < running_max:
            return (integer_series.to_float(total, unit),
                    integer_series.to_float(abs(term), unit))
        total += term
        running_max = max(running_max, abs(total), abs(term))
        n += 1


def _horner_sum(table, odd, z, digits, peak):
    return integer_series.series_fixed(
        table, odd, *integer_series.odd_man_exp(z), digits, peak)


@pytest.mark.parametrize("q", KERNEL_QS)
def test_horner_sum_matches_the_forward_sum(q):
    # both sums on one table, built for the largest argument
    zs = [q ** m for m in range(60, 2, -1)]
    table = integer_series.SeriesCoefficients(
        q, integer_series.dps_to_prec(_working_digits(q, zs[0])))
    for z in zs:
        peak, digits = _peak(q, z), _working_digits(q, z)
        unit = math.ceil(peak * integer_series.LOG2_10) \
            - integer_series.dps_to_prec(digits)
        for odd, kind in enumerate(("cos", "sin")):
            got, bound = _horner_sum(table, odd, z, digits, peak)
            want, dropped = _forward_sum(table, odd, z, digits, peak)
            assert bound >= dropped, (q, z, kind)
            if got or want:
                assert got.hex() == want.hex(), (q, z, kind)
            elif math.copysign(1.0, got) != math.copysign(1.0, want):
                # the sign of a zero is the sign of rounding noise, and
                # only a value below the scale's unit rounds to zero
                ref = _reference(q, z, kind, 2 * digits)
                with mpmath.workdps(2 * digits):
                    assert abs(ref) < mpmath.ldexp(1, unit), (q, z, kind)


@pytest.mark.parametrize("q", (2.0, 1.5, 3.6931))
def test_horner_sum_within_two_units_of_its_table(q):
    # a peak estimate 30 digits high with 12 digits below it puts the
    # unit 2^unit near 1e-12, far above the ulp of most values, so the
    # sum's rounding (within one unit) shows in the double; the dropped
    # tail adds at most its first term, which is below 2^unit here
    for m in (5, 12, 21, 33):
        z = q ** m
        peak = _peak(q, z) + 30
        digits = int(peak) + 12
        unit = math.ceil(peak * integer_series.LOG2_10) \
            - integer_series.dps_to_prec(digits)
        table = integer_series.SeriesCoefficients(
            q, integer_series.dps_to_prec(digits))
        for odd, kind in enumerate(("cos", "sin")):
            val, bound = _horner_sum(table, odd, z, digits, peak)
            assert bound <= 2.0 ** unit, (q, m, kind)
            # the exact sum of the same table entries
            exact = Fraction(0)
            n = 0
            while True:
                c, e = table.pair(2 * n + odd)
                term = Fraction(c) * Fraction(2) ** e \
                    * Fraction(z) ** (2 * n + odd)
                exact += term
                if n > m and abs(term) < Fraction(2) ** (unit - 64):
                    break
                n += 1
            if math.isinf(val):
                assert abs(exact) > sys.float_info.max, (q, m, kind)
                continue
            err = abs(Fraction(val) - exact)
            assert err <= Fraction(2) ** (unit + 1) + Fraction(
                math.ulp(val)) / 2, (q, m, kind, float(err / 2 ** unit))


# -- integer arithmetic of the large-argument series -------------------------


def _mp_to_float(man, exp):
    """man 2^exp rounded once to a double by mpmath, to nearest with ties
    to even: to 53 bits, or in the subnormal range to the bits above
    2^-1075, so that ldexp is exact."""
    x = libmp.from_man_exp(man, exp)
    prec = min(53, exp + abs(man).bit_length() + 1074)
    if prec < 1:
        # below 2^-1074 only a value past the tie at 2^-1075 rounds up
        up = libmp.mpf_gt(libmp.mpf_abs(x), libmp.from_man_exp(1, -1075))
        return -5e-324 * up if man < 0 else 5e-324 * up
    return libmp.to_float(libmp.from_man_exp(man, exp, prec,
                                             libmp.round_nearest))


def _to_float_cases():
    rng = random.Random(7)
    cases = [(0, 0), (0, -5000), (1, 0), (-1, 0), (3, -1)]
    # ties: the 54th bit set and nothing below it, to an even and an odd
    # kept mantissa, and the carry into a new binade
    for kept in ((1 << 52) | 6, (1 << 52) | 7, (1 << 53) - 1):
        for exp in (-60, 0, 40):
            cases += [(2 * kept + 1, exp), (-(2 * kept + 1), exp)]
    # just off a tie, on both sides
    kept = (1 << 52) | 6
    cases += [((2 * kept + 1) << 8 | 1, -8), (((2 * kept + 1) << 8) - 1, -8)]
    # into the subnormal range, rounded once onto its spacing 2^-1074
    for exp in range(-1140, -1060, 3):
        for bits in (1, 20, 53, 54, 90):
            man = rng.getrandbits(bits) | (1 << (bits - 1))
            cases += [(man, exp), (-man, exp)]
    tie = (1 << 53) + 1  # a tie at 53 bits, inside the subnormal range
    cases += [(tie << 1 | 1, -1128), (tie, -1127), (-tie, -1126)]
    # a tie on the subnormal spacing, and just off one; 2^-1075 and below
    cases += [(3, -1075), (-3, -1075), (5, -1075), (1, -1075), (-1, -1075),
              (3, -1076), (((1 << 60) + 1), -1135), (1, -1200)]
    # near and past the top of the double range
    cases += [((1 << 54) - 1, 970), (-((1 << 54) - 1), 970),
              ((1 << 53) - 1, 971), (1, 1024), (-1, 1024), (5, 1100),
              (rng.getrandbits(300), 800), (-rng.getrandbits(300), 900)]
    # wide random mantissas across the range
    for _ in range(300):
        man = rng.getrandbits(rng.randint(1, 400)) * rng.choice((1, -1))
        cases.append((man, rng.randint(-1500, 1200)))
    return cases


def test_to_float_rounds_as_mpmath():
    cases = _to_float_cases()
    for man, exp in cases:
        want = _mp_to_float(man, exp)
        got = integer_series.to_float(man, exp)
        assert _float_bits([got]) == _float_bits([want]), (man, exp)
    got = {integer_series.to_float(man, exp) for man, exp in cases}
    assert {math.inf, -math.inf, 0.0} <= got
    assert any(0 < abs(x) < sys.float_info.min for x in got)


def test_dps_to_prec_matches_mpmath():
    for digits in range(50, 6000, 7):
        assert integer_series.dps_to_prec(digits) == libmp.dps_to_prec(digits)


def _mp_closed_form(q, prec, count):
    """Entries 0 ... count - 1 of the joint table, u_(2n) = c_n and
    u_(2n+1) = s_n, from (-1)^n q^(-2n(n+1)) / (q^-2; q^-2)_j at prec
    bits."""
    with mpmath.workprec(prec):
        p = mpmath.mpf(q) ** -2
        poch = mpmath.mpf(1)
        out = []
        for j in range(count):
            if j:
                poch *= 1 - p ** j
            n = j // 2
            out.append((-1) ** n * p ** (n * (n + 1)) / poch)
    return out


def _mp_table_bound(q, prec, count):
    """The relative error bound of entries 0 ... count - 1 that the
    SeriesCoefficients docstring derives, taking the power as rounded
    from the first step on, which also covers the exact steps (d_k = 0)."""
    wide = prec + integer_series.POWER_GUARD_BITS
    out = []
    with mpmath.workprec(4 * prec):
        eps, eps_wide = mpmath.ldexp(1, -prec), mpmath.ldexp(1, -wide)
        growth = mpmath.mpf(1)
        for j in range(count):
            if j:
                eta = (1 + eps_wide) ** j - 1
                d = (1 + eta / (1 - mpmath.mpf(q) ** (-2 * j))) \
                    * (1 + eps_wide) - 1
                growth *= (1 + eps) / (1 - d)
            out.append(growth - 1)
    return out


@pytest.mark.parametrize("q", [2.0, 1.5, 1.1, 10.0, 1.01])
def test_coefficient_table_within_its_bound_of_the_closed_form(q):
    count = 240  # c_n and s_n for n <= 119
    for prec in (integer_series.dps_to_prec(50),
                 integer_series.dps_to_prec(600)):
        table = integer_series.SeriesCoefficients(q, prec)
        # the reference at 4 prec bits is within 2^(-3 prec) of exact
        refs = _mp_closed_form(q, 4 * prec, count)
        bounds = _mp_table_bound(q, prec, count)
        with mpmath.workprec(4 * prec):
            slack = mpmath.ldexp(1, -3 * prec)
            for j, (ref, bound) in enumerate(zip(refs, bounds)):
                got, got_exp = table.pair(j)
                assert got % 2 == 1, (q, prec, j)
                err = abs(mpmath.ldexp(got, got_exp) - ref)
                assert err <= (bound + slack) * abs(ref), (q, prec, j)
                # the entry's sign: c_n and s_n alternate with n
                assert (got < 0) == (j // 2 % 2 == 1), (q, prec, j)


def _round_fraction(x, prec):
    """The nonzero Fraction x rounded to prec bits, ties to even."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    if abs(x) >= Fraction(2) ** e:
        e += 1  # now 2^(e - 1) <= |x| < 2^e
    ulp = Fraction(2) ** (e - prec)
    return round(x / ulp) * ulp


@pytest.mark.parametrize("q", [2.0, 1.5, 10.0])
def test_coefficient_table_rounds_each_step_once(q):
    # at these q the power q^(2j) and R_j stay exact up to j = 239 at this
    # precision, so each entry is the exact step from the one before it,
    # rounded once to nearest
    prec = integer_series.dps_to_prec(600)
    table = integer_series.SeriesCoefficients(q, prec)
    prev = Fraction(1)
    for j in range(1, 240):
        r = Fraction(q) ** (2 * j) - 1
        step = prev + prev / r if j % 2 else -prev / r
        got, got_exp = table.pair(j)
        prev = got * Fraction(2) ** got_exp
        assert prev == _round_fraction(step, prec), (q, j)


# SHA-256 of the hex kernel rows below at q = 2, captured when the row
# entries m <= 2 moved from the double series to the recurrence pass (the
# entries m >= 3 held every bit); the other q are held by the exact rows
# above
ROW_DIGEST = "0b69f6628ebffe2e0efe6fda06e32f30ef2b018b9ee68ae580e4f07ee5a919ec"


def test_kernel_rows_keep_their_bits():
    digest = hashlib.sha256()
    for q in (2.0,):
        special.clear_kernel_store()
        sf = SpecialFunctions(QContext(q))
        for kind in ("cos", "sin"):
            for lo, hi in ((-160, 160), (-41, 61)):
                row = sf.kernel_row(kind, lo, hi)
                digest.update((" ".join(v.hex() for v in row) + "\n").encode())
    assert digest.hexdigest() == ROW_DIGEST


def test_import_builds_no_store():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    script = ("import qcalc.fourier, qcalc.schrodinger\n"
              "from qcalc.special import kernel_store_info\n"
              "print(kernel_store_info())")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "{}"


# -- the kernel store shared per q -------------------------------------------

# the lattice-window benchmark's windows +-w, in the order it solves them
LADDER = (12, 16, 20, 24, 32, 40, 48)


def test_instances_at_one_q_share_one_table_per_kind():
    special.clear_kernel_store()
    zs = [2.0 ** m for m in range(41, 2, -2)]
    first = SpecialFunctions(QContext(2.0))
    second = SpecialFunctions(QContext(2.0))
    first.cos_q(zs[0])
    first.sin_q(zs[0])
    for z in zs[1:]:
        second.cos_q(z)
        second.sin_q(z)
    # one row per kind serves both instances, and so does N_q
    assert second._kernel_store() is first._kernel_store()
    assert first.n_q() == second.n_q()
    info = special.kernel_store_info()
    assert list(info) == [2.0]
    # each lookup grew its odd row by one entry, the next exponent down
    assert info[2.0] == {"row_entries": 2 * len(zs), "lookups": 2 * len(zs),
                         "misses": 2 * len(zs)}
    for z in zs:
        first.cos_q(z)
    info = special.kernel_store_info()[2.0]
    assert (info["lookups"], info["misses"]) == (3 * len(zs), 2 * len(zs))


def test_instances_at_different_q_never_share_values():
    special.clear_kernel_store()
    # the lattice points q^-1, 1, q and -q^2 of each q
    def points(q):
        return [q ** -1, 1.0, q, -q * q]

    sf2 = SpecialFunctions(QContext(2.0))
    sf3 = SpecialFunctions(QContext(3.0))
    got = {}
    for q, sf in ((2.0, sf2), (3.0, sf3)):
        got[q] = [fn(z) for z in points(q) for fn in (sf.cos_q, sf.sin_q)]
    assert sf2._kernel_store() is not sf3._kernel_store()
    assert sf2.n_q() != sf3.n_q()
    assert all(a != b for a, b in zip(got[2.0], got[3.0]))
    info = special.kernel_store_info()
    assert info[2.0]["lookups"] == info[3.0]["lookups"] == 2 * 4
    # each q reads as it does in a store that never held the other
    for q in (2.0, 3.0):
        special.clear_kernel_store()
        sf = SpecialFunctions(QContext(q))
        assert _float_bits(fn(z) for z in points(q)
                           for fn in (sf.cos_q, sf.sin_q)) \
            == _float_bits(got[q])


def test_kernel_store_stays_within_its_bounds():
    special.clear_kernel_store()
    qs = [1.5 + k / 8 for k in range(special.STORE_MAX_QS + 3)]
    first = SpecialFunctions(QContext(qs[0]))
    # an odd power past q^2: entries of a recurrence row
    z = qs[0] ** 7
    want = _float_bits([first.cos_q(z), first.sin_q(z)])
    for q in qs[1:]:
        SpecialFunctions(QContext(q)).cos_q(q ** 7)
        assert len(special.kernel_store_info()) <= special.STORE_MAX_QS
    assert list(special.kernel_store_info()) == qs[-special.STORE_MAX_QS:]
    rebuilt = SpecialFunctions(QContext(qs[0]))
    info = special.kernel_store_info()
    assert list(info) == qs[1 - special.STORE_MAX_QS:] + [qs[0]]
    assert info[qs[0]] == {"row_entries": 0, "lookups": 0, "misses": 0}
    assert _float_bits([rebuilt.cos_q(z), rebuilt.sin_q(z)]) == want
    # an instance whose q was dropped reads the reopened store
    assert first._kernel_store() is rebuilt._kernel_store()


@pytest.mark.parametrize("q", KERNEL_QS)
def test_kernel_values_do_not_depend_on_store_history(q):
    ctx = QContext(q)
    # lattice points within q^2 and past it, of both signs
    zs = [q ** m for m in range(-6, 41)] + [-q ** m for m in range(-6, 3)]
    special.clear_kernel_store()
    warm = SpecialFunctions(ctx)
    # warm the store as the lattice-window ladder does: stationary states
    # read the kernels at q^(n + e), |n| <= w, e = 0 ... 5, window by window
    for w in LADDER:
        for kind in ("cos", "sin"):
            warm.kernel_row(kind, -w, w + 4)
            warm.kernel_row(kind, 1 - w, w + 5)
    got = [fn(z) for z in zs for fn in (warm.cos_q, warm.sin_q)]
    special.clear_kernel_store()
    cold = SpecialFunctions(ctx)
    want = [fn(z) for z in reversed(zs) for fn in (cold.sin_q, cold.cos_q)]
    assert _float_bits(got) == _float_bits(want[::-1])


def test_representations_share_the_store_not_the_instance():
    ctx = QContext(2.0)
    a = build_representation(LatticeGrid(ctx, -12, 12))
    b = build_representation(LatticeGrid(ctx, -16, 16))
    assert a.sf is not b.sf
    assert a.sf._kernel_store() is b.sf._kernel_store()
    # a wrapper bound on one instance, as a tracing probe binds one,
    # leaves the other alone
    a.sf.cos_q = lambda z, with_bound=False: 0.0
    assert b.sf.cos_q(1.0) == SpecialFunctions(ctx).cos_q(1.0) != 0.0


# -- rows indexed by the lattice exponent -------------------------------------

# q = 2, q = 1.5, and a q drawn as the q-kernels benchmark draws the
# q of its eighth group: from [1.5, 4), its first draw at seed 1
ROW_QS = (2.0, 1.5, 1.5 + (4.0 - 1.5) * random.Random(1).random() / 2)


def _float_bits(values):
    """Every bit of each double: signed zeros and NaN payloads included."""
    return [struct.pack("<d", v) for v in values]


@pytest.mark.parametrize("q", ROW_QS)
def test_rows_equal_point_lookups_bit_for_bit(q):
    ctx = QContext(q)
    special.clear_kernel_store()
    sf = SpecialFunctions(ctx)
    rows = {(kind, par): sf.kernel_row(kind, par - 170, 170 - par)
            for kind in ("cos", "sin") for par in (0, 1)}
    points = {par: sf.point_row(par - 170, 170 - par) for par in (0, 1)}
    # one lookup per point, in a store that never held a row, largest
    # first: each grows its row by one entry
    special.clear_kernel_store()
    sf = SpecialFunctions(ctx)
    for (kind, par), row in rows.items():
        fn = sf.cos_q if kind == "cos" else sf.sin_q
        exps = range(170 - par, par - 171, -2)
        want = [fn(ctx.qpow(m)) for m in exps][::-1]
        assert _float_bits(row) == _float_bits(want), (kind, par)
        assert _float_bits(points[par]) == _float_bits(
            [ctx.qpow(m) for m in exps][::-1])
    values = [v for row in rows.values() for v in row.tolist()]
    # the rows cross the double range both ways; the kernels never
    # return NaN
    assert {math.inf, -math.inf, 0.0} <= set(values)
    assert not any(math.isnan(v) for v in values)
    if q == 2.0:
        # below the smallest double: negative zeros and a subnormal
        assert any(v == 0.0 and math.copysign(1.0, v) < 0 for v in values)
        assert any(0.0 < abs(v) < sys.float_info.min for v in values)


def test_row_reads_slice_the_stored_row():
    special.clear_kernel_store()
    sf = SpecialFunctions(QContext(2.0))
    row = sf.kernel_row("cos", -20, 20)
    part = sf.kernel_row("cos", -10, 4)
    assert _float_bits(part) == _float_bits(row[5:13])
    assert sf.kernel_row("sin", 3, 1).size == 0
    assert not row.flags.writeable
    with pytest.raises(ValueError):
        sf.kernel_row("cos", -3, 4)
    with pytest.raises(ValueError):
        sf.kernel_row("tan", 0, 4)


def test_kernel_store_info_counts_row_entries():
    special.clear_kernel_store()
    sf = SpecialFunctions(QContext(2.0))
    # a kernel row comes with its twin of the other kind
    sf.kernel_row("cos", -160, 160)
    assert special.kernel_store_info()[2.0]["row_entries"] == 2 * 161
    sf.point_row(-81, 79)
    assert special.kernel_store_info()[2.0]["row_entries"] == 2 * 161 + 81
    # a wider range grows both kernel rows by the exponents they lacked
    sf.kernel_row("cos", -170, 164)
    assert special.kernel_store_info()[2.0]["row_entries"] == 2 * 168 + 81
    sf.kernel_row("sin", -170, 164)
    assert special.kernel_store_info()[2.0] == {
        "row_entries": 2 * 168 + 81, "lookups": 4, "misses": 2 * 168 + 81}
    # other parity: rows of their own
    sf.kernel_row("sin", -3, 5)
    assert special.kernel_store_info()[2.0]["row_entries"] \
        == 2 * 168 + 81 + 2 * 5
    # a transform of k = -40 ... 40 that builds its matrix keeps the even
    # kernel rows at q^-2j, j = -80 ... 80, and its weights q^-2k in the
    # even point row; qcalc.fourier keeps its 81 x 81 kernel matrix
    special.clear_kernel_store()
    forget_kept_matrices()
    f = rand_seq(random.Random(5), QContext(2.0))
    assert (f.k_min, f.k_max) == (-40, 40)
    QFourier(QContext(2.0)).qft_cos(f)
    assert special.kernel_store_info()[2.0] == {
        "row_entries": 2 * 161 + 81, "lookups": 2, "misses": 2 * 161 + 81}
    assert fourier._KEPT[2.0, "cos"].matrix.shape == (81, 81)


def test_one_recurrence_pass_fills_both_kinds(monkeypatch):
    # each missing span of a parity costs one pass, whichever kind asked
    passes = []
    run = special._recurrence_row

    def counted(q, lo, hi):
        passes.append((lo, hi))
        return run(q, lo, hi)

    monkeypatch.setattr(special, "_recurrence_row", counted)
    for q in (1.5, 1.001):
        special.clear_kernel_store()
        sf = SpecialFunctions(QContext(q))
        cos = sf.kernel_row("cos", -11, 41)
        sin = sf.kernel_row("sin", -11, 41)
        sf.kernel_row("sin", -10, 40)
        sf.kernel_row("cos", -10, 60)
        # one pass per missing span, none for the empty span below -10
        assert passes == [(-11, 41), (-10, 40), (42, 60)], q
        passes.clear()
        # the twin row reads as if its own kind had asked first
        special.clear_kernel_store()
        sf = SpecialFunctions(QContext(q))
        assert _float_bits(sf.kernel_row("sin", -11, 41)) == _float_bits(sin)
        assert _float_bits(sf.kernel_row("cos", -11, 41)) == _float_bits(cos)
        passes.clear()


def test_rows_stay_within_the_store_bound():
    # q near 1: 2^15 steps of q stay inside the double range
    ctx = QContext(1.0001)
    special.clear_kernel_store()
    sf = SpecialFunctions(ctx)
    cap = special.STORE_MAX_VALUES
    even = sf.point_row(0, 2 * (cap // 2))
    assert special.kernel_store_info()[ctx.q]["row_entries"] == even.size
    # a second row would take the rows of this q past the bound: the
    # first goes, and the second is kept alone
    odd = sf.point_row(1, 1 + 2 * (cap // 2))
    assert special.kernel_store_info()[ctx.q]["row_entries"] == odd.size
    # a request longer than the bound is computed but not kept
    long_row = sf.point_row(-2 * cap, 0)
    assert long_row.size == cap + 1
    assert long_row[0] == ctx.qpow(-2 * cap) and long_row[-1] == 1.0
    assert special.kernel_store_info()[ctx.q]["row_entries"] == odd.size
    # growing a row past the bound keeps its request alone
    grown = sf.point_row(1, 1 + 2 * cap - 2)
    assert special.kernel_store_info()[ctx.q]["row_entries"] == grown.size
    grown = sf.point_row(-1, -1)
    assert special.kernel_store_info()[ctx.q]["row_entries"] == 1
    assert grown[0] == ctx.qpow(-1)


def test_an_evicted_store_is_let_go():
    special.clear_kernel_store()
    qs = [1.5 + k / 8 for k in range(special.STORE_MAX_QS + 1)]
    first = SpecialFunctions(QContext(qs[0]))
    want = _float_bits(first.kernel_row("sin", -9, 9))
    held = weakref.ref(first._kernel_store())
    for q in qs[1:-1]:
        SpecialFunctions(QContext(q))
    assert held() is first._kernel_store()
    # the eighth other q drops the store, though `first` still lives
    SpecialFunctions(QContext(qs[-1]))
    assert held() is None
    # and `first` opens its q afresh
    assert _float_bits(first.kernel_row("sin", -9, 9)) == want
    assert special.kernel_store_info()[qs[0]]["misses"] == 2 * 10


def test_rows_go_with_their_q():
    special.clear_kernel_store()
    qs = [1.5 + k / 8 for k in range(special.STORE_MAX_QS + 1)]
    first = SpecialFunctions(QContext(qs[0]))
    row = first.kernel_row("cos", -40, 40)
    want = _float_bits(row)
    held = weakref.ref(row.base)
    del row
    for q in qs[1:]:
        SpecialFunctions(QContext(q)).kernel_row("cos", -4, 4)
    assert qs[0] not in special.kernel_store_info()
    # the evicted store let go of its rows while `first` still lives
    gc.collect()
    assert held() is None
    assert _float_bits(first.kernel_row("cos", -40, 40)) == want
    assert special.kernel_store_info()[qs[0]]["row_entries"] == 2 * 41
    held = weakref.ref(first.kernel_row("cos", -40, 40).base)
    special.clear_kernel_store()
    gc.collect()
    assert held() is None and special.kernel_store_info() == {}


@pytest.mark.parametrize("q, m_max", [(1.5, 92), (3.0, 60)])
def test_lattice_lookups_read_the_row_entry(q, m_max):
    # past m = 88 (q = 1.5) and 54 (q = 3) the even entries underflow to
    # zero; the lookups come in a shuffled order, so rows grow both ways
    ctx = QContext(q)
    exps = list(range(-m_max, m_max + 1))
    random.Random(3).shuffle(exps)
    for rows_first in (False, True):
        special.clear_kernel_store()
        sf = SpecialFunctions(ctx)
        for kind, fn in (("cos", sf.cos_q), ("sin", sf.sin_q)):
            for m in exps:
                if rows_first:
                    want = sf.kernel_row(kind, m, m)[0]
                got = fn(ctx.qpow(m))
                if not rows_first:
                    want = sf.kernel_row(kind, m, m)[0]
                assert _float_bits([got]) == _float_bits([want]), (kind, m)
                neg = fn(-ctx.qpow(m))
                assert _float_bits([neg]) == _float_bits(
                    [-got if kind == "sin" else got]), (kind, m)
        assert special.kernel_store_info()[q]["row_entries"] == 2 * len(exps)


@pytest.mark.parametrize("q", (2.0, 1.5, 3.0))
def test_off_lattice_lookups_raise_and_keep_nothing(q):
    # the kernels are read at the lattice points +-q^m only: zero, a
    # subnormal, the doubles next to q^m, +-inf, NaN and a z whose q^m
    # overflows raise, and the store reads as before the call
    ctx = QContext(q)
    special.clear_kernel_store()
    sf = SpecialFunctions(ctx)
    sf.kernel_row("cos", -20, 20)
    sf.kernel_row("sin", -21, 21)
    before = special.kernel_store_info()
    zs = [0.0, -0.0, 1e-310, math.inf, -math.inf, math.nan,
          sys.float_info.max]
    for m in (-7, 0, 1, 2, 5, 12):
        for toward in (0.0, math.inf):
            z = math.nextafter(ctx.qpow(m), toward)
            zs += [z, -z]
    for z in zs:
        for fn in (sf.cos_q, sf.sin_q):
            for with_bound in (False, True):
                with pytest.raises(ValueError):
                    fn(z, with_bound)
    assert special.kernel_store_info() == before
    # each entry is the kernel rounded once: its bound is half an ulp,
    # and the smallest subnormal where the entry is zero
    exps = range(-100, 101)
    values = set()
    for fn in (sf.cos_q, sf.sin_q):
        for z in [ctx.qpow(m) for m in exps] + [-ctx.qpow(m) for m in exps]:
            val = fn(z)
            assert fn(z, True) == (val, max(math.ulp(val) / 2,
                                            math.ulp(0.0))), z
            values.add(val)
    assert 0.0 in values and math.inf in values


def _per_site(sf, grid, kind, y):
    """The kind's kernel at x y on every site x, one lookup each."""
    fn = sf.cos_q if kind == "cos" else sf.sin_q
    return [[fn(x * y) for x in row] for row in grid.points.tolist()]


def test_special_tables_rows_equal_per_site_sums_at_q2():
    # at q = 2 the products x y and z / q^2 are the lattice points
    special.clear_kernel_store()
    sf = SpecialFunctions(D2)
    q = D2.q
    for kind, fn in (("cos", sf.cos_q), ("sin", sf.sin_q)):
        for lo, hi in ((-12, 12), (-14, 12), (-9, 4), (3, 3)):
            want = [fn(q ** m) for m in range(lo, hi + 1)]
            assert _float_bits(_kernels(sf, kind, lo, hi)) == _float_bits(want)
        shifted = [fn(q ** m / q ** 2) for m in range(-12, 13)]
        assert _float_bits(_kernels(sf, kind, -14, 10)) == _float_bits(shifted)
        for n_min, n_max in ((-8, 8), (-7, 10)):
            grid = LatticeGrid(D2, n_min, n_max)
            for y_exp in (0, 1, 3):
                got = _sampled_kernel(sf, grid, kind, y_exp).data
                want = LatticeFn(grid, _per_site(sf, grid, kind,
                                                 D2.qpow(y_exp))).data
                assert got.tobytes() == want.tobytes(), (kind, y_exp)


# -- normalization constant and orthogonality --------------------------------


def test_n_q_matches_direct_product():
    q = D2.q
    acc = 1.0
    k = 0
    while True:
        num = 1 - q ** (-2 - 4 * k)
        den = 1 - q ** (-4 - 4 * k)
        if abs(num - 1) < 1e-18 and abs(den - 1) < 1e-18:
            break
        acc *= num / den
        k += 1
    assert abs(SF.n_q() - acc) < 1e-12
    assert SF.n_q() > 0


def test_orthogonality_diagonal_small_window():
    # sum_k q^-2k cos_q(q^-2(k+n))^2 == q^2n / N_q^2
    q = D2.q
    for n in (-2, 0, 1):
        acc = 0.0
        for k in range(-40, 41):
            c = SF.cos_q(q ** (-2 * (k + n)))
            acc += q ** (-2 * k) * c * c
        want = q ** (2 * n) / SF.n_q() ** 2
        assert abs(acc - want) < 1e-10 * want


def test_orthogonality_offdiagonal_small_window():
    q = D2.q
    acc = 0.0
    for k in range(-40, 41):
        acc += q ** (-2 * k) * SF.sin_q(q ** (-2 * k)) * SF.sin_q(q ** (-2 * (k + 2)))
    assert abs(acc) < 1e-10


# -- q-exponential ------------------------------------------------------------


def test_q_exp_values():
    assert SF.q_exp(0.0) == 1.0
    z = 1e-9
    assert abs(SF.q_exp(z) - (1 + z / (1 - D2.qpow(-2)))) < 1e-17
    with pytest.raises(OutOfRadius):
        SF.q_exp(1.0)
    with pytest.raises(OutOfRadius):
        SF.q_exp(-1.2j)


def test_q_exp_functional_equation():
    # e(z/q^2) = (1 - z) e(z) inside the radius
    for z in (0.3, -0.7, 0.5j, 0.4 - 0.3j):
        lhs = SF.q_exp(z * D2.qpow(-2))
        rhs = (1 - z) * SF.q_exp(z)
        assert abs(lhs - rhs) < 1e-14 * max(1.0, abs(rhs))


def test_q_exp_stops_once_its_sum_is_no_longer_finite():
    # near q = 1 the terms overflow to inf, then NaN, and never fall
    # below the stop rule
    with _deadline(1):
        value = SpecialFunctions(QContext(1.001)).q_exp(1j * 1.001 ** -17)
    assert not cmath.isfinite(value)
    # and the residuals built on it fail closed
    with _deadline(5):
        report = gaussian_fourier_pair(QContext(1.001))
    assert not math.isfinite(report["max_rel"])


# -- lattice Gaussian ---------------------------------------------------------


def test_gaussian_values():
    assert SF.lattice_gaussian(0) == 1.0
    assert SF.lattice_gaussian(0, 2.5) == 2.5
    assert abs(SF.lattice_gaussian(3) - D2.qpow(-6)) < 1e-15
    # l and -(l+1) give equal values: l^2 + l is symmetric
    for l in range(0, 6):
        assert SF.lattice_gaussian(l) == SF.lattice_gaussian(-l - 1)


def test_gauss_sum_constants_cross_validate():
    out = SF.gauss_sum_constants()
    direct, product = out["c0_tilde"]
    assert abs(direct - product) < 1e-12 * direct
    direct_p, product_p = out["c0_prime"]
    assert abs(direct_p - product_p) < 1e-12 * direct_p
    scaled = SF.gauss_sum_constants(c0=2.0)
    assert abs(scaled["c0_tilde"][0] - 2 * direct) < 1e-12


# -- derivative relations on the lattice ------------------------------------


def _sample(grid, fn):
    return LatticeFn(grid, [[fn(x) for x in row] for row in grid.points.tolist()])


def test_derivative_relations_on_lattice():
    # nabla cos_q(xy) = -lam^-1 q^-1 y L sin_q(xy)
    # nabla sin_q(xy) = +lam^-1 q   y L^-1 cos_q(xy)
    grid = LatticeGrid(D2, -8, 8)
    for y_exp in (0, 1, 3):
        y = D2.qpow(y_exp)
        cos_f = _sample(grid, lambda x: SF.cos_q(x * y))
        sin_f = _sample(grid, lambda x: SF.sin_q(x * y))
        lhs_c = cos_f.nabla_fn()
        rhs_c = sin_f.L_shift(1).scale(-D2.inv_lam / D2.q * y)
        lhs_s = sin_f.nabla_fn()
        rhs_s = cos_f.L_shift(-1).scale(D2.inv_lam * D2.q * y)
        diff_c = lhs_c - rhs_c
        diff_s = lhs_s - rhs_s
        scale = max(rhs_c.max_abs_interior(), rhs_s.max_abs_interior(), 1.0)
        assert diff_c.max_abs_interior() < 1e-10 * scale
        assert diff_s.max_abs_interior() < 1e-10 * scale


def test_nabla2_eigenvalue_relation_on_lattice():
    grid = LatticeGrid(D2, -8, 8)
    y = D2.qpow(1)
    cos_f = _sample(grid, lambda x: SF.cos_q(x * y))
    sin_f = _sample(grid, lambda x: SF.sin_q(x * y))
    lhs_c = cos_f.nabla2_fn()
    rhs_c = cos_f.scale(-y * y * D2.inv_lam ** 2 / D2.q)
    lhs_s = sin_f.nabla2_fn()
    rhs_s = sin_f.scale(-y * y * D2.inv_lam ** 2 * D2.q)
    lo, hi = lhs_c.valid_window()
    for s in grid.sectors:
        for n in range(lo, hi + 1):
            for lhs, rhs in ((lhs_c, rhs_c), (lhs_s, rhs_s)):
                a = lhs.value(s, n)
                b = rhs.value(s, n, require_valid=False)
                if abs(a) < 1e-200 and abs(b) < 1e-200:
                    continue
                assert abs(a - b) < 1e-9 * max(abs(a), abs(b))


# -- eigenvalue table ---------------------------------------------------------


def nabla2_eigenvalue(family, label, n):
    return -D2.inv_lam ** 2 * D2.qpow(4 * n + EIGEN_EXPONENT[family, label])


def test_eigenvalue_table():
    lam2 = D2.inv_lam ** 2
    assert set(EIGEN_EXPONENT) == {(f, lab) for f in "CS"
                                   for lab in ("2n+1", "2n")}
    assert nabla2_eigenvalue("C", "2n+1", 0) == -lam2 * D2.q
    assert nabla2_eigenvalue("S", "2n", 0) == -lam2 * D2.q
    assert nabla2_eigenvalue("C", "2n", 1) == -lam2 * D2.qpow(3)
    assert nabla2_eigenvalue("S", "2n+1", 1) == -lam2 * D2.qpow(7)
    # the stationary states' energies read the same table
    rep = build_representation(LatticeGrid(D2, -12, 12))
    for (family, label) in EIGEN_EXPONENT:
        for n in (-1, 0, 2):
            _, energy = stationary_state(rep, family, label, n, mass=0.5)
            assert energy == -nabla2_eigenvalue(family, label, n)


def test_eigenvalue_table_consistent_with_pointwise_relation():
    # y = q^(2n+1) in the cos family reproduces the C_{2n+1} entry
    for n in (-1, 0, 2):
        y = D2.qpow(2 * n + 1)
        want = -D2.inv_lam ** 2 / D2.q * y * y
        assert abs(nabla2_eigenvalue("C", "2n+1", n) - want) < 1e-12 * abs(want)
        y = D2.qpow(2 * n)
        want = -D2.inv_lam ** 2 * D2.q * y * y
        assert abs(nabla2_eigenvalue("S", "2n", n) - want) < 1e-12 * abs(want)
