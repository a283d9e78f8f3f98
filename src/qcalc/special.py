"""q-special functions: cos_q, sin_q, the q-exponential, lattice Gaussian.

cos_q(z) = sum_n c_n z^(2n) and sin_q(z) = sum_n s_n z^(2n+1), with
c_n = (-1)^n q^(-2n(n+1)) / (q^-2; q^-2)_(2n) and s_n the same over
(q^-2; q^-2)_(2n+1).  The coefficients decay superexponentially, so a
truncated sum is accurate to its first dropped term, which is returned as
the bound.  Arguments up to q^2 use a plain double loop.

For large arguments z = q^m the terms peak near q^((m-1)^2/2) before the
decay sets in, far beyond double range, while the sum itself is tiny.
Such a sum needs about peak + 370 significant digits.  The coefficients
of both kinds are integer (mantissa, exponent) pairs in one table, each
from the one before by one division (see _SeriesCoefficients), built at
the largest precision any call at this q has needed so far (with
headroom, so that rising arguments do not rebuild the table on every
call).
The series is summed by Horner's rule in Python ints.  With z = M 2^E, M
odd, and b the bit length of M^2 (at most 106), level k holds the tail
S_k = sum_(n >= k) c_n z^(2(n - k)) on its own fixed-point scale
2^(U - k(2E + b)), so that S_(k-1) = round(S_k M^2 / 2^b) + c_(k-1)
rounded onto that scale: each term costs one product of the running sum
by the small M^2 (M = 1 on a power of two z, as at every lattice point
at q = 2) and two shifts.  Each level adds at most one unit of its
scale and M^2 / 2^b < 1 shrinks what it carries, so S_0 is within N + 1
units of 2^U; U sits that far (and for sin, which returns z S_0, a
further factor z) below the scale 2^unit that lies the working precision
under the peak estimate.  The value is thus within 2^unit, about
10^-370, of the exact series at the given double z, far below the
smallest double: it is that series rounded to nearest (within the
bound), and a sum beyond double range becomes +-inf.  N, the last term
kept, is fixed before any product from the bit lengths of the table:
term n lies within a factor 2 below 2^t, t = bits(C_n) + e_n +
(2n or 2n + 1) log2 z.  The sum keeps every term up to the first that is
below 2^unit or below 10^(5 - digits) of the largest term before it, and
returns 2^ceil(t) of that first dropped term as the bound.
On the even sublattice far out, where the value underflows any double,
the series is skipped and exact zero returned; that test reads the
integer exponent of a lattice point, so off the lattice every sum runs.

The kernels, their coefficient table and N_q depend on q alone, so every
SpecialFunctions at one q reads and writes one module-level kernel store.
The store caches values only as rows: the lattice points q^m, or cos_q or
sin_q at them, for every m of one parity across a range, as a float
array indexed by the exponent.  `kernel_row` and `point_row` slice them,
and grow a row to a wider range by evaluating only the exponents it
lacks, largest argument first, each kernel entry by one sum at the
double q ** m.  cos_q and sin_q at z read row entry m, and apply the
sign, when |z| is exactly the double q ** m with m = round(log|z| /
log q); anywhere else, and whenever the bound is asked for, they sum the
series at z and cache nothing.  The store is bounded: it keeps at most
STORE_MAX_QS values of q, dropping the least recently opened, and at most
STORE_MAX_VALUES row entries per q: a row that would pass that drops
every row of its q first, and a request longer than it is returned
without being kept.  A dropped q lets go of its rows and table.  An
instance opens the store of its q when it is made, and again on its next
lookup once the store has dropped that q.  `kernel_store_info` reports
the sizes, the row reads and the row entries evaluated;
`clear_kernel_store` empties the store.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from fractions import Fraction

import numpy as np

_FLOAT_STOP = 1e-16
_GUARD_DIGITS = 40
_POWER_GUARD_BITS = 32
_LOG2_10 = math.log2(10.0)

# Bounds of the kernel store: values of q kept, and row entries per q.
STORE_MAX_QS = 8
STORE_MAX_VALUES = 1 << 14

_EMPTY = np.empty(0)
_EMPTY.flags.writeable = False


# The basis member family_label(n), the cos_q or sin_q kernel at y x on
# one parity family of sites, is a nabla^2 eigenfunction with eigenvalue
# -lam^-2 q^e, e = 4n + EIGEN_EXPONENT[family, label].
EIGEN_EXPONENT = {("C", "2n+1"): 1, ("C", "2n"): -1,
                  ("S", "2n+1"): 3, ("S", "2n"): 1}


class DivergentProduct(Exception):
    """Infinite q-Pochhammer product with |p| >= 1."""


class OutOfRadius(Exception):
    """q-exponential series argument on or outside the unit circle."""


class QCombinatorics:
    """[n], [n]!, and (a; p)_n over a QContext, with per-instance caches."""

    def __init__(self, ctx):
        self.ctx = ctx
        self._fact = {0: Fraction(1) if ctx.exact else 1 + 0j}

    def qfact(self, n):
        if n < 0:
            raise ValueError("q-factorial needs n >= 0")
        if n not in self._fact:
            top = max(self._fact)
            acc = self._fact[top]
            for k in range(top + 1, n + 1):
                acc = acc * self.ctx.qnum(k)
                self._fact[k] = acc
        return self._fact[n]

    def qpoch(self, a, p, n):
        """(a; p)_n = prod_{k<n} (1 - a p^k)."""
        if n == math.inf:
            return self.qpoch_inf(a, p)
        if n < 0:
            raise ValueError("Pochhammer index must be >= 0 or inf")
        acc = Fraction(1) if self.ctx.exact else 1.0
        f = a
        for _ in range(n):
            acc = acc * (1 - f)
            f = f * p
        return acc

    def qpoch_inf(self, a, p):
        if self.ctx.exact:
            raise ValueError("infinite products need the double backend")
        if abs(p) >= 1:
            raise DivergentProduct(f"|p| = {abs(p)} >= 1")
        acc = 1.0
        f = a
        while abs(f) > 1e-18:
            acc *= 1 - f
            f *= p
        return acc


def _series_float(q, z, kind):
    """Double-precision alternating series; returns (value, first dropped)."""
    qm2 = q ** (-2.0)
    if kind == "cos":
        term = 1.0
        next_den_k = 1  # next denominator factors are (1-q^-2k) for k = 1, 2
    else:
        term = z / (1.0 - qm2)
        next_den_k = 2
    total = term
    running_max = abs(term)
    n = 0
    while True:
        # t_{n+1}/t_n = -q^(-4(n+1)) z^2 / ((1-q^-2j)(1-q^-2(j+1)))
        d1 = 1.0 - q ** (-2.0 * next_den_k)
        d2 = 1.0 - q ** (-2.0 * (next_den_k + 1))
        term = -term * q ** (-4.0 * (n + 1)) * z * z / (d1 * d2)
        # a zero term stops too: when _FLOAT_STOP * running_max underflows
        # to 0.0 (z = 0, subnormal z) no term is ever below it
        if not term or abs(term) < _FLOAT_STOP * running_max:
            return total, abs(term)
        total += term
        running_max = max(running_max, abs(total), abs(term))
        n += 1
        next_den_k += 2


def _round(man, exp, prec):
    """(M, E) with M odd and M 2^E the nonzero man 2^exp rounded to prec
    bits, ties to even."""
    mag = abs(man)
    drop = mag.bit_length() - prec
    if drop > 0:
        half = mag >> (drop - 1)  # the kept bits, then the half bit
        up = half & 1 and (half & 2 or mag & ((1 << (drop - 1)) - 1))
        mag = (half >> 1) + (1 if up else 0)
        man = -mag if man < 0 else mag
        exp += drop
    zeros = (man & -man).bit_length() - 1
    return man >> zeros, exp + zeros


class _SeriesCoefficients:
    """c_n and s_n of one q as pairs (M, E), M odd, meaning M 2^E at prec
    bits: entry j = 2n is c_n and entry j = 2n + 1 is s_n.

    With R_j = q^(2j) - 1, each factor 1 - q^(-2j) of the Pochhammer
    symbols is R_j / q^(2j), so from u_0 = 1 the entries follow by
    s_n = c_n + c_n / R_(2n+1) and c_(n+1) = -s_n / R_(2n+2), computed on
    first use.  Each costs one division and is rounded once to prec bits,
    to nearest with ties to even; a sticky bit on an inexact quotient
    makes that rounding correct.  The power q^(2j) takes one product by
    the square of q's odd mantissa per step: it is exact until it passes
    P = prec + _POWER_GUARD_BITS bits, and rounded to P bits after.  R_j
    is formed from it exactly, then rounded to P bits.

    Error bound: the power is rounded at most j times, so R_j carries a
    factor 1 + d_j, |d_j| <= (1 + ((1 + 2^-P)^j - 1) / (1 - q^(-2j)))
    (1 + 2^-P) - 1, and d_j = 0 while both are exact.  That moves -1 / R_j
    and 1 + 1 / R_j by a factor within 1 / (1 - |d_j|) of 1, and the
    rounding of entry j by one within 2^-prec of 1, so entry j is within
    ((1 + 2^-prec)^j prod_(k<=j) 1 / (1 - |d_k|) - 1) |u_j| of the exact
    u_j: about j units in its last place while the power is exact.
    """

    def __init__(self, q, prec):
        self.prec = prec
        self.pairs = [(1, 0)]
        man, exp = _odd_man_exp(q)
        self._q2 = (man * man, 2 * exp)  # q^2, exact
        self._power = (1, 0)  # q^(2j) of the last entry j

    def pair(self, j):
        """(U, e) with u_j = U 2^e."""
        pairs = self.pairs
        prec = self.prec
        wide = prec + _POWER_GUARD_BITS
        q2, q2_exp = self._q2
        while len(pairs) <= j:
            k = len(pairs)
            pw, pw_exp = self._power = _round(self._power[0] * q2,
                                              self._power[1] + q2_exp, wide)
            r, r_exp = _round((pw << pw_exp) - 1 if pw_exp >= 0
                              else pw - (1 << -pw_exp), min(pw_exp, 0), wide)
            a, a_exp = pairs[-1]
            # at least prec + 2 bits of quotient, on a scale that holds a
            shift = prec - a.bit_length() + 2 + max(r.bit_length(), -r_exp)
            quot, rem = divmod(a << shift, r)
            man = 2 * quot + (rem != 0)
            if k % 2:
                man += a << (shift + r_exp + 1)
            else:
                man = -man
            pairs.append(_round(man, a_exp - r_exp - shift - 1, prec))
        return pairs[j]


def _odd_man_exp(x):
    """(M, E) with x = M 2^E and M odd (x a positive double)."""
    frac, exp = math.frexp(x)
    man = int(frac * 2.0 ** 53)
    zeros = (man & -man).bit_length() - 1
    return man >> zeros, exp - 53 + zeros


def _to_float(man, exp):
    """man 2^exp rounded to 53 bits, ties to even, then to a double: +-inf
    past the top, and a subnormal rounded again by ldexp."""
    if not man:
        return 0.0
    man, exp = _round(man, exp, 53)
    try:
        return math.ldexp(man, exp)
    except OverflowError:
        return math.copysign(math.inf, man)


def _dps_to_prec(digits):
    """Bits that hold `digits` decimal digits."""
    return round((digits + 1) * 3.3219280948873626)


def _series_fixed(coeffs, odd, z, digits, peak):
    """Large-argument series by Horner's rule on per-level fixed-point
    scales, as the module docstring describes: cos_q with odd = 0, sin_q
    with odd = 1, term n reading table entry 2n + odd.

    2^unit sits the precision of `digits` digits below the peak estimate
    (log10 of the largest term), and coeffs must hold at least that
    precision.  Returns (value, bound) as doubles.
    """
    man, exp = _odd_man_exp(z)
    unit = math.ceil(peak * _LOG2_10) - _dps_to_prec(digits)
    stop_bits = (digits - 5) * _LOG2_10
    log2_z = math.log2(z)
    # term n lies in [2^(t - 1), 2^t); n ends as N + 1, the first dropped
    pairs = coeffs.pairs
    top = -math.inf
    n = 0
    while True:
        j = 2 * n + odd
        c, e = pairs[j] if j < len(pairs) else coeffs.pair(j)
        t = c.bit_length() + e + j * log2_z
        if n and (t < unit or t + stop_bits < top):
            break
        if t > top:
            top = t
        n += 1
    bound = _to_float(1, math.ceil(t))
    man2 = man * man
    b = man2.bit_length()
    half = 1 << (b - 1)
    step = 2 * exp + b
    scale = unit - n.bit_length()  # U: n = N + 1 roundings of one unit
    if odd:
        scale -= exp + man.bit_length()  # z < 2^(E + bits(M))
    acc = 0  # S_k on the scale 2^(scale - k step)
    for k in range(n - 1, -1, -1):
        c, e = pairs[2 * k + odd]
        s = e + k * step - scale  # c_k in units of level k, halves up
        acc = ((acc * man2 + half) >> b) \
            + (c << s if s >= 0 else ((c >> (-s - 1)) + 1) >> 1)
    if odd:
        return _to_float(man * acc, exp + scale), bound
    return _to_float(acc, scale), bound


class _KernelStore:
    """What the kernels at one q share: the rows, the coefficient table of
    both kinds, N_q, and the counts of row reads and of row entries
    evaluated.

    rows maps (kind, parity) to (m_lo, array): kind is "point", "cos" or
    "sin", and entry i of the read-only array belongs to m_lo + 2 i.
    """

    __slots__ = ("rows", "table", "nq", "lookups", "misses", "dropped")

    def __init__(self):
        self.rows = {}
        self.table = None
        self.nq = None
        self.lookups = 0
        self.misses = 0
        self.dropped = False  # set once the store lets go of it

    def drop(self):
        """Let go of every row and the table; holders reopen their q."""
        self.rows.clear()
        self.table = None
        self.dropped = True

    def row_entries(self):
        return sum(vals.size for _, vals in self.rows.values())


_STORES = OrderedDict()  # q -> _KernelStore, least recently opened first


def _open_store(q):
    """The store of q, made if absent and marked most recently opened."""
    store = _STORES.get(q)
    if store is None:
        store = _STORES[q] = _KernelStore()
        if len(_STORES) > STORE_MAX_QS:
            _STORES.popitem(last=False)[1].drop()
    else:
        _STORES.move_to_end(q)
    return store


def clear_kernel_store():
    """Empty the kernel store: every row, table and count at every q."""
    for store in _STORES.values():
        store.drop()
    _STORES.clear()


def kernel_store_info():
    """{q: {row_entries, lookups, misses, table_prec}} over the stored q,
    least recently opened first; row_entries counts the entries of every
    row, lookups the row reads, misses the row entries evaluated, and
    table_prec maps each kind to the precision in bits of the coefficient
    table both kinds read, None before the first build."""
    return {q: {"row_entries": store.row_entries(),
                "lookups": store.lookups,
                "misses": store.misses,
                "table_prec": dict.fromkeys(
                    ("cos", "sin"),
                    store.table.prec if store.table else None)}
            for q, store in _STORES.items()}


class SpecialFunctions:
    """Evaluators over one double-backend context; kernel values, the
    coefficient table and N_q live in the kernel store of its q."""

    def __init__(self, ctx):
        if ctx.exact:
            raise ValueError("special-function evaluation uses the double backend")
        self.ctx = ctx
        self.comb = QCombinatorics(ctx)
        self._store = _open_store(ctx.q)
        self._log_q = math.log(ctx.q)

    def _kernel_store(self):
        """The store of this q, reopened if the store has dropped it."""
        if self._store.dropped:
            self._store = _open_store(self.ctx.q)
        return self._store

    # -- trigonometric family ---------------------------------------------

    def _kernel(self, kind, z, with_bound):
        """cos_q or sin_q at z: a row entry at a lattice point, else (or
        with the bound) one sum at z, as the module docstring says."""
        z = float(z)
        sign = math.copysign(1.0, z) if kind == "sin" else 1.0
        z = abs(z)
        m = round(math.log(z) / self._log_q) if z else None
        try:
            on = m is not None and self.ctx.q ** m == z
        except OverflowError:  # z near the top rounds m past the double range
            on = False
        if not on or with_bound:
            val, bound = self._series(kind, z, m if on else None)
            return (sign * val, bound) if with_bound else sign * val
        # the row hit inline, as _row would find it: every lattice call
        # runs this; a dropped store holds no rows, so _row reopens it
        store = self._store
        lo, vals = store.rows.get((kind, m % 2), (0, _EMPTY))
        i = (m - lo) // 2
        if 0 <= i < vals.size:
            store.lookups += 1
            return sign * vals.item(i)
        return sign * self._row(kind, m, m).item(0)

    def _series(self, kind, z, m):
        """(value, bound) of the kernel at z >= 0, summed; m is the exponent
        when z is the lattice point q ** m, else None."""
        q = self.ctx.q
        if z <= q * q:
            return _series_float(q, z, kind)
        # On the even sublattice the value decays like q^(-m^2/2) times a
        # bounded constant; once even half that decay underflows any
        # double, skip the high-precision work and return exact zero.
        if (m is not None and m % 2 == 0
                and (m * m / 4.0) * math.log10(q) > 340.0):
            return 0.0, 0.0
        lm = math.log(z) / self._log_q
        peak = ((lm - 1.0) ** 2 / 2.0 + lm + 4.0) * math.log10(q)
        digits = max(50, int(peak) + 330 + _GUARD_DIGITS)
        table = self._coefficients(self._kernel_store(), digits)
        return _series_fixed(table, kind == "sin", z, digits, peak)

    def _coefficients(self, store, digits):
        """Coefficient table of both kinds, rebuilt when a call needs more
        precision than any before it at this q.

        A rebuild takes at least a quarter more precision than the table it
        replaces: arguments often arrive in increasing order (a lattice
        sampled outwards), and each would otherwise pay its own rebuild.
        """
        prec = _dps_to_prec(digits)
        table = store.table
        if table is None or table.prec < prec:
            if table is not None:
                prec = max(prec, table.prec * 5 // 4)
            table = store.table = _SeriesCoefficients(self.ctx.q, prec)
        return table

    def kernel_row(self, kind, m_lo, m_hi):
        """cos_q (kind "cos") or sin_q ("sin") at the lattice points
        ctx.qpow(m), m = m_lo, m_lo + 2, ..., m_hi, as a read-only float
        array; empty when m_hi < m_lo."""
        if kind not in ("cos", "sin"):
            raise ValueError(f"unknown kernel {kind!r}")
        return self._row(kind, m_lo, m_hi)

    def point_row(self, m_lo, m_hi):
        """The lattice points ctx.qpow(m), m = m_lo, m_lo + 2, ..., m_hi, as
        a read-only float array; empty when m_hi < m_lo."""
        return self._row("point", m_lo, m_hi)

    def _row(self, kind, m_lo, m_hi):
        if (m_hi - m_lo) % 2:
            raise ValueError(f"row ends {m_lo} and {m_hi} differ in parity")
        if m_hi < m_lo:
            return _EMPTY
        store = self._kernel_store()
        store.lookups += 1
        key = (kind, m_lo % 2)
        lo, vals = store.rows.get(key, (m_lo, _EMPTY))
        hi = lo + 2 * (vals.size - 1)
        if lo > m_lo or m_hi > hi:
            if (m_hi - m_lo) // 2 + 1 > STORE_MAX_VALUES:
                # too long to keep
                return self._row_values(store, kind, m_lo, m_hi)
            new_lo, new_hi = min(lo, m_lo), max(hi, m_hi)
            if (store.row_entries() - vals.size + (new_hi - new_lo) // 2 + 1
                    > STORE_MAX_VALUES):
                store.rows.clear()
                lo, hi, vals = m_lo, m_lo - 2, _EMPTY
                new_lo, new_hi = m_lo, m_hi
            # the missing top first: the largest argument fixes the
            # precision of the coefficient table, and smaller ones reuse it
            top = self._row_values(store, kind, hi + 2, new_hi)
            vals = np.concatenate(
                [self._row_values(store, kind, new_lo, lo - 2), vals, top])
            vals.flags.writeable = False
            store.rows[key] = (new_lo, vals)
            lo = new_lo
        return vals[(m_lo - lo) // 2:(m_hi - lo) // 2 + 1]

    def _row_values(self, store, kind, lo, hi):
        """Row entries for m = lo, lo + 2, ..., hi, evaluated from hi down."""
        q = self.ctx.q
        exps = range(hi, lo - 1, -2)
        store.misses += len(exps)
        if kind == "point":
            vals = [q ** m for m in exps]
        else:
            vals = [self._series(kind, q ** m, m)[0] for m in exps]
        return np.array(vals[::-1], dtype=float)

    def cos_q(self, z, with_bound=False):
        return self._kernel("cos", z, with_bound)

    def sin_q(self, z, with_bound=False):
        return self._kernel("sin", z, with_bound)

    # -- normalization constant ---------------------------------------------

    def n_q(self):
        """N_q = (q^-2; q^-4)_inf / (q^-4; q^-4)_inf."""
        store = self._kernel_store()
        if store.nq is None:
            q = self.ctx.q
            store.nq = (self.comb.qpoch_inf(q ** -2, q ** -4)
                        / self.comb.qpoch_inf(q ** -4, q ** -4))
        return store.nq

    # -- q-exponential --------------------------------------------------------

    def q_exp(self, z):
        """e_{q^-2}(z) = sum z^k / (q^-2; q^-2)_k, |z| < 1."""
        z = complex(z)
        if abs(z) >= 1:
            raise OutOfRadius(f"|z| = {abs(z)} is outside the unit radius")
        q = self.ctx.q
        total = 1.0 + 0j
        term = 1.0 + 0j
        running_max = 1.0
        k = 0
        while True:
            k += 1
            term = term * z / (1.0 - q ** (-2.0 * k))
            if abs(term) < _FLOAT_STOP * running_max:
                return total
            total += term
            running_max = max(running_max, abs(total))

    # -- lattice Gaussian ------------------------------------------------------

    def lattice_gaussian(self, l, c0=1.0):
        """f(q^l) = q^(-(l^2 + l)/2) c0."""
        return self.ctx.qpow(-0.5 * (l * l + l)) * c0

    def gauss_sum_constants(self, c0=1.0):
        """(c0~, c0') by direct Gauss sums and by Jacobi triple products.

        c0~/c0 = sum_l q^(-2 l^2)      = (q^-4; q^-4) (-q^-2; q^-4)^2
        c0'/c0 = sum_l q^(-2 l(l+1))   = (q^-4; q^-4) (-q^-4; q^-4) (-1; q^-4)
        """
        q = self.ctx.q
        s_tilde = 1.0
        l = 1
        while True:
            t = 2.0 * q ** (-2.0 * l * l)
            if t < 1e-18:
                break
            s_tilde += t
            l += 1
        s_prime = 0.0
        l = 0
        while True:
            # pair l and -(l+1) give the same exponent -2 l (l+1)
            t = 2.0 * q ** (-2.0 * l * (l + 1))
            if t < 1e-18:
                break
            s_prime += t
            l += 1
        p4 = q ** -4
        base = self.comb.qpoch_inf(p4, p4)
        tilde_prod = base * self.comb.qpoch_inf(-(q ** -2), p4) ** 2
        prime_prod = base * self.comb.qpoch_inf(-p4, p4) \
            * self.comb.qpoch_inf(-1.0, p4)
        return {
            "c0_tilde": (c0 * s_tilde, c0 * tilde_prod),
            "c0_prime": (c0 * s_prime, c0 * prime_prod),
        }
