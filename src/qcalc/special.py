"""q-special functions: cos_q, sin_q, the q-exponential, lattice Gaussian.

cos_q(z) = sum_n c_n z^(2n) and sin_q(z) = sum_n s_n z^(2n+1), with
c_n = (-1)^n q^(-2n(n+1)) / (q^-2; q^-2)_(2n) and s_n the same over
(q^-2; q^-2)_(2n+1).  The package reads them only at the lattice points
+-q^m, as eigenfunctions of the derivative sampled there.

At the lattice points q^m, at any m, the derivative gives
cos[m] = cos[m-2] - q^(m-2) sin[m-2] and sin[m] = sin[m-2] + q^m cos[m],
cos[m] = cos_q(q^m): a step of determinant 1 and trace 2 - q^(2m-2).
One pass of it fills both kinds' row entries of one parity, in binary
floats of _BITS-bit integer mantissas; q^m is the exact power of q's
mantissa, never the double q ** m.  The pass is seeded by the series at
the lowest of the row's low end, the largest m with q^m <= 8 (q - 1/q),
where the terms cancel by at most about e^8, and m_h or m_a below, on
the row's parity.  It runs forward up to m_h, the first m with
q^(2m-2) > 4.  Past m_h the odd kernels grow like q^(m^2/2), the
dominant solution, and run on forward; the even ones decay like
q^(-m^2/2), the minimal one, and come from Miller's backward recurrence
(Gautschi, SIAM Review 9, 1967), scaled to the forward value at the even
anchor m_a <= m_h.  Miller starts where the steps above the row top have
given the minimal solution _MILLER_BITS bits of dominance, far out near
q = 1.  Each entry is rounded once to the nearest double: the tests find
every entry with m in [-40, 132], q from 1.001 to 50, the kernel at the
lattice point correctly rounded.  Past the double range odd entries read
+-inf and even ones a signed zero.

Every SpecialFunctions at one q shares a module-level store of rows: q^m,
cos_q or sin_q for every m of one parity across a range, as float arrays
indexed by the exponent; the cos_q and sin_q rows of a parity span one
range.  cos_q and sin_q read row entry m, signed, when |z| is exactly the
double q ** m, m = round(log|z| / log q); any other z (0, an off-lattice
double, +-inf, NaN, or one whose q ** m overflows) raises ValueError and
leaves the store as it was.  Their bound is half an ulp of the value, the
smallest subnormal at least: each entry is the kernel rounded once.  The
store keeps kernel values only: STORE_MAX_QS values of q, dropping the
least recently opened, and STORE_MAX_VALUES row entries per q: a row
past that drops every row of its q first, and a longer one is not kept.
`kernel_store_info` reports sizes, row reads and entries evaluated;
`clear_kernel_store` empties the store.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

_FLOAT_STOP = 1e-16

# Bounds of the kernel store: values of q kept and row entries per q.
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


def qfact(ctx, n):
    """[n]! = [1] [2] ... [n], exactly (Fraction q)."""
    if n < 0:
        raise ValueError("q-factorial needs n >= 0")
    acc = 1
    for k in range(1, n + 1):
        acc = acc * ctx.qnum(k)
    return acc


def qpoch(a, p, n):
    """(a; p)_n = prod_{k<n} (1 - a p^k); n = inf takes qpoch_inf."""
    if n == math.inf:
        return qpoch_inf(a, p)
    if n < 0:
        raise ValueError("Pochhammer index must be >= 0 or inf")
    acc = 1
    f = a
    for _ in range(n):
        acc = acc * (1 - f)
        f = f * p
    return acc


def qpoch_inf(a, p):
    """(a; p)_inf in doubles, to the first factor within 1e-18 of one."""
    if abs(p) >= 1:
        raise DivergentProduct(f"|p| = {abs(p)} >= 1")
    acc = 1.0
    f = a
    while abs(f) > 1e-18:
        acc *= 1 - f
        f *= p
    return acc


# -- cos_q and sin_q on the lattice by their recurrence -----------------------

# A number in a pass is (m, e) for m 2^e, |m| held to _BITS bits by _fix: a
# binary float whose exponent never leaves range.
_BITS = 120
_MILLER_BITS = 128  # dominance Miller's start gains on the row top


def _fix(m, e):
    s = m.bit_length() - _BITS
    return (m >> s, e + s) if s > 0 else (m << -s, e + s)


def _neg(x):
    return -x[0], x[1]


def _mul(x, y):
    return _fix(x[0] * y[0], x[1] + y[1])


def _add(x, y):
    (a, e), (b, f) = (x, y) if x[1] >= y[1] else (y, x)
    # past 2 _BITS apart the smaller is below 2^-239 of the larger
    return (a, e) if e - f > 2 * _BITS else _fix((a << (e - f)) + b, f)


def _div(x, y):
    a, e = _fix(*x)
    return _fix((a << (_BITS + 2)) // y[0], e - y[1] - _BITS - 2)


def _pow(q, m):
    """q^m from the exact power of q's mantissa."""
    frac, e = math.frexp(q)
    x = _fix(int(frac * 2.0 ** 53) ** abs(m), (e - 53) * abs(m))
    return x if m >= 0 else _div((1, 0), x)


def _to_double(x):
    """x rounded once to the nearest double, as int division rounds; an x
    below 2^-1075 or from 2^1024 up is a signed zero or inf at once."""
    m, e = x
    top = e + m.bit_length()  # |x| < 2^top
    if top <= -1075 or not m:
        return math.copysign(0.0, m)
    if top > 1024:
        return math.copysign(math.inf, m)
    try:
        return m / (1 << -e) if e < 0 else float(m << e)
    except OverflowError:
        return math.copysign(math.inf, m)


def _seed(q, z):
    """[cos_q(z), sin_q(z)] as one chain of series terms, p = q^-2: term j
    is term j - 1 times z / (1 - p^j), and -p^j for even j; even terms add
    to cos, odd to sin, till two in a row fall 2^(_BITS + 8) under the top."""
    one, p = _fix(1, 0), _pow(q, -2)
    term = _div(z, _add(one, _neg(p)))
    sums, pj, top, j, quiet = [one, term], p, max(one[1], term[1]), 1, 0
    while quiet < 2:
        j += 1
        pj = _mul(pj, p)
        term = _div(_mul(term, z), _add(one, _neg(pj)))
        if j % 2 == 0:
            term = _neg(_mul(term, pj))
        sums[j % 2] = _add(sums[j % 2], term)
        top = max(top, term[1])
        quiet = quiet + 1 if term[1] < top - _BITS - 8 else 0
    return sums


def _recurrence_row(q, lo, hi):
    """([cos_q], [sin_q]) as doubles at q^m, m = lo, lo + 2, ..., hi, by
    one pass seeded at the lowest of lo, the cancellation-safe point and
    m_h (odd) or m_a (even), on lo's parity; hi >= lo."""
    odd = lo % 2
    m_h = math.ceil(1.0 + math.log(4.0) / (2.0 * math.log(q)))
    m_a = m_h - m_h % 2  # the even anchor
    m = min(math.floor(math.log(8.0 * (q - 1.0 / q)) / math.log(q)),
            m_h if odd else m_a, lo)
    m -= (m - odd) % 2
    pw, q2 = _pow(q, m), _pow(q, 2)
    c, s = _seed(q, pw)
    vals = [(c, s)] if m >= lo else []
    while m < (hi if odd else min(hi, m_a)):
        c = _add(c, _mul(_neg(pw), s))
        pw = _mul(pw, q2)
        s = _add(s, _mul(pw, c))
        m += 2
        if m >= lo:
            vals.append((c, s))
    if m < hi:
        # Miller from n, the minimal solution _MILLER_BITS up on the other:
        # a step of trace 2 - t gives 2 log2 of its larger eigenvalue
        n, bits = hi, 0.0
        while bits < _MILLER_BITS:
            n += 2
            t = 2.0 ** min((2 * n - 2) * math.log2(q), 1000.0) - 2.0
            bits += 2.0 * math.acosh(t / 2.0) / math.log(2.0)
        pk, p = _pow(q, n), _pow(q, -2)
        bc, bs = _mul(pk, p), (1, 0)  # s / c = q^(2 - n), as the minimal one
        back = []
        for _ in range(n, m, -2):
            back.append((bc, bs))
            bs = _add(bs, _mul(_neg(pk), bc))
            pk = _mul(pk, p)
            bc = _add(bc, _mul(pk, bs))
        # scaled to the forward value at m_a by its larger component
        scale = _div(c, bc) if c[1] >= s[1] else _div(s, bs)
        vals += [(_mul(scale, bc), _mul(scale, bs)) for k, (bc, bs)
                 in zip(range(m + 2, hi + 1, 2), back[::-1]) if k >= lo]
    return [_to_double(c) for c, _ in vals], [_to_double(s) for _, s in vals]


class _KernelStore:
    """What the kernels at one q share: the rows, N_q, and the counts of
    row reads and of row entries evaluated.

    rows maps (kind, parity) to (m_lo, array): kind is "point", "cos" or
    "sin", and entry i of the read-only array belongs to m_lo + 2 i.
    """

    __slots__ = ("rows", "nq", "lookups", "misses", "__weakref__")

    def __init__(self):
        self.rows = {}
        self.nq = None
        self.lookups = 0
        self.misses = 0

    def row_entries(self):
        return sum(vals.size for _, vals in self.rows.values())


# q -> _KernelStore, least recently opened first; a plain dict, since
# every kernel lookup reads it and OrderedDict.get is slower
_STORES = {}


def _open_store(q):
    """The store of q, made if absent and marked most recently opened."""
    store = _STORES[q] = _STORES.pop(q, None) or _KernelStore()
    if len(_STORES) > STORE_MAX_QS:
        del _STORES[next(iter(_STORES))]
    return store


def clear_kernel_store():
    """Empty the kernel store: every row and count at every q."""
    _STORES.clear()


def kernel_store_info():
    """{q: {row_entries, lookups, misses}} over the stored q, least
    recently opened first; row_entries counts the entries of every row,
    lookups the row reads and misses the row entries evaluated."""
    return {q: {"row_entries": store.row_entries(),
                "lookups": store.lookups,
                "misses": store.misses}
            for q, store in _STORES.items()}


class SpecialFunctions:
    """Evaluators over one lattice context (a float q); kernel values and
    N_q live in the kernel store of its q, looked up by q on each use."""

    def __init__(self, ctx):
        if not isinstance(ctx.q, float):
            raise ValueError(f"special functions need a float q; use "
                             f"QContext(float({ctx.q!r}))")
        self.ctx = ctx
        _open_store(ctx.q)
        self._log_q = math.log(ctx.q)

    def _kernel_store(self):
        """The store of this q, opened again if the store has dropped it."""
        return _STORES.get(self.ctx.q) or _open_store(self.ctx.q)

    # -- trigonometric family ---------------------------------------------

    def _kernel(self, kind, z, with_bound):
        """cos_q or sin_q at the lattice point z, as the module docstring
        says; with_bound, the value and half its ulp."""
        z, q = float(z), self.ctx.q
        sign = math.copysign(1.0, z) if kind == "sin" else 1.0
        try:
            m = round(math.log(abs(z)) / self._log_q)
            on = q ** m == abs(z)
        except (ValueError, OverflowError):  # 0, inf, NaN, q^m past range
            on = False
        if not on:
            raise ValueError(f"{kind}_q({z!r}): z is no lattice point "
                             f"+-q^m of q = {q!r}")
        # the row hit inline, as _row would find it: every lookup runs
        # this; a q the store dropped holds no rows, so _row reopens it
        store = _STORES.get(q)
        lo, vals = (0, _EMPTY) if store is None \
            else store.rows.get((kind, m % 2), (0, _EMPTY))
        i = (m - lo) // 2
        if 0 <= i < vals.size:
            store.lookups += 1
            val = sign * vals.item(i)
        else:
            val = sign * self._row(kind, m, m).item(0)
        # each entry is the kernel rounded once
        return (val, max(math.ulp(val) / 2, math.ulp(0.0))) if with_bound \
            else val

    def kernel_row(self, kind, m_lo, m_hi):
        """cos_q (kind "cos") or sin_q ("sin") at the lattice points q^m,
        m = m_lo, m_lo + 2, ..., m_hi, as a read-only float array; empty
        when m_hi < m_lo."""
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
            kinds = ("point",) if kind == "point" else ("cos", "sin")
            if len(kinds) * ((m_hi - m_lo) // 2 + 1) > STORE_MAX_VALUES:
                return self._row_values(  # too long to keep
                    store, kinds, m_lo, m_hi)[kinds.index(kind)]
            new_lo, new_hi = min(lo, m_lo), max(hi, m_hi)
            grow = (new_hi - new_lo) // 2 + 1 - vals.size
            if store.row_entries() + len(kinds) * grow > STORE_MAX_VALUES:
                store.rows.clear()
                lo, hi, new_lo, new_hi = m_lo, m_lo - 2, m_lo, m_hi
            # the cos and sin rows of a parity span lo ... hi: grow both
            for k, low, high in zip(
                    kinds, self._row_values(store, kinds, new_lo, lo - 2),
                    self._row_values(store, kinds, hi + 2, new_hi)):
                row = np.concatenate(
                    [low, store.rows.get((k, key[1]), (lo, _EMPTY))[1], high])
                row.flags.writeable = False
                store.rows[k, key[1]] = (new_lo, row)
            lo, vals = store.rows[key]
        return vals[(m_lo - lo) // 2:(m_hi - lo) // 2 + 1]

    def _row_values(self, store, kinds, lo, hi):
        """Entries m = lo, lo + 2, ..., hi of each row of kinds."""
        q = self.ctx.q
        exps = range(lo, hi + 1, 2)
        store.misses += len(kinds) * len(exps)
        if kinds == ("point",):
            return [np.array([q ** m for m in exps], dtype=float)]
        rows = _recurrence_row(q, lo, hi) if exps else ([], [])
        return [np.array(row, dtype=float) for row in rows]

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
            store.nq = (qpoch_inf(q ** -2, q ** -4)
                        / qpoch_inf(q ** -4, q ** -4))
        return store.nq

    # -- q-exponential --------------------------------------------------------

    def q_exp(self, z):
        """e_{q^-2}(z) = sum z^k / (q^-2; q^-2)_k, |z| < 1; the partial
        sum as it stands once it is no longer finite."""
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
            if not cmath.isfinite(total):  # near q = 1 the terms overflow
                return total
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
        base = qpoch_inf(p4, p4)
        tilde_prod = base * qpoch_inf(-(q ** -2), p4) ** 2
        prime_prod = base * qpoch_inf(-p4, p4) * qpoch_inf(-1.0, p4)
        return {
            "c0_tilde": (c0 * s_tilde, c0 * tilde_prod),
            "c0_prime": (c0 * s_prime, c0 * prime_prod),
        }
