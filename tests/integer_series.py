"""The q-series in Python ints: an exact reference for cos_q and sin_q.

cos_q(z) = sum_n c_n z^(2n) and sin_q(z) = sum_n s_n z^(2n+1), with
c_n = (-1)^n q^(-2n(n+1)) / (q^-2; q^-2)_(2n) and s_n the same over
(q^-2; q^-2)_(2n+1).  At z = q^m the terms peak near q^((m-1)^2/2), far
beyond double range, while on the even sublattice the sum itself is
tiny, so the sum needs about twice the peak's digits.

The coefficients of both kinds are integer (mantissa, exponent) pairs in
one table, each from the one before by one division (SeriesCoefficients).
The series is summed by Horner's rule in Python ints.  With z = M 2^E, M
odd, and b the bit length of M^2, level k holds the tail
S_k = sum_(n >= k) c_n z^(2(n - k)) on its own fixed-point scale
2^(U - k(2E + b)), so that S_(k-1) = round(S_k M^2 / 2^b) + c_(k-1)
rounded onto that scale: each term costs one product of the running sum
by M^2 and two shifts.  Each level adds at most one unit of its scale and
M^2 / 2^b < 1 shrinks what it carries, so S_0 is within N + 1 units of
2^U; U sits that far (and for sin, which returns z S_0, a further factor
z) below the scale 2^unit that lies the working precision under the peak
estimate.  N, the last term kept, is fixed before any product from the
bit lengths of the table: term n lies within a factor 2 below 2^t,
t = bits(C_n) + e_n + (2n or 2n + 1) log2 z.  The sum keeps every term up
to the first that is below 2^unit or below 10^(5 - digits) of the largest
term before it, and returns 2^ceil(t) of that first dropped term as the
bound.

`exact_kernel` sums at the lattice point q^m, with the digits
`exact_digits` gives: for q = M_q 2^(E_q) and m >= 0 the point is the
pair (M_q^m, m E_q), and below m = 0 the quotient 2^(m E_q) / M_q^-m
rounded 32 bits past the table's precision.
"""

import math

POWER_GUARD_BITS = 32
LOG2_10 = math.log2(10.0)


def round_bits(man, exp, prec):
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


class SeriesCoefficients:
    """c_n and s_n of one q as pairs (M, E), M odd, meaning M 2^E at prec
    bits: entry j = 2n is c_n and entry j = 2n + 1 is s_n.

    With R_j = q^(2j) - 1, each factor 1 - q^(-2j) of the Pochhammer
    symbols is R_j / q^(2j), so from u_0 = 1 the entries follow by
    s_n = c_n + c_n / R_(2n+1) and c_(n+1) = -s_n / R_(2n+2), computed on
    first use.  Each costs one division and is rounded once to prec bits,
    to nearest with ties to even; a sticky bit on an inexact quotient
    makes that rounding correct.  The power q^(2j) takes one product by
    the square of q's odd mantissa per step: it is exact until it passes
    P = prec + POWER_GUARD_BITS bits, and rounded to P bits after.  R_j
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
        man, exp = odd_man_exp(q)
        self._q2 = (man * man, 2 * exp)  # q^2, exact
        self._power = (1, 0)  # q^(2j) of the last entry j

    def pair(self, j):
        """(U, e) with u_j = U 2^e."""
        pairs = self.pairs
        prec = self.prec
        wide = prec + POWER_GUARD_BITS
        q2, q2_exp = self._q2
        while len(pairs) <= j:
            k = len(pairs)
            pw, pw_exp = self._power = round_bits(self._power[0] * q2,
                                              self._power[1] + q2_exp, wide)
            r, r_exp = round_bits((pw << pw_exp) - 1 if pw_exp >= 0
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
            pairs.append(round_bits(man, a_exp - r_exp - shift - 1, prec))
        return pairs[j]


def odd_man_exp(x):
    """(M, E) with x = M 2^E and M odd (x a positive double)."""
    frac, exp = math.frexp(x)
    man = int(frac * 2.0 ** 53)
    zeros = (man & -man).bit_length() - 1
    return man >> zeros, exp - 53 + zeros


def to_float(man, exp):
    """man 2^exp rounded once to the nearest double, ties to even: +-inf
    past the top, and a subnormal on the spacing 2^-1074."""
    if not man:
        return 0.0
    mag = abs(man)
    prec = min(53, exp + mag.bit_length() + 1074)  # bits above 2^-1075
    if prec < 1:
        # below 2^-1074: 2^-1074 above the tie at 2^-1075, else zero
        tiny = 5e-324 if prec == 0 and mag & (mag - 1) else 0.0
        return -tiny if man < 0 else tiny
    man, exp = round_bits(man, exp, prec)
    try:
        return math.ldexp(man, exp)
    except OverflowError:
        return math.copysign(math.inf, man)


def dps_to_prec(digits):
    """Bits that hold `digits` decimal digits."""
    return round((digits + 1) * 3.3219280948873626)


def series_fixed(coeffs, odd, man, exp, digits, peak):
    """The series at z = man 2^exp (man odd) by Horner's rule on per-level
    fixed-point scales, as the module docstring describes: cos_q with
    odd = 0, sin_q with odd = 1, term n reading table entry 2n + odd.

    2^unit sits the precision of `digits` digits below the peak estimate
    (log10 of the largest term), and coeffs must hold at least that
    precision.  Returns (value, bound) as doubles.
    """
    unit = math.ceil(peak * LOG2_10) - dps_to_prec(digits)
    stop_bits = (digits - 5) * LOG2_10
    log2_z = math.log2(man) + exp
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
    bound = to_float(1, math.ceil(t))
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
        # the bits of M^2 past 256 below acc's carry under 2^-255 of a unit
        cut = max(0, b - acc.bit_length() - 256)
        acc = ((acc * (man2 >> cut) + (half >> cut)) >> (b - cut)) \
            + (c << s if s >= 0 else ((c >> (-s - 1)) + 1) >> 1)
    if odd:
        return to_float(man * acc, exp + scale), bound
    return to_float(acc, scale), bound


def peak_digits(q, m):
    """log10 of the largest term of the series at q^m, estimated."""
    return ((m - 1.0) ** 2 / 2.0 + m + 4.0) * math.log10(q)


def exact_digits(q, m):
    """Digits that carry the sum at q^m to 120 digits below its value: on
    the even sublattice the value lies about q^-m below 1 / peak, and near
    q = 1 the peak estimate misses terms of about 1/lam digits."""
    return int(2.0 * peak_digits(q, m) + m * math.log10(q)
               + 1.0 / (q - 1.0 / q)) + 120


def exact_kernel(q, m, kind, table):
    """cos_q (kind "cos") or sin_q ("sin") at the lattice point q^m,
    rounded once to a double; table holds at least
    dps_to_prec(exact_digits(q, m)) bits.

    For m >= 0 the point is exact.  For m < 0 it is 2^(mE_q) / M_q^-m,
    its quotient rounded to POWER_GUARD_BITS past the table's precision:
    within a relative 2^-(prec + 31) of the point, which moves term n by
    at most 2n + 1 times that, far under the table's own rounding of its
    entry."""
    man, exp = odd_man_exp(q)
    if m >= 0:
        man, exp = man ** m, exp * m
    else:
        den = man ** -m
        shift = table.prec + POWER_GUARD_BITS + den.bit_length()
        man, exp = round_bits(((1 << shift) + den // 2) // den,
                              exp * m - shift, table.prec + POWER_GUARD_BITS)
    return series_fixed(table, kind == "sin", man, exp,
                        exact_digits(q, m), peak_digits(q, m))[0]
