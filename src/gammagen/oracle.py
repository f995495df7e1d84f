"""Independent high-precision reference evaluators.

Everything here is deliberately separate from the fast paths: psi, psi_k
and psi_p sum a short head of their series term by term and close the
rest with one Euler-Maclaurin closure of fifteen Bernoulli corrections
(``_psi_diff``), so psi_p is summed term by term only where p is below
the head length, and costs the same at every p; Gamma_p is still its raw
finite product, p + 1 factors; psi_q and Gamma_q take the first terms or
factors of their definitions one by one and sum the rest exactly as a
Lambert series in powers of q^(t+N), about 2 sqrt(ln(1/T) / (1-q)) terms
in all; and Gamma and Gamma_k come from the trapezoid rule on the
defining integral, with an a-priori error bound.  A bug shared with the
fast evaluators would defeat cross-validation, so the oracle shares no
evaluation code with ``core_special`` or ``gen_gamma``, only their
argument checks.

The series and product loops, and the trapezoid rule's nodes, run on
Python integers.  A value x in them is the fixed-point integer
floor(x 2^W), W = P + _GUARD_BITS at the working precision of P bits (35
digits for the series, 30 and more for the quadrature), and a product is
a mantissa of W to 2W bits with a separate binary exponent; the q oracles
add to W the bits their divisions by 1 - q^m need (``_q_split``), and the
quadrature nodes' exponentials are integer too (``_fixed_exp``).

mpmath computes through ``mpmath.libmp`` alone, on raw (sign, mantissa,
exponent, bit count) tuples at an explicit precision and rounding; no
routine reads or sets the precision of the global context ``mp``.  libmp
does only the set-up that carries the value (powers, logarithms, the
exponential tables) and the final assembly, and the result becomes an mpf
once, by ``mp.make_mpf``, which rounds nothing.  So no result depends on
the caller's mp.prec, and none changes it.  What only sizes a loop (the
series' head lengths, the q oracles' stop constants, the trapezoid rule's
strip angle and step) or bounds its truncation (the aliasing bound) is a
double rounded outward or an exact integer.  The error bounds are raw
tuples, summed at 53 bits and rounded up, as they can leave the double
range with the values.  Each routine's docstring derives a bound on the
rounding of its loop, in units of 2^-W, and ``certified_digits`` counts
that bound with the truncation error and 2^(4-P) of each part the
assembly combines (``_assembly``).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math

from mpmath import mp
from mpmath.libmp import (dps_to_prec, fone, from_float, from_int, from_man_exp, from_rational,
                          from_str, fzero, mpf_abs, mpf_add, mpf_div, mpf_exp, mpf_factorial,
                          mpf_le, mpf_ln2, mpf_log, mpf_mul, mpf_pow_int, mpf_rdiv_int, mpf_shift,
                          mpf_sub, round_ceiling, round_floor, round_nearest, to_fixed)

from .core_special import _check_p, _check_q, _require_positive

__all__ = [
    "HPValue",
    "ConvergenceError",
    "EULER_GAMMA_HP",
    "psi_hp",
    "psi_p_hp",
    "psi_q_hp",
    "psi_k_hp",
    "gamma_hp",
    "gamma_p_hp",
    "gamma_q_hp",
    "gamma_k_quad",
    "cross_validate",
]

# Fixed 50-digit literal; the constant is never recomputed.
EULER_GAMMA_HP = "0.57721566490153286060651209008240243104215933593992"

_SERIES_DPS = 35
_QUAD_DPS = 30
# 1/T for the error target T = 1e-25 of every routine
_INV_TAIL = 10**25
# The series and products are truncated at _TRUNCATION and the rounding of
# the integer loops has the remaining 1e-31, so both together stay within
# T and certify as many digits as the truncation alone would.
_TRUNCATION = 0.999999e-25
_LOG_TRUNCATION = math.log(_TRUNCATION)
_GUARD_BITS = 32
# The series' working precision P and fixed-point bits W
_SERIES_PREC = dps_to_prec(_SERIES_DPS)
_SERIES_W = _SERIES_PREC + _GUARD_BITS
# The libmp set-up and assembly err by at most 2^(4-P) = 8 ulps of 1 at P
# bits per part they combine: each part takes a few correctly rounded
# operations
_ASSEMBLY_BITS = 4
# Error bounds are raw mpfs of this many bits, rounded up
_ERR_PREC = 53
_NEAR, _UP = round_nearest, round_ceiling
_DPS_MARGIN = 10
_LOG10_2 = math.log10(2)
_LIFT_TO = 64
# The q oracles evaluate their bounds and stop constants in double
# precision: a few dozen operations on positive terms, each within 2^-53
# relative, besides 1 - z for z < z* (``_q_split``), which is above 2^-24
# as 1 - q >= 2^-53, so within 2^-29 relative.  This factor rounds the
# result up past all of them.
_FLOAT_ROUND_UP = 1 + 2.0**-20
# lam = ln(4/T): the trapezoid's step makes its aliasing bound at most
# 2/(e^lam - 1), about T/2
_QUAD_LAM = math.log(4 * _INV_TAIL)
# That bound, rounded up
_ALIASING_BOUND = _FLOAT_ROUND_UP * 2 / math.expm1(_QUAD_LAM)
# The trapezoid's sizing rounds its double exponent u (-ln cos theta), within
# 2^-38 relative, up by this factor, so the step stays short of the one the
# bound allows while moving it by no more than about 2^-32 relative.
_STEP_ROUND_UP = 1 + 2.0**-32
_QUAD_MAX_NODES = 10_000


class ConvergenceError(RuntimeError):
    """The trapezoid rule ran out of nodes before its tails met their
    target."""


class HPValue(collections.namedtuple("HPValue", "value certified_digits terms_used",
                                     defaults=(0,))):
    """Extended-precision value (an mpmath mpf), the digits it certifies,
    the terms it took; an immutable named tuple."""

    __slots__ = ()


def _digits_from_error(value, err, dps) -> int:
    """Digits certified by the error bound err on value, both raw mpfs,
    never more than cap = dps - _DPS_MARGIN: d - 1, at least 1, for the d
    with 10^-(d+1) < err/scale <= 10^-d, scale = max(|value|, 1).

    With err = man 2^e of bc bits and scale = s 2^f of c bits (1 = 1 2^0
    where |value| < 1), r = err/scale lies in (2^(g-1), 2^(g+1)),
    g = e + bc - f - c.  So -log10 r lies in an interval of width
    2 log10 2 < 1 below (1 - g) log10 2, d is d0 = floor((1 - g) log10 2)
    or d0 - 1 (the double product is nowhere near an integer), and it is
    d0 exactly when r <= 10^-d0, that is when the integer man 10^d0 is at
    most s 2^(f-e), one side shifted by the bit counts' difference.  Only
    3 <= d0 <= cap + 1 needs the test: below, either d gives 1, and above,
    the cap.  g is an integer that can lie far outside the double range
    (about -2^1048 for the tiny Gamma_k(1e-6) at k = 1e-320), and d0 is a
    double product that raises OverflowError once |g| passes 2^1024.  So
    the two early returns are not shortcuts: g > 0, which gives 1, and
    g < -4 cap - 8, which gives the cap, keep that product in range, and
    the rest is integer work, however far the exponents lie outside it.
    """
    cap = dps - _DPS_MARGIN
    sign, man, e, bc = err
    if sign or not man:
        return cap
    _, s, f, c = value
    if f + c <= 0:  # |value| < 1
        s, f, c = 1, 0, 1
    g = e + bc - f - c
    if g > 0:
        return 1
    if g < -4 * cap - 8:
        return cap
    d = math.floor((1 - g) * _LOG10_2)
    if 3 <= d <= cap + 1:
        lhs = man * 10**d
        if e >= f:
            lhs <<= e - f
        else:
            s <<= f - e
        if lhs > s:
            d -= 1
    return max(1, min(cap, d - 1))


def _hp(value, err, dps, terms) -> HPValue:
    """The HPValue of the raw mpf value with the error bound err."""
    return HPValue(mp.make_mpf(value), _digits_from_error(value, err, dps), terms)


def _err_sum(*bounds):
    """An upper bound on the sum of nonnegative raw mpfs: each addition is
    rounded up at _ERR_PREC bits."""
    total = bounds[0]
    for b in bounds[1:]:
        total = mpf_add(total, b, _ERR_PREC, _UP)
    return total


def _assembly(prec, *parts):
    """Error bound of the libmp set-up and assembly at prec bits that
    combine parts (a sum of them, or one product): 2^(_ASSEMBLY_BITS - prec)
    times the sum of their absolute values, rounded up."""
    return mpf_shift(_err_sum(*map(mpf_abs, parts)), _ASSEMBLY_BITS - prec)


def _exp_t_log(t, base, log_base, prec, shift=fzero):
    """exp(shift + t ln base) for the double t, the raw mpf base > 0 and the
    exact raw mpf shift, within half an ulp at prec bits and 2^-(prec+3)
    relative.

    |t ln base| < 2^(a+b+1) for the binary exponents a of t and b of the
    double log_base, a rounded ln base, so ln base at prec + a + b + 5 bits,
    rounded to nearest, moves the exact product t ln base by less than
    2^-(prec+4), and the exponential by less than 2^-(prec+3) relative.
    """
    bits = max(0, math.frexp(t)[1] + math.frexp(log_base)[1] + 1) + 4
    c = mpf_mul(from_float(t), mpf_log(base, prec + bits, _NEAR))
    return mpf_exp(mpf_add(shift, c), prec, _NEAR)


def _one_minus_exp(x, prec):
    """1 - e^x for a raw mpf -1 <= x < 0, within 2^-prec relative.

    1 - e^x >= |x|/2 >= 2^(m-2), m = mag x, so e^x at prec + 4 - m bits,
    within 2^(m-4-prec), moves it by less than 2^-(prec+2) relative, and the
    subtraction rounds once.
    """
    return mpf_sub(fone, mpf_exp(x, prec + 4 - x[2] - x[3], _NEAR), prec, _NEAR)


def _product(factors, w):
    """The product of positive integers as a mantissa and a binary
    exponent: once the mantissa passes 2W bits it is shifted down to W + 1,
    which errs by less than 2^-W relative, at most once per factor."""
    prod, exp, top = 1, 0, 2 * w
    for f in factors:
        prod *= f
        if prod.bit_length() > top:
            shift = prod.bit_length() - w - 1
            prod >>= shift
            exp += shift
    return prod, exp


def _one_minus_powers(x, big_q, n, w):
    """2^W - X_j for j < n, X_0 = x and X_{j+1} = floor(X_j Q / 2^W)."""
    one = 1 << w
    for _ in range(n):
        yield one - x
        x = x * big_q >> w


def _q_drift(n) -> int:
    """Units of 2^-W by which X_j, j <= n, can miss q^j x_0 2^W, for
    0 <= x_0 <= 1.

    X_0 is floor(x_0 2^W), x_0 rounded to W bits: within 3 units.  Then
    X_{j+1} = floor(X_j Q / 2^W), Q = floor(q 2^W), errs by x_j (q 2^W - Q)
    plus the floor, below 2 units, besides q (1 + 2^-W) < 1 times the
    error X_j carries, so |e_j| <= 3 + 2j for every q (and below
    4 + 2/(1-q), less where q < 0.98, which ``_q_split`` makes harmless).
    """
    return 3 + 2 * n


def _q_split(a, q):
    """The head length N and the fixed-point bits W of the q oracles, from
    the doubles a and q.

    Their series and products are summed term by term while x = q^(a+n)
    is at least z* = exp(-sqrt(lam L)), lam = -ln q, L = ln(1/T), and the
    rest by a Lambert series in powers of z = q^(a+N) < z*, whose M-th
    term is about z^M: so M is near L / sqrt(lam L) = sqrt(L/lam), as N
    is, against L/lam terms for the definition alone.  N is the least
    n >= 0 with n > sqrt(L/lam) - a.  Neither needs care in rounding: the
    bounds use the N and W the routine takes.

    Beside the first term or factor, whose 1/(1 - q^t) the value itself
    carries, the rounding bounds the routines derive grow like (N+1)/(1-q)
    units of 2^-W, times logarithms: the divisors 1 - q^m and 1 - x of the
    m-th and n-th terms are about m (1-q) and n (1-q), and each step adds
    up to 2 units of drift.  So W adds the bits of (N+1)/(1-q) to
    _SERIES_W, and the rounding stays below the 1e-31 left beside the
    truncation however close q is to 1.  So the routines take the simpler
    of two valid bounds where the other is only sometimes less: the drift
    3 + 2N, and gamma_q_hp's tail term B.  Over every double q, the share
    of either in the error bound stays below 1e-35 of max(|value|, 1),
    which moves a bound of at least T by 1e-10 of itself, and a digit
    count only where err/scale lies that close to a power of ten.
    """
    lam = -math.log(q)
    n = max(0, math.floor(math.sqrt(-_LOG_TRUNCATION / lam) - a) + 1)
    return n, _SERIES_W + int((n + 1) / (1 - q)).bit_length()


# The Bernoulli numbers B_2..B_2K, K = 15, of ``_psi_diff``'s
# Euler-Maclaurin closure, as exact integer pairs.  15 corrections take the
# head to N + x >= 12 at T = 1e-25; K = 12 and 18 (N + x >= 15.5 and 10.4)
# time the same within 5%, interleaved, as the mpmath set-up and assembly
# outweigh a head term or a Horner step.
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
              (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
              (-236364091, 2730), (8553103, 6), (-23749461029, 870),
              (8615841276005, 14322))
# ln(|B_2K| / 2K), the last correction's coefficient, and 2K
_PSI_LOG_C = math.log(abs(_BERNOULLI[-1][0]) / (2 * len(_BERNOULLI) * _BERNOULLI[-1][1]))
_PSI_2K = 2 * len(_BERNOULLI)
# The closure's least N + x (at 1/(N+x)^2 <= 1/64 its Horner sums err by
# less than 2 units)
_PSI_MIN_A = 8
# psi_k's head target never falls below 2^-(W+4), a sixteenth of a unit of
# the rounding its result carries anyway
_LOG_HEAD_FLOOR = -(_SERIES_W + 4) * math.log(2)
# floor(B_2j / (2j) 2^W) for j = K down to 1, at W = _SERIES_W
_BERNOULLI_FIXED = tuple((b_num << _SERIES_W) // (2 * j * b_den)
                         for j, (b_num, b_den) in reversed(tuple(enumerate(_BERNOULLI, 1))))
# As raw mpfs: EULER_GAMMA_HP at _SERIES_PREC bits, T = _TRUNCATION, T/10
# rounded up, and psi_k's head floor 2^-(W+4)
_EULER_MPF = from_str(EULER_GAMMA_HP, _SERIES_PREC, _NEAR)
_TRUNCATION_MPF = from_float(_TRUNCATION)
_TRUNCATION_TENTH = mpf_div(_TRUNCATION_MPF, from_int(10), _ERR_PREC, _UP)
_HEAD_FLOOR_MPF = from_man_exp(1, -_SERIES_W - 4)


def _psi_head(x, log_gap, log_target) -> int:
    """The head length N of ``_psi_diff`` for S(x, x + g), from the doubles
    x, ln g and ln target: the least N >= 1 with a = N + x >= _PSI_MIN_A
    for which the closure's remainder bound c (a^-2K - (a+g)^-2K),
    c = |B_2K| / 2K, is at most target.  (One term at least, so that
    ``terms_used`` never reads 0.)

    That bound is below c a^-2K, free of g, and below 2K c g a^(-2K-1),
    small for small g; a is at least the lesser root of the two, rounded up
    by _FLOAT_ROUND_UP, which exceeds the rounding of the few double
    logarithms and the exp that form it.
    """
    root = math.exp(min((_PSI_LOG_C - log_target) / _PSI_2K,
                        (math.log(_PSI_2K) + _PSI_LOG_C + log_gap - log_target) / (_PSI_2K + 1)))
    return max(1, math.ceil(max(_PSI_MIN_A, _FLOAT_ROUND_UP * root) - x))


def _psi_diff(x_num, y_num, den, n):
    """S(x, y) = sum_{i>=0} [1/(i+x) - 1/(i+y)] = psi(y) - psi(x) for the
    exact rationals 0 < x = x_num/den < y = y_num/den, and a bound on its
    error besides the truncation, for the head length N = n from
    ``_psi_head``.

    The head i < N is summed in W = _SERIES_W bits of fixed point, and the
    rest, with a = N + x, b = N + y, g = y - x, by the Euler-Maclaurin closure
    ln(b/a) + (1/a - 1/b)/2 + sum_{j<=K} (B_2j / 2j) (a^-2j - b^-2j)
    (DLMF 2.10.1; the Bernoulli numbers of DLMF 24.2 in _BERNOULLI).  The
    summand f(s) = 1/(s+x) - 1/(s+y) is completely monotone, so the
    remainder after j corrections, an integral of f^(2j+2) against
    B_(2j+2) minus a periodic Bernoulli function, has the sign of B_(2j+2),
    which alternates in j: the remainders after K - 1 and after K
    corrections have opposite signs and differ by the K-th correction, so
    the remainder after K is below it, and ``_psi_head`` sizes N so that
    the K-th is below the target.  (It is below the first omitted one too,
    by the same argument one step on.)

    Rounding, in units of 2^-W.  A head term is the exact rational
    den g / ((i den + x_num) (i den + y_num)), g = y_num - x_num, floored:
    the head errs by less than N.  (1/a - 1/b)/2 is one such floor, and so
    are z = 1/a^2 and 1/b^2.  Each correction sum
    h(z) = sum_j c_j z^j, c_j = B_2j / 2j, is the integer Horner scheme
    A_K = C_K, A_j = C_j + floor(A_(j+1) Z 2^-W), h = floor(A_1 Z 2^-W) over
    C_j = floor(c_j 2^W) and Z, z's floor.  Against the exact partial sums
    a_j = c_j + z a_(j+1), each below d_j = sum_(i>=j) |c_i| z^(i-j), a step
    adds less than 2 units (C_j's floor and its own) and d_(j+1) (Z's error
    times a_(j+1)) to z' = z + 2^-W times the error carried, so h errs by
    less than 1 + d_1 + sum_(j<K) z'^j (2 + d_(j+1)) + z'^K units, which
    grows with z and is below 1.12 at z <= 1/64 (a >= _PSI_MIN_A).  So the
    fixed-point part errs by less than N + 5 units, exactly 2^-W (N + 5) as
    a raw mpf.  ln(b/a) is one libmp log at P = _SERIES_PREC bits of the
    rational b/a rounded once to P bits (a log, at half the cost of a
    log1p).  Rounding b/a moves the log by at most 2^-P, absolutely, the
    log's own rounding by 2^-P |log|, and the sum with the fixed-point
    part rounds once, by 2^-P (|fixed| + |log|) at most; ``_assembly``
    counts 2^(4-P) for each of fixed, log and a part of size 1.  Both
    results are raw mpfs.
    """
    w, prec = _SERIES_W, _SERIES_PREC
    gap = y_num - x_num
    num = den * gap << w
    s = sum(num // ((i * den + x_num) * (i * den + y_num)) for i in range(n))
    a, b = n * den + x_num, n * den + y_num  # N + x and N + y, times den
    s += num // (2 * a * b)
    for big, sign in ((a, 1), (b, -1)):
        z = (den * den << w) // (big * big)
        h = 0
        for c in _BERNOULLI_FIXED:
            h = c + (h * z >> w)
        s += sign * (h * z >> w)
    fixed = from_man_exp(s, -w)
    log = mpf_log(from_rational(b, a, prec, _NEAR), prec, _NEAR)
    return (mpf_add(fixed, log, prec, _NEAR),
            _err_sum(from_man_exp(n + 5, -w), _assembly(prec, fixed, log, fone)))


def psi_hp(t) -> HPValue:
    """psi(t) as psi_k(t) at k = 1, where ln k and /k are exact."""
    return _psi_k_hp(t, 1)


def psi_p_hp(t, p) -> HPValue:
    """psi_p(t) = ln p - sum_{n=0}^{p} 1/(n+t) = ln p - S(t, t + p + 1).

    The double t is exactly m/d.  Where p + 1 <= N, the head length of
    ``_psi_diff`` at T/10 (T = _TRUNCATION), the finite sum is taken as
    defined, each term the rational d / (m + n d) floored in W bits of fixed
    point, so it errs by less than p + 1 units of 2^-W.  Otherwise
    ``_psi_diff`` sums N terms and closes the rest, so the cost is flat in
    p.  The target T/10 keeps the error within 10^-26, where the definition
    certifies as many digits as the working precision allows.

    Assembly, at P = _SERIES_PREC bits: ln p is one libmp log of the exact
    p, and ln p - S one subtraction, each rounded once, so they err by at
    most 2^-P |ln p| and 2^-P (|ln p| + |S|), which ``_assembly`` counts
    (S is exact in the definition's branch, and carries its own bound
    from ``_psi_diff`` otherwise).
    """
    _require_positive("t", t)
    p = _check_p(p)
    n = _psi_head(t, math.log(p + 1), _LOG_TRUNCATION - math.log(10))
    m, d = float(t).as_integer_ratio()
    prec, w = _SERIES_PREC, _SERIES_W
    log_p = mpf_log(from_int(p), prec, _NEAR)
    if p < n:
        num = d << w
        s = from_man_exp(sum(num // f for f in range(m, m + (p + 1) * d, d)), -w)
        err, n = from_man_exp(p + 1, -w), p + 1
    else:
        s, err = _psi_diff(m, m + (p + 1) * d, d, n)
        err = _err_sum(err, _TRUNCATION_TENTH)
    v = mpf_sub(log_p, s, prec, _NEAR)
    return _hp(v, _err_sum(err, _assembly(prec, log_p, s)), _SERIES_DPS, n)


def psi_q_hp(t, q) -> HPValue:
    """psi_q(t) = -ln(1-q) + ln q S, S = sum_{n>=0} x_n / (1-x_n),
    x_n = q^(t+n).

    The first N terms, N from ``_q_split`` at a = t, are summed one by one.
    The rest, with z = q^(t+N), is the Lambert series
    sum_{m>=1} z^m / (1-q^m): expand each term geometrically and sum over
    n first.  Its terms after the M-th sum to at most
    z^(M+1) / ((1-q^(M+1)) (1-z)), and M is the least for which lam times
    that is below T = _TRUNCATION, lam = -ln q.  terms_used is N + M.

    Set-up: L = ln q is one libmp log at W bits, and y = q^t and
    z = q^(t+N) are e^(t L) and e^((t+N) L), t + N and both products
    rounded to W bits: their exponents err by at most 1.5 2^-W of their
    size, so y and z by at most 1.5 x |ln x| 2^-W <= 0.56 units of 2^-W for
    x = y, z, and by half a unit for their own rounding.  So X_0 and Z,
    their fixed-point floors, are within 3 units.

    Rounding, in units of 2^-W.  Head: the x_n are W-bit fixed-point
    values, x_0 within 3 units and the rest within D = ``_q_drift(N)``.
    A term (X_n 2^W) // (2^W - X_n) errs by less than one unit for the
    floor and 2 e / (1-x_n)^2 for X_n's error e, while D 2^-W < (1-x_n)/2,
    which holds whenever the bound below is under 1/2.  As
    1/(1-x)^2 <= 1 + 2x/(1-x)^2 and 2x/(1-x)^2 falls along n and
    integrates to 2y / (lam (1-y)), y = x_0, the head errs by less than
    N + 6/(1-y)^2 + 2 D (N + 2y / (lam (1-y))) units.  Where
    1 - q^t < 2^-_GUARD_BITS, fixed point would keep fewer than _SERIES_PREC
    bits of 1 - x_0 (none once q^t rounds to 1).  The test is the double
    -expm1(t ln q) < 2^-32: either branch is sound on both sides, so its
    rounding only moves which is taken.  The n = 0 term is then
    e^(tL) / (1 - e^(tL)), the denominator by ``_one_minus_exp``, which
    the exponent's error moves by at most 2^-W relative; with the three
    roundings it is within 8 units of 2^-W relative, and y above is
    q^(t+1), e^(tL) q rounded to W bits.

    Tail: Z = floor(z 2^W) is within 3 units, and
    Z_m = floor(Z_{m-1} Z / 2^W) within 4m: a step adds at most
    3 z^(m-1) for Z's error and one unit for the floor to z times the error
    carried.  Q_m, q^m by the same recurrence from Q = floor(q 2^W), is
    within 2m.  With a_m = 1 - q^m >= m lam / (1 + m lam), the term
    (Z_m 2^W) // (2^W - Q_m) errs by less than 1 + 8m/a_m + 4m z^m / a_m^2
    units while 2m 2^-W <= a_m/2, which holds as lam > 2^-53 for a double
    q.  Summed over m <= M, with m/a_m <= 1/lam + m and
    m/a_m^2 <= 1/(m lam^2) + 2/lam + m, the tail errs by less than
    M + 8 (M/lam + M(M+1)/2) + 4 (-ln(1-z)/lam^2 + 2z/(lam (1-z)) + z/(1-z)^2)
    units.  The stop test multiplies Z_{M+1} + 4(M+1) by an integer
    K >= lam / (T (1-z)) and compares it with 2^W - Q_{M+1} - 2(M+1), so a
    stop certifies the tail.  |L| multiplies the errors of both sums; it
    is within 2^-W of |ln q|, which the margin of _FLOAT_ROUND_UP covers.

    K and the bounds are evaluated in doubles, with 1 - y taken as
    (2^W - X_0 - 3) 2^-W and z as (Z + 3) 2^-W, and rounded up by
    _FLOAT_ROUND_UP.

    Assembly, at P = _SERIES_PREC bits: ln(1-q) is one log of the exact
    1 - q, L S one product and v their difference, each rounded once, so
    they err by at most 2^-P |ln(1-q)|, 2^-P |L S| (L's own error adds
    2^-(W+1) |L S|) and 2^-P (|ln(1-q)| + |L S|), which ``_assembly``
    counts.
    """
    _require_positive("t", t)
    _check_q(q)
    n, w = _q_split(t, q)
    t_, q_ = from_float(t), from_float(q)
    log_q = mpf_log(q_, w, _NEAR)
    x_t = mpf_mul(t_, log_q, w, _NEAR)
    y = mpf_exp(x_t, w, _NEAR)
    z = mpf_exp(mpf_mul(mpf_add(t_, from_int(n), w, _NEAR), log_q, w, _NEAR), w, _NEAR)
    s, head = 0, fzero
    if -math.expm1(t * math.log(q)) < 2.0**-_GUARD_BITS:  # 1 - q^t < 2^-32
        head = mpf_div(y, _one_minus_exp(x_t, w), w, _NEAR)
        y, s = mpf_mul(y, q_, w, _NEAR), to_fixed(head, w)
    drift = _q_drift(n)
    one, big_q, x = 1 << w, to_fixed(q_, w), to_fixed(y, w)
    gap, lam = (one - x - 3) / one, -math.log(q)  # 1 - y at least gap
    for _ in range(1 if s else 0, n):  # s holds the n = 0 term already, or 0
        s += (x << w) // (one - x)
        x = x * big_q >> w
    big_z = z_m = to_fixed(z, w)
    z = (big_z + 3) / one  # at least z
    k = int(_FLOAT_ROUND_UP * lam / _TRUNCATION * (one / (one - big_z - 3))) + 1
    q_m = big_q
    for m in itertools.count(1):
        s += (z_m << w) // (one - q_m)
        z_m = z_m * big_z >> w
        q_m = q_m * big_q >> w
        if (z_m + 4 * m + 4) * k < one - q_m - 2 * m - 2:
            break
    prec = _SERIES_PREC
    log_s = mpf_mul(log_q, from_man_exp(s, -w), prec, _NEAR)
    log_1mq = mpf_log(mpf_sub(fone, q_), prec, _NEAR)
    v = mpf_sub(log_s, log_1mq, prec, _NEAR)
    units = _FLOAT_ROUND_UP * (
        n + 6 / gap**2 + 2 * drift * (n + 2 * (1 - gap) / (lam * gap))
        + m + 8 * (m / lam + m * (m + 1) / 2)
        + 4 * (-math.log1p(-z) / lam**2 + 2 * z / (lam * (1 - z)) + z / (1 - z) ** 2))
    rounding = mpf_mul(mpf_abs(log_q), _err_sum(from_float(units), mpf_shift(head, 3)),
                       _ERR_PREC, _UP)
    err = _err_sum(_TRUNCATION_MPF, mpf_shift(rounding, -w), _assembly(prec, log_1mq, log_s))
    return _hp(v, err, _SERIES_DPS, n + m)


def psi_k_hp(t, k) -> HPValue:
    """psi_k(t) by ``_psi_k_hp``."""
    return _psi_k_hp(t, k)


def _psi_k_hp(t, k) -> HPValue:
    """psi_k(t) = (ln k - gamma + S(1, 1 + u)) / k - 1/t, u = t/k, where
    S(1, 1 + u) = sum_{i>=1} u / (i (i+u)) by ``_psi_diff`` to within
    max(k T, 2^-(W+4)).

    The doubles t and k are exactly m/d and m_k/d_k, so u is the exact
    rational m d_k / (d m_k).  The sum itself carries N + 5 units of 2^-W,
    so a target k T below 2^-(W+4) would buy nothing but a longer head
    (25,708 terms at t = 1e300, k = 1e-100): the floor keeps the head at
    64 terms or fewer for every double k, and the truncation, divided by k
    with S, counts as T or as 2^-(W+4)/k.

    Assembly, at P = _SERIES_PREC bits: ln k, gamma (EULER_GAMMA_HP), their
    difference and its quotient by k are each rounded once, so the head
    (ln k - gamma)/k errs by at most 2^-P h, h = (|ln k| + gamma)/k, which
    ln k - gamma can cancel; 1/t and S/k are rounded once, and the two
    additions by 2^-P (h + |1/t| + |S/k|) at most.  ``_assembly`` counts
    h, 1/t and S/k; dividing S's own bound by the exact k keeps it a
    bound.
    """
    _require_positive("t", t)
    _require_positive("k", k)
    log_k = math.log(k)
    at_floor = _LOG_TRUNCATION + log_k < _LOG_HEAD_FLOOR
    n = _psi_head(1, math.log(t) - log_k,
                  _LOG_HEAD_FLOOR if at_floor else _LOG_TRUNCATION + log_k)
    m, d = float(t).as_integer_ratio()
    m_k, d_k = float(k).as_integer_ratio()
    den = d * m_k
    prec = _SERIES_PREC
    s, rounding = _psi_diff(den, den + m * d_k, den, n)
    k_ = from_float(k)
    log_k_ = mpf_log(k_, prec, _NEAR)
    head = mpf_div(mpf_sub(log_k_, _EULER_MPF, prec, _NEAR), k_, prec, _NEAR)
    inv_t = mpf_rdiv_int(1, from_float(t), prec, _NEAR)
    s = mpf_div(s, k_, prec, _NEAR)
    v = mpf_add(mpf_sub(head, inv_t, prec, _NEAR), s, prec, _NEAR)
    trunc = mpf_div(_HEAD_FLOOR_MPF, k_, _ERR_PREC, _UP) if at_floor else _TRUNCATION_MPF
    h = mpf_div(mpf_add(mpf_abs(log_k_), _EULER_MPF, _ERR_PREC, _UP), k_, _ERR_PREC, _UP)
    err = _err_sum(trunc, mpf_div(rounding, k_, _ERR_PREC, _UP), _assembly(prec, h, inv_t, s))
    return _hp(v, err, _SERIES_DPS, n)


def gamma_hp(t) -> HPValue:
    """Gamma(t) as Gamma_k(t) at k = 1, by ``_gamma_k_trapezoid``."""
    return _gamma_k_trapezoid(t, 1)


def gamma_p_hp(t, p) -> HPValue:
    """Gamma_p(t) as the raw finite product p! p^t / (t(t+1)...(t+p)).

    The double t is exactly m/d, d a power of two, so the denominator is
    d^-(p+1) times the product of the integers m + n d, which ``_product``
    forms within p + 1 units of 2^-W relative.

    Assembly, at P = _SERIES_PREC bits: p! is one libmp factorial, p^t one
    ``_exp_t_log``, within half an ulp and 2^-(P+3), and their product and
    its quotient by the exact integer product are rounded once each, so v
    errs by less than 3 2^-P relative besides, which ``_assembly`` counts
    as 2^(4-P) |v|.
    """
    _require_positive("t", t)
    p = _check_p(p)
    prec, w = _SERIES_PREC, _SERIES_W
    m, d = float(t).as_integer_ratio()
    prod, exp = _product(range(m, m + (p + 1) * d, d), w)
    exp -= (p + 1) * (d.bit_length() - 1)
    p_ = from_int(p)
    fact, power = mpf_factorial(p_, prec, _NEAR), _exp_t_log(float(t), p_, math.log(p), prec)
    v = mpf_div(mpf_mul(fact, power, prec, _NEAR), from_man_exp(prod, exp), prec, _NEAR)
    err = _err_sum(mpf_mul(mpf_abs(v), from_man_exp(p + 1, -w), _ERR_PREC, _UP),
                   _assembly(prec, v))
    return _hp(v, err, _SERIES_DPS, p + 1)


def gamma_q_hp(t, q) -> HPValue:
    """Gamma_q(t) = (1-q)^(1-t) prod_{j>=0} (1 - q^(j+1)) / (1 - q^(t+j)).

    The first N factors, N from ``_q_split`` at a = min(1, t), are
    multiplied one by one.  The log of the rest is the Lambert series
    sum_{m>=1} (z_b^m - z_a^m) / (m (1-q^m)), z_a = q^(N+1), z_b = q^(s+N)
    with s = t (or t + 1, below), by ln prod_{j>=0} (1 - z q^j) = -sum_{m>=1} z^m / (m (1-q^m)) (Gasper
    and Rahman, Basic Hypergeometric Series, 2nd ed., 2004, section 1.3).
    With z = max(z_a, z_b), its terms after the M-th sum to at most
    z^(M+1) / ((M+1) (1-q^(M+1)) (1-z)), and M is the least for which that
    is below T = _TRUNCATION.  The sum is exponentiated once, with the
    power of 1 - q (below).  terms_used is N + M.

    Rounding, in units of 2^-W.  Head: the powers q^(j+1) and q^(t+j) are
    W-bit fixed-point values, the first within 3 units and the rest within
    D = ``_q_drift(N)``, so the factor 1 - x errs by less than e/(1-x)
    relative for x's error e.  With x = y q^j and lam = -ln q, x/(1-x)
    falls along j and integrates to -ln(1-y)/lam, so over the N factors
    these sum to less than 3/(1-y) + D (N - ln(1-y)/lam), for y = q and for
    y = q^t.  Each product is a mantissa and a binary exponent: once the
    mantissa passes 2W bits it is shifted down to W + 1, which errs by less
    than 2^-W relative, at most once per factor.  The relative errors e_a
    of the numerator and e_b of the denominator are at most twice these
    sums, and the quotient's at most 2 (e_a + e_b), while both sums are
    below 1/4, which holds whenever the bound is under 1/2.  Where
    1 - q^t < 2^-32, by the test of ``psi_q_hp`` and for its reason, the
    product is taken at s = t+1, with y = q^(t+1), and
    Gamma_q(t) = Gamma_q(t+1) (1-q) / (1 - q^t), the last factor formed by
    ``_one_minus_exp`` of t L within 8 units of 2^-W relative, as in
    ``psi_q_hp``.  Otherwise s = t.

    Tail: Z_a and Z_b are the floors of z_a, one libmp integer power at W
    bits, and of z_b = e^((s+N) L), formed as z is in ``psi_q_hp``, and
    within 3 units; their m-th powers, by the recurrence
    P_m = floor(P_{m-1} Z / 2^W), within 4m, as in ``psi_q_hp``; Q_m, q^m
    from Q = floor(q 2^W), is within 2m.  With a_m = 1 - q^m >=
    m lam / (1 + m lam), the term ((P_m^b - P_m^a) 2^W) // (m (2^W - Q_m))
    errs by less than 1 + 16/a_m + 4 |z_b^m - z_a^m| / a_m^2 units while
    2m 2^-W <= a_m/2.  Summed over m <= M, with 1/a_m <= 1/(m lam) + 1 and
    |z_b^m - z_a^m| <= z^m, the log errs by less than
    M + 16 ((1 + ln M)/lam + M) + 4 B units, where
    B = (pi^2/6) z/lam^2 - 2 ln(1-z)/lam + z/(1-z).  (z^m m lam |s-1|
    bounds |z_b^m - z_a^m| too, less near s = 1, which ``_q_split`` makes
    harmless.)  The stop
    test multiplies max(P_{M+1}^a, P_{M+1}^b) + 4(M+1) by an integer
    K >= 1/(T (1-z)) and compares it with (M+1) (2^W - Q_{M+1} - 2(M+1)),
    so a stop certifies the tail.  So the log errs by at most x, T plus
    these units, and the ratio by at most e^x - 1 <= x (1 + x) relative.

    K and the bounds are evaluated in doubles, with 1 - y taken as
    (2^W - Y - 3) 2^-W, Y = floor(y 2^W), and z as
    (max(Z_a, Z_b) + 3) 2^-W, and rounded up by _FLOAT_ROUND_UP.

    Assembly, at P = _SERIES_PREC bits.  1 - t need not be exact, so the
    power of 1 - q is (1-q) (1-q)^-t, and the log tail, exact as a raw mpf,
    joins its exponent: (1-q)^-t e^tail is one ``_exp_t_log`` of the exact
    1 - q, within half an ulp and 2^-(P+3) however large t is.  The head's
    ratio is one rational rounded once, and the two products and the
    quotient by 1 - q^t (where lifted) are rounded once each, so v errs by
    less than 3 2^-P relative besides the bounds above, which
    ``_assembly`` counts as 2^(4-P) |v|.
    """
    _require_positive("t", t)
    _check_q(q)
    lift = -math.expm1(t * math.log(q)) < 2.0**-_GUARD_BITS  # take the product at t+1
    n, w = _q_split(1 if lift else min(1, t), q)
    t_, q_ = from_float(t), from_float(q)
    log_q = mpf_log(q_, w, _NEAR)
    x_t = mpf_mul(t_, log_q, w, _NEAR)
    y = mpf_exp(x_t, w, _NEAR)
    first = None  # 1 - q^t, where the product is taken at t+1
    if lift:
        first, y = _one_minus_exp(x_t, w), mpf_mul(y, q_, w, _NEAR)
    z_a = mpf_pow_int(q_, n + 1, w, _NEAR)
    z_b = mpf_exp(mpf_mul(mpf_add(t_, from_int(n + lift), w, _NEAR), log_q, w, _NEAR), w, _NEAR)
    drift = _q_drift(n)
    one, big_q, big_y = 1 << w, to_fixed(q_, w), to_fixed(y, w)
    gaps = (1 - q, (one - big_y - 3) / one)  # at most 1 - q and 1 - y
    # the factors 1 - q^(j+1) and 1 - q^(t+j), each times 2^W
    prod_num, exp_num = _product(_one_minus_powers(big_q, big_q, n, w), w)
    prod_den, exp_den = _product(_one_minus_powers(big_y, big_q, n, w), w)
    big_a, big_b = to_fixed(z_a, w), to_fixed(z_b, w)
    big_z = max(big_a, big_b)
    z = (big_z + 3) / one  # at least max(z_a, z_b)
    k = int(_FLOAT_ROUND_UP / _TRUNCATION * (one / (one - big_z - 3))) + 1
    pow_a, pow_b, q_m, log_tail = big_a, big_b, big_q, 0
    for m in itertools.count(1):
        log_tail += ((pow_b - pow_a) << w) // (m * (one - q_m))
        pow_a = pow_a * big_a >> w
        pow_b = pow_b * big_b >> w
        q_m = q_m * big_q >> w
        if (max(pow_a, pow_b) + 4 * m + 4) * k < (m + 1) * (one - q_m - 2 * m - 2):
            break
    prec = _SERIES_PREC
    one_minus_q = mpf_sub(fone, q_)
    power = _exp_t_log(-t, one_minus_q, math.log1p(-q), prec, from_man_exp(log_tail, -w))
    # both products carry the same factor 2^(nW), which cancels
    ratio = mpf_shift(from_rational(prod_num, prod_den, prec, _NEAR), exp_num - exp_den)
    v = mpf_mul(mpf_mul(one_minus_q, power, prec, _NEAR), ratio, prec, _NEAR)
    if first:
        v = mpf_div(v, first, prec, _NEAR)
    lam = -math.log(q)
    amp = sum(3 / gap + drift * (n - math.log(gap) / lam) for gap in gaps)
    b_sum = math.pi**2 / 6 * z / lam**2 - 2 * math.log1p(-z) / lam + z / (1 - z)
    head = math.ldexp(4 * (2 * n + amp + (2 if first else 0)), -w)
    tail = math.ldexp(m + 16 * ((1 + math.log(m)) / lam + m) + 4 * b_sum, -w) + _TRUNCATION
    rel = _FLOAT_ROUND_UP * (head + (1 + head) * tail * (1 + tail))
    err = _err_sum(mpf_mul(mpf_abs(v), from_float(rel), _ERR_PREC, _UP), _assembly(prec, v))
    return _hp(v, err, _SERIES_DPS, n + m)


@functools.lru_cache(maxsize=8)
def _fixed_exp(w):
    """The function of an integer E <= 0 that returns exp(E 2^-W) 2^W,
    rounded down, within 1 + 2^-19 units of 2^-W, for W = w; E = 0 gives
    2^W exactly.

    It works in P = W + _GUARD_BITS bits, a unit being 2^-P until the last
    step.  E is reduced by LN2, ln 2 within 2 units (one ulp of mpf_ln2,
    and to_fixed's floor), to the integers n and R with
    -E 2^-W = (n LN2 + R) 2^-P, 0 <= R < LN2.  Then
    exp(-R 2^-P) = c(i) f(j) exp(-s) for the top 8 bits i <= 177, the next
    8 bits j and the rest s < 2^-16 of R 2^-P, where c(i) = exp(-i 2^-8)
    and f(j) = exp(-j 2^-16) are tables built once per W by repeated
    multiplication from one mpf_exp each, within 2 units: a step adds at
    most 3 units, so entry i is within 4i.

    exp(-s) = sum_m s^(2m)/(2m)! - s sum_m s^(2m)/(2m+1)!.  Both sums take
    their terms from one running term, floored at each division by m and
    each multiplication by s^2 (itself within a unit), until it is 0, so
    their length K <= P/32 + 1 follows W.  Each term is within 3 units and
    the untaken ones sum to less than 4, so exp(-s) is within
    3K + 6 < P/8 + 9 units.  All factors are at most 1, so their product
    is within 4 (177 + 255) + 1 + P/8 + 9 units of exp(-R 2^-P) 2^P, and
    scaling it by 2^-n keeps the reduction's relative error of at most
    2n 2^-P below 2 units.  The result, the product shifted down by
    P + n + _GUARD_BITS bits, is within 1 unit of 2^-W for the final floor
    plus (1740 + P/8) 2^-32 < 2^-19 while P < 2^15 (the trapezoid takes W
    below 2,300).  For n > W the result is 0 and exp(E 2^-W) 2^W is below
    a unit.
    """
    g = _GUARD_BITS
    p = w + g
    one = 1 << p
    ln2 = to_fixed(mpf_ln2(p), p)
    coarse, fine = [one], [one]
    step = to_fixed(mpf_exp(from_man_exp(-1, -8), p), p)
    for _ in range(ln2 >> p - 8):
        coarse.append(coarse[-1] * step >> p)
    step = to_fixed(mpf_exp(from_man_exp(-1, -16), p), p)
    for _ in range(255):
        fine.append(fine[-1] * step >> p)
    low = (1 << p - 16) - 1

    def exp(e):
        n, r = divmod(-e << g, ln2)
        s = r & low
        s2 = s * s >> p
        even = odd = one
        a, m = s2, 2
        while a:
            a //= m
            even += a
            a //= m + 1
            odd += a
            a = a * s2 >> p
            m += 2
        small = even - (s * odd >> p)  # exp(-s)
        return (coarse[r >> p - 8] * fine[r >> p - 16 & 255] >> p) * small >> p + g + n

    return exp


def gamma_k_quad(t, k) -> HPValue:
    """Gamma_k(t) by ``_gamma_k_trapezoid``."""
    return _gamma_k_trapezoid(t, k)


def _trapezoid_sizing(t_num, k_num, w):
    """The step K = kh' 2^W, an integer, of ``_gamma_k_trapezoid`` at
    u = t_num/k_num >= _LIFT_TO and W = w.  The strip angle theta = kd
    that sizes it stays here: the bound below holds whatever theta, so the
    caller needs the step alone.

    With Y = u (-ln cos theta), a step kh' <= 2 pi theta / X, X >= lam + Y,
    makes the aliasing bound 2 cos(theta)^(-u) / (e^(2 pi theta/kh') - 1) at
    most 2 e^Y / (e^(lam+Y) - 1) = 2 / (e^lam - e^-Y) < 2 / (e^lam - 1),
    whatever theta and u (``_ALIASING_BOUND``): a shorter step only shrinks
    it.  The longest such step is longest where theta / (lam + Y) is
    largest, so theta is the best of theta_0 2^(-i/4), i = 0, 1, ...,
    theta_0 = sqrt(2 lam/u), which is the best for small theta, where Y is
    about u theta^2 / 2; as u >= 64, theta_0 < 1.36 < pi/2.  Y is convex
    and increasing in theta, so theta >= c (lam + Y) holds on an interval
    for every c and the ratio rises to a single maximum and then falls, and
    as Y > u theta^2 / 2 the maximum lies below theta_0.  The candidates
    are tried in order, and the first that does not raise the ratio ends
    the search, with the previous one chosen and its Y kept for the step.
    The search ends, as the ratio falls to 0 with theta: it stops by the
    fourth candidate on every sizing seen.

    u, theta^2 and kh' 2^W leave the double range (u reaches about 4e631),
    so all is done in doubles from ln u and in integers:

    - ln u is math.log of the exact integers t_num and k_num, within 2^-39;
    - Y = phi^2 g(theta), phi^2 = theta^2 u = exp(2 ln theta + ln u) and
      g(theta) = -ln(cos theta) / theta^2 = -log1p(-2 sin^2(theta/2)) / theta^2,
      which is taken as its limit 1/2 below theta = 2^-26 (it is
      1/2 + theta^2/12 + ..., so 1/2 is within 2^-54); so the double Y is
      within 2^-38 relative, and X = lam + _STEP_ROUND_UP Y exceeds lam + Y
      by more than X's rounding and that of 2 pi / X, as X <= 250 and Y > 0.8
      (phi >= 1.3 and g >= 1/2) and math.tau is below 2 pi;
    - K = floor(theta (2 pi / X) 2^W) is formed exactly from the integer
      ratios of the two doubles, so kh' = K 2^-W is at most 2 pi theta / X.
    """
    log_u = math.log(t_num) - math.log(k_num)

    def exponent(theta):
        """u (-ln cos theta) as phi^2 g(theta)."""
        g = 0.5 if theta < 2.0**-26 else -math.log1p(-2 * math.sin(theta / 2) ** 2) / theta**2
        return math.exp(2 * math.log(theta) + log_u) * g

    theta0 = math.sqrt(2 * _QUAD_LAM) * math.exp(-log_u / 2)
    best = 0.0
    for i in itertools.count():
        a = theta0 * 2 ** (-i / 4)
        y_a = exponent(a)
        ratio = a / (_QUAD_LAM + y_a)
        if ratio <= best:
            break
        theta, y, best = a, y_a, ratio
    n_theta, d_theta = theta.as_integer_ratio()
    n_c, d_c = (math.tau / (_QUAD_LAM + _STEP_ROUND_UP * y)).as_integer_ratio()
    return (n_theta * n_c << w) // (d_theta * d_c)


def _gamma_k_trapezoid(t, k) -> HPValue:
    """Gamma_k(t) = integral_0^inf x^(t-1) exp(-x^k/k) dx by the trapezoid
    rule, with an a-priori error bound.

    The functional equation Gamma_k(t+k) = t Gamma_k(t) first lifts t until
    u = t/k >= _LIFT_TO: the node count depends on u alone and falls as u
    grows, so a few multiplications save nodes.  The doubles t and k are
    exactly m/d and m_k/d_k, so t + ik = (m d_k + i m_k d)/(d d_k) and the
    lift is a product of integers, which ``_product`` forms within L units
    of 2^-W relative for L lifts (a tiny t takes 64 factors, of up to 1,080
    bits at k = 1); dividing by it errs by less than L + 1.  The lifted t and u are
    each rounded once, when they become mpfs.  With x = e^s and s = (ln t)/k + sigma,
    which puts the integrand's peak at sigma = 0,

        Gamma_k(t) = exp(u (ln t - 1)) integral g(sigma) d sigma,
        g(sigma) = exp(u (k sigma - (e^(k sigma) - 1))),

    over the real line.  g is analytic in the strip |Im sigma| < pi/(2k),
    and on the line Im sigma = d the integral of |g| is the real-line
    integral times cos(kd)^(-u).  So the trapezoid rule with step h errs by
    at most 2 cos(kd)^(-u) / (e^(2 pi d/h) - 1), relative (Trefethen and
    Weideman, "The exponentially convergent trapezoidal rule", SIAM Review
    56 (2014), Thm 5.1).  ``_trapezoid_sizing`` chooses d, in doubles
    rounded outward and in integers, and hands over only the step
    kh' = K 2^-W, K an integer, for which the bound at that d is at most
    about T/2, T = 1e-25.

    The nodes walk out from the peak in W = P + _GUARD_BITS bits of fixed
    point, P the working precision below, a unit being 2^-W, with one
    integer exponential per node, ``_fixed_exp``.  With U = floor(u 2^W), the exact u's floor, and
    u' = U 2^-W, node j's exponent
    E = u (k sigma_j - e^(k sigma_j) + 1) is the integer A - X + U, where:

    - A, u' k sigma_j, adds floor(U K 2^-W), negated on the - side, at
      each node, so it is within j units at node j;
    - X, u' e^(k sigma_j), starts at U and is floor(X B 2^-W) at each
      node, B within 2 units of b 2^W, b = e^(+-kh'): B = _fixed_exp(W)(-K)
      is within 1 + 2^-19 units of e^(-kh') 2^W, and 2^(2W) / B, rounded
      to the nearest integer, within 1/2 + e^(2kh') (1 + 2^-18) < 1.9
      units of e^(kh') 2^W, as kh' <= 2 pi theta_0 / lam, which is at most
      2 pi sqrt(2 / (64 lam)) < 0.145 as u >= _LIFT_TO.  A step
      multiplies X's error by b and adds at most 2 X 2^-W + 1 units, so at
      node j it is at most j max(1, b^j) (2u' + 1) units, which grows on
      the + side, where b > 1; as u' >= 64, that is below
      j (3 max(X, U) 2^-W);
    - U: the exact u is within a unit of u', which moves E by at most
      |E|/u' units and the node by at most |E| e^E/u' < 1/(64 e) unit;
    - the node G = _fixed_exp(W)(E) adds less than 1 + 2^-19 units, below
      2, besides g times the units by which E errs.

    So node j is within r = j ((3 max(X, U) >> W) + 2) + 4 units of
    g(sigma_j) 2^W.  r grows along a side, so a side of j nodes errs by at
    most j r units in all, and as the sum is at least g(0) = 1, exact as
    2^W, so much is a relative bound.

    On each side the ratio of neighbouring nodes falls outward (the
    exponent is concave), so once a node g is below its predecessor g'
    the rest of that side sums to at most g^2/(g' - g).  The stop test
    takes g at G + r and g' at G' - r, which enclose the exact nodes: a
    side stops when 2 (G + r)^2 < floor(2^W T/8) (G' - G - 2r), which
    proves twice its exact tail below T/8 (relative, as the sum is at
    least 1).  So the argument holds for the rounded nodes, and the
    widening moves no stop in practice: at the stop g is about
    1e-26 or more, still at least 2^51 units at W = 135, where r is below
    2^14, and the two grow together with t/k, so the test moves by a
    relative 2^-37 or less.

    libmp takes only what carries the value, at the working precision P
    (W = P + _GUARD_BITS): u and ln t, and exp(u (ln t - 1)) times one
    rational that folds in the integers kh' 2^W, the node sum, 1/k and the
    lift.  u, ln t, ln t - 1 and their product are each rounded once, so
    the exponent errs by at most 2^-P (2 |u (ln t - 1)| + u), as
    |u ln t| <= |u (ln t - 1)| + u; the exponential, the rational and
    their product add 1.5 2^-P relative.  ``certified_digits`` counts the
    aliasing bound, both tails, the rounding of the nodes and of the lift,
    and, for this assembly, ``_assembly`` of the exponent, u twice and 1,
    all relative to the value.
    Raises ConvergenceError if a side needs more than _QUAD_MAX_NODES nodes.
    """
    _require_positive("t", t)
    _require_positive("k", k)
    m, d = float(t).as_integer_ratio()
    m_k, d_k = float(k).as_integer_ratio()
    t_num, k_num = m * d_k, m_k * d  # t and k times d d_k = 2^e
    e = (d * d_k).bit_length() - 1
    lifts = max(0, -((t_num - _LIFT_TO * k_num) // k_num))
    # the exponents are of size u = t/k and needed to _QUAD_DPS digits
    # after the point, so the working precision adds the digits of t/k.  It
    # counts them before the lift, so a lifted call (u in [64, 65) after it)
    # works at 30 or 31 digits; the assembly bound takes the lifted u and
    # exponent, so it charges what that precision leaves after the point
    prec = dps_to_prec(_QUAD_DPS + max(0, int(math.log10(t) - math.log10(k))))
    w = prec + _GUARD_BITS
    lift, lift_exp = _product(range(t_num, t_num + lifts * k_num, k_num), w)
    t_num += lifts * k_num
    big_kh = _trapezoid_sizing(t_num, k_num, w)
    one, big_u = 1 << w, (t_num << w) // k_num
    da = big_u * big_kh >> w
    exp = _fixed_exp(w)
    b_minus = exp(-big_kh)  # e^(-kh') 2^W, and e^(+kh') 2^W rounded to nearest
    total, nodes, units = one, 1, 0
    stop = one // (8 * _INV_TAIL)  # floor(2^W T/8)
    for sign, b in ((1, ((1 << 2 * w) + b_minus // 2) // b_minus), (-1, b_minus)):
        a, x, g_prev = 0, big_u, one
        for j in range(1, _QUAD_MAX_NODES + 1):
            a += sign * da     # u k sigma_j
            x = x * b >> w     # u e^(k sigma_j)
            g = exp(a - x + big_u)
            total += g
            if 2 * g * g < stop * (g_prev - g):  # implied by the next test
                r = j * ((3 * max(x, big_u) >> w) + 2) + 4
                if 2 * (g + r) ** 2 < stop * (g_prev - g - 2 * r):
                    break
            g_prev = g
        else:
            raise ConvergenceError(f"Gamma_k(t={t}, k={k}) needs more than "
                                   f"{_QUAD_MAX_NODES} nodes on one side")
        # the side's rounding and, rounded up, twice its tail
        units += j * r - (-2 * (g + r) ** 2 // (g_prev - g - 2 * r))
        nodes += j
    u = from_rational(t_num, k_num, prec, _NEAR)
    power = mpf_mul(u, mpf_sub(mpf_log(from_man_exp(t_num, -e), prec, _NEAR), fone, prec, _NEAR),
                    prec, _NEAR)
    # kh' times the node sum over k and the lift, one rational:
    # K total 2^-2W d_k / (m_k lift 2^(lift_exp - e L))
    ratio = from_rational(big_kh * total * d_k, m_k * lift, prec, _NEAR)
    v = mpf_mul(mpf_exp(power, prec, _NEAR), mpf_shift(ratio, e * lifts - lift_exp - 2 * w),
                prec, _NEAR)
    rel = _err_sum(from_float(_ALIASING_BOUND), from_man_exp(units + lifts + 1, -w),
                   _assembly(prec, power, u, u, fone))
    return _hp(v, mpf_mul(v, rel, _ERR_PREC, _UP), _QUAD_DPS, nodes)


def cross_validate(fast_value: float, hp: HPValue, rel_tol: float) -> bool:
    """True iff |fast - hp| <= rel_tol * max(|hp|, 1), decided exactly; False
    for a fast value that is not finite.

    With v = hp.value and B = rel_tol max(|v|, 1), an exact product of two
    mantissas, the test is v - B <= fast <= v + B.  fast is a double, 53
    bits, so fast <= x exactly when fast <= x rounded down to 53 bits, and
    x <= fast exactly when x rounded up is: two correctly rounded libmp
    additions and two exact comparisons, whatever the exponents.
    """
    _require_positive("rel_tol", rel_tol)
    if not math.isfinite(fast_value):
        return False
    fast, v = from_float(fast_value), hp.value._mpf_
    bound = mpf_mul(from_float(rel_tol), mpf_abs(v) if v[2] + v[3] > 0 else fone)
    return (mpf_le(mpf_sub(v, bound, 53, round_ceiling), fast)
            and mpf_le(fast, mpf_add(v, bound, 53, round_floor)))
