"""The three deformed Gamma families and their psi functions.

Definitions implemented here:

    Gamma_p(t) = p! p^t / (t (t+1) ... (t+p)),             integer p >= 1,
    Gamma_q(t) = (1-q)^(1-t) prod_{n>=0} (1-q^(n+1))/(1-q^(t+n)),  0 < q < 1,
    Gamma_k(t) = integral_0^inf exp(-x^k/k) x^(t-1) dx,    k > 0,

together with their logarithmic derivatives psi_p, psi_q, psi_k.

The p-family costs the same at every p.  By the identities

    Gamma_p(t) = p! p^t Gamma(t) / Gamma(t+p+1),
    psi_p(t)   = ln p - psi(t+p+1) + psi(t),

ln Gamma_p is math.lgamma(t) plus a Stirling difference and psi_p is
core_special's psi(t) minus an asymptotic difference, both series taken at
arguments >= p+1 >= 11, where their truncation error is below the unit
roundoff.  The ln p terms cancel analytically, so no two quantities of size
p ln p are subtracted, and p enters only through 1/p.  For p <= 9 the
definitions' finite sums are summed directly.

The q-family also costs the same at every q.  With c = -ln q, psi_q and
ln Gamma_q sum a short direct block (about ten terms at tol = 1e-12, each
formed from expm1, never from 1 - q^x by subtraction) and close the rest
by Euler-Maclaurin, in the manner of Moak's q-Stirling formula.  The
closure's integrals are -ln(1 - e^(-ca))/c and a difference of two
dilogarithms, whose zeta(2)/c parts cancel analytically.  Its Bernoulli
corrections are Horner passes in w = 1/(e^(ca) - 1) over polynomials with
their weights B_2k/(2k)! multiplied in at import, and its err_bound is
the last retained correction.  Each function walks its block size up, a
term at a time from ``_q_start``'s estimate, until that bound meets tol.

ln Gamma_q keeps the one per-parameter cache of the fast path.  Half of
its work at block size n does not depend on t: the numerators
q^(j+1) - 1 of the direct block, the closure's corrections at c(n+1) and
one dilogarithm there.  ``_log_gamma_q_fixed`` forms that half, cached
by functools.lru_cache under (c, n), in at most _Q_FIXED_CACHE entries of
n + 4 <= _MAX_TERMS + 4 floats each.  A sweep over t at one q forms it
once per block size and pays only the t-dependent half at each point.
The cached values come from the same floating-point operations on the
same values as the uncached evaluation, so every result is bit for bit
the same with or without the cache.  psi_q, the p- and k-families and the
lemma layer cache nothing.

Gamma_k uses the closed identity Gamma_k(t) = k^(t/k - 1) Gamma(t/k),
combined in log space.  The oracle module keeps the raw products and the
defining integral as independent cross-checks.

Each deformation parameter is a plain number, an integer p or a real q
or k, checked by the function that takes it.  Domain boundaries are
strict: q = 0, q = 1, t = 0, k = 0 are rejected, never clamped.
"""

from __future__ import annotations

import functools
import math

from .core_special import (
    BERNOULLI,
    DEFAULT_TOL,
    EULER_GAMMA,
    EvalResult,
    _ASYMPTOTIC_FROM,
    _MAX_TERMS,
    _check_p,
    _check_q,
    _odd_power_series,
    _psi_scaled,
    _psi_tail,
    _require_finite,
    _require_positive,
    psi_series,
)

__all__ = [
    "gamma_p",
    "log_gamma_p",
    "psi_p",
    "gamma_q",
    "log_gamma_q",
    "psi_q",
    "gamma_k",
    "log_gamma_k",
    "psi_k",
]


# ---------------------------------------------------------------------------
# p-family
# ---------------------------------------------------------------------------

_STIRLING = tuple(b / ((2 * k) * (2 * k - 1)) for k, b in enumerate(BERNOULLI, 1))

# Above this argument of ln Gamma, t in log_gamma_p and u = t/k in
# log_gamma_k, just short of the 2.56e305 where math.lgamma overflows, both
# take Stirling's form; its first omitted term, 1/(12 t), is below 4e-307.
_LGAMMA_STIRLING_FROM = 2.5e305


def _stirling_tail(r: float) -> float:
    """S(x) at r = 1/x: S(x) = sum_k B_2k / (2k (2k-1) x^(2k-1)), so that
    ln Gamma(x) = (x - 1/2) ln x - x + ln(2 pi)/2 + S(x) + R, where |R| is at
    most the first omitted term |B_16|/(240 x^15) <= 3.0e-17 at x >= 10."""
    return _odd_power_series(_STIRLING, r)


def _log1p_ratio(y: float) -> float:
    """log1p(y)/y, continued by its limit 1 at y = 0."""
    return math.log1p(y) / y if y else 1.0


def log_gamma_p(t: float, p: int) -> float:
    """ln Gamma_p(t) = ln p! + t ln p - sum_{j=0}^{p} ln(t + j), at a cost
    independent of p.

    For p <= 9 the p+1 logarithms are summed directly.  For larger p the
    identity Gamma_p(t) = p! p^t Gamma(t)/Gamma(t+p+1) gives
    ln Gamma_p(t) = ln Gamma(t) + B, where B = ln p! + t ln p - ln Gamma(t+p+1)
    is the Stirling difference

        (p+1/2) log1p(1/p) - (p+t+1/2) log1p((t+1)/p) + t + S(p+1) - S(p+t+1)

    and ln Gamma(t) is math.lgamma.  S is the Stirling series truncated
    after B_14; for real x > 0 its remainder is bounded by the first omitted
    term, which is below 3.0e-17 at x >= 10, so B is exact to rounding.
    p enters only through 1/p, formed by integer true division, so p may
    exceed the double range.

    Above _LGAMMA_STIRLING_FROM, where math.lgamma overflows and
    (t+1/2) log1p(y), y = (t+1)/p, may too, ln Gamma(t) is Stirling's
    (t-1/2) ln t - t + ln(2 pi)/2.  Its -t cancels the bracket's t, and its
    (t+1/2) ln t is merged with the bracket's -(t+1/2) log1p(y).  Where
    y > 1, p < t+1 fits in a double and the pair is
    (t+1/2)(ln p - log1p((p+1)/t)), near the value when t >> p.  Elsewhere
    the pair and the bracket's -(t+1) log1p(y)/y are grouped as
    (t+1/2)(ln t - 1 - log1p(y)), near the value, plus
    t + 1/2 - (t+1) log1p(y)/y, of size t y.  That lead is the value, as
    the rest, -ln t + ln(2 pi)/2 + (p+1/2) log1p(1/p) + S(p+1) - S(p+t+1),
    is below 712 < 2^962, half an ulp of any double above 2^1015: for
    t >= 1, ln Gamma_p(t) grows with p (by t log1p(1/p) - log1p(t/(p+1))
    >= 0, as (1 + 1/p)^t >= 1 + t/p), so it is at least ln Gamma_10(t) >=
    t ln 10 - 11 ln(t+10) > 5.7e305 > 2^1015 here.  Raises OverflowError
    when the value exceeds the double range.
    """
    _require_positive("t", t)
    p = _check_p(p)
    if p < _ASYMPTOTIC_FROM:
        direct = math.fsum(math.log(t + j) for j in range(p + 1))
        return _require_finite(math.lgamma(p + 1) + t * math.log(p) - direct,
                               "log_gamma_p(t) at t = {0}, p = {1}", t, p)
    x = 1 / p
    y = (t + 1.0) * x
    if t > _LGAMMA_STIRLING_FROM:
        if y > 1.0:
            lead = ((t + 0.5) * (math.log(p) - math.log1p((p + 1) / t))
                    - (t + 1.0) * _log1p_ratio(y))
        else:
            lead = ((t + 0.5) * (math.log(t) - 1.0 - math.log1p(y))
                    + (t + 0.5 - (t + 1.0) * _log1p_ratio(y)))
        return _require_finite(lead, "log_gamma_p(t) at t = {0}, p = {1}", t, p)
    # p log1p(x) = log1p(x)/x and p log1p(y) = (t+1) log1p(y)/y
    bracket = (_log1p_ratio(x) + 0.5 * math.log1p(x)
               - (t + 1.0) * _log1p_ratio(y) - (t + 0.5) * math.log1p(y) + t
               + _stirling_tail(1 / (p + 1)) - _stirling_tail(x / (1.0 + y)))
    return math.lgamma(t) + bracket


def gamma_p(t: float, p: int) -> float:
    """Gamma_p(t) for t > 0, integer p >= 1, evaluated in log-space.

    The numerator p! p^t overflows doubles already for p around 170, so the
    factors are combined as logarithms and exponentiated once at the end.
    """
    return math.exp(log_gamma_p(t, p))


def _psi_p_gap(t: float, p: int) -> float:
    """D = psi(t+p+1) - ln p, the gap psi(t) - psi_p(t), for an integer
    p >= 10 that ``psi_p`` has checked: log1p((t+1)/p) - 1/(2 x2) - T(x2) at
    x2 = t+p+1, with T the asymptotic series of psi through B_14, exact to
    rounding at x2 >= 10.  p enters only through 1/p."""
    x = 1 / p
    y = (t + 1.0) * x
    r2 = x / (1.0 + y)  # 1/x2
    return math.log1p(y) - 0.5 * r2 - _psi_tail(r2)


def psi_p(t: float, p: int) -> float:
    """psi_p(t) = ln p - sum_{n=0}^{p} 1/(n + t), at a cost independent of p.

    For p <= 9 the p+1 terms are summed directly.  For larger p the identity
    psi_p(t) = psi(t) - D with D = psi(t+p+1) - ln p from ``_psi_p_gap``
    and psi(t) from core_special's psi_series at the default tolerance.  As
    in ``log_gamma_p``, p enters only through 1/p.
    """
    _require_positive("t", t)
    p = _check_p(p)
    if p < _ASYMPTOTIC_FROM:
        return _require_finite(math.log(p) - math.fsum(1.0 / (t + n) for n in range(p + 1)),
                               "psi_p(t) at t = {0}, p = {1}", t, p)
    return psi_series(t).value - _psi_p_gap(t, p)


# ---------------------------------------------------------------------------
# q-family
# ---------------------------------------------------------------------------
#
# With c = -ln q and w(z) = 1/(e^z - 1), both functions are sums over n >= 0:
#
#   psi_q(t)      = -ln(1-q) - c sum_n f(t+n),                f(y) = w(cy),
#   ln Gamma_q(t) = (1-t) ln(1-q) + sum_n [g(n+t) - g(n+1)],  g(y) = -ln(1 - e^(-cy)).
#
# f, g and hence +-(g(x+t) - g(x+1)) are completely monotone, so after a
# short direct block each sum is closed by Euler-Maclaurin with remainder at
# most the last retained correction.  The derivatives are polynomials in w:
# f^(j)(y) = (-c)^j A_j(w) and g^(j)(y) = (-c)^j A_(j-1)(w), where
# A_j(w(z)) = Li_{-j}(e^(-z)).  As c -> 0, c^(j+1) A_j(w(cy)) -> j!/y^(j+1),
# so the block length the closure needs does not depend on q.

#: Bernoulli corrections of the q-family closures (B_2 .. B_10).
_Q_CORRECTIONS = 5


def _negative_polylogs(count):
    """Coefficients of A_0 .. A_(count-1), lowest power first, where
    A_j(w) = sum_i coeffs[i] w^(i+1).  A_0(w) = w and, since
    dw/dz = -(w + w^2), A_(j+1)(w) = (w + w^2) A_j'(w).  Every coefficient
    is a non-negative integer, so evaluating A_j at w > 0 cancels nothing."""
    polys = [(1.0,)]
    for _ in range(count - 1):
        nxt = [0.0] * (len(polys[-1]) + 1)
        for i, coeff in enumerate(polys[-1]):
            nxt[i] += (i + 1) * coeff
            nxt[i + 1] += (i + 1) * coeff
        polys.append(tuple(nxt))
    return tuple(polys)


_A = _negative_polylogs(2 * _Q_CORRECTIONS)
# ln lead per order for _q_start: lead = |B_K2| (K2-1-order)!/K2!, K2 = 2 _Q_CORRECTIONS
_Q_LOG_LEAD = tuple(math.log(abs(BERNOULLI[_Q_CORRECTIONS - 1])
                             / (2 * _Q_CORRECTIONS * (2 * _Q_CORRECTIONS - 1) ** order))
                    for order in (0, 1))
# B_2k/(2k)! A_(2k-1-order) for k = 1 .. K, per order, highest power first.
_WEIGHTED = tuple(tuple(tuple(b / math.factorial(2 * k) * a for a in reversed(coeffs))
                        for k, (b, coeffs) in enumerate(zip(BERNOULLI, _A[1 - order::2]), 1))
                  for order in (0, 1))


def _em_corrections(w: float, c: float, order: int) -> tuple[float, float]:
    """Bernoulli corrections of the Euler-Maclaurin closure

        sum_{n>=0} F(a+n) = int_a^inf F + F(a)/2 - sum_{k<=K} B_2k/(2k)! F^(2k-1)(a) + R,

    K = _Q_CORRECTIONS, F = f (order 0) or g (order 1), at w = w(ca).
    F^(2k-1)(a) is -c^(2k-1) A_(2k-1-order)(w), and each term is a Horner
    pass in w over B_2k/(2k)! A_(2k-1-order), from _WEIGHTED.  Returns their
    sum and the magnitude of the last, which bounds |R| when +-F is completely monotone."""
    total = 0.0
    scale = -c
    c2 = c * c
    for coeffs in _WEIGHTED[order]:
        poly = 0.0
        for coeff in coeffs:
            poly = (poly + coeff) * w
        last = scale * poly
        total -= last
        scale *= c2
    return total, abs(last)


def _bose(z: float) -> float:
    """w(z) = 1/(e^z - 1), without overflow for large z."""
    return math.exp(-z) / -math.expm1(-z)


# Below the smallest normal double c t loses precision and 1/(c t) overflows, so
# there the j = 0 summands use their limits c w(ct) -> 1/t, ln(1-q^t) -> ln c + ln t.
_MIN_NORMAL = 2.0 ** -1022


def _q_start(order: int, x0: float, c: float, tol: float) -> int:
    """Block size n <= _MAX_TERMS from which psi_q (f, order 0) and
    log_gamma_q (g, order 1) walk up, a term at a time, to the first n, or
    the cap, whose Euler-Maclaurin bound meets tol.  The start is the
    smaller of two sizes, both computed in log space: where
    lead/(x0 + n)^power, the size of the last correction as c -> 0, falls
    to tol (power = K2 - order and lead = |B_K2| (K2-1-order)!/K2!, with
    K2 = 2 _Q_CORRECTIONS), and where e^(-c(x0 + n)) does.  Once
    e^(-c(x0 + n)) is small the correction falls like the summands, as that
    factor times about 2e-8 c^10, so at the second size it is below tol
    when c < 5.8 (q > 0.003); at smaller q each further term shrinks it by
    the factor q.  The start can undershoot (by one term in 1-3% of calls
    at tol 1e-12 to 1e-20, by up to 156 at 1e-40), so only the walk checks
    the bound.
    """
    _require_positive("tol", tol)
    log_tol = math.log(tol)
    estimate = min(math.exp((_Q_LOG_LEAD[order] - log_tol) / (2 * _Q_CORRECTIONS - order)),
                   -log_tol / c) - x0
    return max(1, math.ceil(min(estimate, _MAX_TERMS)))


_LN2 = math.log(2.0)
_ZETA2 = math.pi ** 2 / 6.0
# R(z) = z^2/4 - sum_k B_2k z^(2k+1) / (2k (2k+1)!), the regular part of
# Li_2(e^(-z)) = zeta(2) + z ln z - z - R(z) (|z| < 2 pi).
_R_SERIES = tuple(b / (2 * k * math.factorial(2 * k + 1)) for k, b in enumerate(BERNOULLI, 1))
# Li_2(x) = u - u^2/4 + sum_k B_2k u^(2k+1) / (2k+1)!,  u = -ln(1-x).
_LI2_SERIES = tuple(b / math.factorial(2 * k + 1) for k, b in enumerate(BERNOULLI, 1))


def _dilog_regular(z: float) -> float:
    """R(z) for 0 < z <= ln 2; the first omitted term is below 2.4e-18."""
    return 0.25 * z * z - z * z * _odd_power_series(_R_SERIES, z)


def _dilog_exp(z: float) -> float:
    """Li_2(e^(-z)) for z > 0.  Above ln 2 the Bernoulli series in
    u = -ln(1 - e^(-z)) <= ln 2 is used; its first omitted term is below
    3.9e-17."""
    if z <= _LN2:
        return _ZETA2 + z * math.log(z) - z - _dilog_regular(z)
    u = -math.log1p(-math.exp(-z))
    return u - 0.25 * u * u + u * u * _odd_power_series(_LI2_SERIES, u)


def _log_gamma_q_integral(t: float, q: float, c: float, a: float, dilog_1: float) -> float:
    """(1-t) ln(1-q) + int_a^inf [g(x+t) - g(x+1)] dx, where the integral is
    [Li_2(e^(-c(a+t))) - Li_2(e^(-c(a+1)))]/c.  dilog_1 is the t-free term
    at z2 = c(a+1) in the form its own side of ln 2 takes, _dilog_exp(z2)
    above and _dilog_regular(z2) below; where z2 <= ln 2 < c(a+t), the
    _dilog_exp form is formed here.

    Each dilogarithm is close to zeta(2) when c(a+t) and c(a+1) are small,
    so there the zeta(2)/c terms are cancelled analytically, and so are the
    ln c terms of z ln z against ln(1-q):

        (1-t) ln((1-q)/c) + (t-1) ln(a+t) + (a+1) log1p((t-1)/(a+1))
        - (t-1) - [R(c(a+t)) - R(c(a+1))]/c.
    """
    z1 = c * (a + t)
    z2 = c * (a + 1.0)
    if z1 > _LN2 or z2 > _LN2:
        if z2 <= _LN2:
            dilog_1 = _dilog_exp(z2)
        return (1.0 - t) * math.log1p(-q) + (_dilog_exp(z1) - dilog_1) / c
    s = t - 1.0
    return (-s * math.log((1.0 - q) / c) + s * math.log(a + t)
            + (a + 1.0) * math.log1p(s / (a + 1.0)) - s
            - (_dilog_regular(z1) - dilog_1) / c)


#: Entries kept by ``_log_gamma_q_fixed``: a sweep at one q needs one or two.
_Q_FIXED_CACHE = 8


@functools.lru_cache(maxsize=_Q_FIXED_CACHE)
def _log_gamma_q_fixed(c: float, n: int) -> tuple:
    """What ``log_gamma_q`` needs at block n and that does not depend on t,
    as (corr_1, b_1, numerators, dilog_1):

    - corr_1, b_1: ``_em_corrections`` of g at w(c(n+1)), the g(x+1) half
      of the closure's corrections;
    - numerators: expm1(-c(j+1)) for j = 0 .. n, the n+1 numerators of the
      direct block's ratios;
    - dilog_1: the closure integral's dilogarithm term at c(n+1), as
      ``_log_gamma_q_integral`` takes it.

    Cached under (c, n), c = -ln q: they are the only inputs these
    expressions read, so a sweep at one q forms them once per block size
    (once or twice in all).  Each is formed by the same floating-point
    operations on the same values as in the uncached evaluation (-c is
    ln q exactly, negation being exact), so every result is bit for bit
    what it was without the cache.  The cache keeps at most
    _Q_FIXED_CACHE entries of n + 4 floats each, n <= _MAX_TERMS, so at
    most _Q_FIXED_CACHE (_MAX_TERMS + 4) floats.
    """
    z = c * (n + 1.0)
    expm1, ln_q = math.expm1, -c
    numerators = tuple([expm1(ln_q * (j + 1.0)) for j in range(n + 1)])
    # w(z) as _bose forms it; ln_q (n+1) is -z exactly, so the last
    # numerator is its expm1(-z)
    corr_1, b_1 = _em_corrections(math.exp(-z) / -numerators[n], c, 1)
    return corr_1, b_1, numerators, _dilog_exp(z) if z > _LN2 else _dilog_regular(z)


def log_gamma_q(t: float, q: float, tol: float = DEFAULT_TOL) -> EvalResult:
    """ln Gamma_q(t) = (1-t) ln(1-q) + sum_{n>=0} ln((1-q^(n+1))/(1-q^(n+t))),
    at a cost independent of q.

    A direct block of n terms, each the logarithm of a ratio of two expm1
    values, is followed by the Euler-Maclaurin closure of the rest
    (see ``_log_gamma_q_integral`` for its integral).  err_bound is the last
    retained Bernoulli correction, which bounds the remainder because each
    summand is, up to sign, completely monotone in n.  n is the first block
    size, walked up one term at a time from ``_q_start``'s estimate, whose
    bound meets tol; if the walk stops at the _MAX_TERMS cap, ``converged``
    is False.  Raises OverflowError when the value exceeds the double range.

    The half of each block that does not depend on t, the numerators
    q^(j+1) - 1, the g(x+1) corrections and one dilogarithm, comes from
    ``_log_gamma_q_fixed``, cached under (-ln q, n) in at most
    _Q_FIXED_CACHE entries: a sweep over t at one q forms it once, and
    every value, err_bound, terms_used and error is bit for bit what the
    uncached evaluation gives.
    """
    _require_positive("t", t)
    _check_q(q)
    ln_q = math.log(q)
    c = -ln_q

    # corrections of h(x) = g(x+t) - g(x+1) at x = n; the two last
    # corrections share their sign, so |last| of h is |b_t - b_1|
    n, bound = _q_start(1, min(t, 1.0), c, tol) - 1, math.inf
    while bound > tol and n < _MAX_TERMS:
        n += 1
        corr_t, b_t = _em_corrections(_bose(c * (n + t)), c, 1)
        corr_1, b_1, numerators, dilog_1 = _log_gamma_q_fixed(c, n)
        bound = abs(b_t - b_1)
    corr = corr_t - corr_1
    # h(j) = ln((1 - q^(j+1))/(1 - q^(j+t))); h(0) .. h(n-1) in any order,
    # as fsum rounds their exact sum once, and h(n) at half weight
    log, expm1 = math.log, math.expm1
    h = [log(numerators[j] / expm1(ln_q * (j + t))) for j in range(1, n)]
    h.append(log(numerators[0] / expm1(ln_q * t)) if c * t >= _MIN_NORMAL
             else log(-numerators[0]) - log(c) - log(t))
    h_n = log(numerators[n] / expm1(ln_q * (n + t)))
    value = _log_gamma_q_integral(t, q, c, n, dilog_1) + math.fsum(h) + 0.5 * h_n + corr
    what = "log_gamma_q(t) at t = {0}, q = {1}"
    return EvalResult(_require_finite(value, what, t, q), bound, n, bound <= tol)


def gamma_q(t: float, q: float, tol: float = DEFAULT_TOL) -> EvalResult:
    """Gamma_q(t) for t > 0, q in (0, 1).

    Truncation is controlled on the log scale (see ``log_gamma_q``); the
    reported err_bound is propagated to the value scale, and ``converged``
    is False when the _MAX_TERMS cap stopped the direct block.
    """
    r = log_gamma_q(t, q, tol)
    value = math.exp(r.value)
    return EvalResult(value, abs(value) * math.expm1(r.err_bound), r.terms_used, r.converged)


def psi_q(t: float, q: float, tol: float = DEFAULT_TOL) -> EvalResult:
    """psi_q(t) = -ln(1-q) + ln q * sum_{n>=0} q^(t+n) / (1 - q^(t+n)),
    at a cost independent of q.

    With c = -ln q the summand is f(t+n), f(y) = 1/(e^(cy) - 1), summed
    directly over a block of n terms; the rest is closed by Euler-Maclaurin
    with integral -ln(1 - e^(-ca))/c at a = t+n, whose logarithm is combined
    with -ln(1-q) into one log1p.  err_bound is c times the last retained
    Bernoulli correction, which bounds the remainder because f is completely
    monotone.  n is the first block size, walked up one term at a time from
    ``_q_start``'s estimate, whose bound meets tol; if the walk stops at the
    _MAX_TERMS cap, ``converged`` is False.  Raises OverflowError when the
    value exceeds the double range, as 1/t does at a subnormal t.
    """
    _require_positive("t", t)
    _check_q(q)
    c = -math.log(q)

    n, bound = _q_start(0, t, c, tol) - 1, math.inf
    while bound > tol and n < _MAX_TERMS:
        n += 1
        w = _bose(c * (t + n))
        corr, last = _em_corrections(w, c, 0)
        bound = c * last
    first = c * _bose(c * t) if c * t >= _MIN_NORMAL else 1.0 / t
    rest = math.fsum(_bose(c * (t + j)) for j in range(1, n)) + (0.5 * w + corr)
    # -ln(1-q) + c int_a^inf f = ln((1 - e^(-ca))/(1-q)) at a = t+n, written
    # as log1p(-q expm1(-c(a-1))/(1-q)): no cancellation at any q
    value = math.log1p(-q * math.expm1(-c * (t + n - 1.0)) / (1.0 - q)) - c * rest - first
    what = "psi_q(t) at t = {0}, q = {1}"
    return EvalResult(_require_finite(value, what, t, q), bound, n, bound <= tol)


# ---------------------------------------------------------------------------
# k-family
# ---------------------------------------------------------------------------

# math.e is e rounded down; e = math.e + _E_LO to about 1e-32.
_E_LO = 1.4456468917292502e-16


def _log_over_e(t: float) -> float:
    """ln t - 1 = ln(t/e), without the cancellation of ln t - 1 near t = e.
    Where |ln t - 1| < 1/2, t lies within a factor 2 of math.e, so
    t - math.e is exact (Sterbenz) and (t - math.e) - _E_LO is t - e to one
    rounding; its log1p over e is then within a few ulp."""
    d = math.log(t) - 1.0
    if abs(d) < 0.5:
        return math.log1p(((t - math.e) - _E_LO) / math.e)
    return d


def log_gamma_k(t: float, k: float) -> float:
    """ln Gamma_k(t) via the closed identity Gamma_k(t) = k^(t/k-1) Gamma(t/k).

    Below the smallest normal u = t/k, whose bits are then lost, the value is
    t (ln k - gamma)/k - ln t, from ln Gamma(u) = -ln u - gamma u + O(u^2).
    Above _LGAMMA_STIRLING_FROM it is the lead u (ln t - 1) of Stirling's
    form, with ln t - 1 from ``_log_over_e``.  The rest,
    -(ln t + ln k)/2 + ln(2 pi)/2 + O(1/u), is below 400 in magnitude, as
    ln t - ln k > 703 and both logarithms lie in [-745, 710].  No double t
    lies within 1.4e-16 of e, so |ln t - 1| > 5.3e-17, and the lead exceeds
    2.5e305 * 5.3e-17 > 2^960: the rest is below half an ulp of it.  Where
    t/k is inf, the lead is formed as t (ln t - 1)/k; the value is then
    finite only if t < e^2, so t (ln t - 1) does not overflow.  Raises
    OverflowError when the value exceeds the double range.
    """
    _require_positive("t", t)
    _require_positive("k", k)
    u = t / k
    if u < _MIN_NORMAL:
        return t * (math.log(k) - EULER_GAMMA) / k - math.log(t)
    if u > _LGAMMA_STIRLING_FROM:
        ln_t_1 = _log_over_e(t)
        value = u * ln_t_1 if u < math.inf else t * ln_t_1 / k
    else:
        value = (u - 1.0) * math.log(k) + math.lgamma(u)
    return _require_finite(value, "log_gamma_k(t) at t = {0}, k = {1}", t, k)


def gamma_k(t: float, k: float) -> float:
    """Gamma_k(t) for t > 0, k > 0, as exp(log_gamma_k(t, k)).

    Gamma(t/k) alone overflows once t/k > 171.6 although Gamma_k may not, so
    the identity is combined in log space; OverflowError is raised only when
    Gamma_k itself exceeds the double range.  The defining integral is
    validated against this path by the oracle's trapezoid rule; the
    identity follows from substituting u = x^k / k.
    """
    return math.exp(log_gamma_k(t, k))


def psi_k(t: float, k: float, tol: float = DEFAULT_TOL) -> EvalResult:
    """psi_k(t) = (ln k + psi(t/k))/k, the logarithmic derivative of the
    identity Gamma_k(t) = k^(t/k - 1) Gamma(t/k).

    The sum is core_special's psi_series at u = t/k with every term divided
    by k before it is summed, so nothing of size ln(1/k)/k cancels when k
    is small, and the shift is sized so that err_bound meets ``tol``
    after the division.  Raises OverflowError when the value exceeds the
    double range, as ln(t)/k does at t != 1 and a subnormal k.
    """
    _require_positive("t", t)
    _require_positive("k", k)
    return _psi_scaled(t, k, tol)
