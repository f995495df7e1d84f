"""Independent mpmath references for every quantity the benchmark checks,
and the rounding allowances granted to gammagen's double-precision results.

Nothing here calls gammagen.  The p- and k-families use exact identities
(loggamma/digamma of shifted arguments); the q-family uses an
Euler-Maclaurin closure of its series (polylogarithms of the deformation
variable), which is accurate for
every q in (0, 1), including the q -> 1 regime where ``mp.qgamma`` raises
``NoConvergence``.

Every reference returns ``(value, err)``: ``err`` bounds the reference's own
error.  ``allowance_*`` helpers return an absolute bound on the error of
the program's double-precision result: the program's series tolerance (its
reported err_bound cannot exceed it once converged) plus a rounding
allowance of ``(ceil(log2 n) + 8) * u * M``, where ``n`` is the number of
summed terms and ``M`` the sum of their absolute values; the q-family adds
the cancellation in ``1 - q^(n+a)`` (README, "How the allowances are
derived").
"""

from __future__ import annotations

import functools
import math

from mpmath import mp, mpf

DPS = 30
U = 2.0 ** -53                  # unit roundoff of IEEE double
SERIES_TOL = 1e-12              # gammagen's default series tail target
_REF_REL = mpf(10) ** -(DPS - 4)  # error of mp closed forms at DPS digits

# Euler-Maclaurin closure of the q-family sums (see _li_sum).
_EM_CORRECTIONS = 7
_EM_MIN_DIRECT = 16


def _k(n_terms) -> float:
    """Rounding multiplier for a sum of n_terms double terms."""
    return math.ceil(math.log2(max(2, n_terms))) + 8


def _rel(v):
    return _REF_REL * max(abs(v), 1)


# ---------------------------------------------------------------------------
# classical, p- and k-families: closed identities
# ---------------------------------------------------------------------------

def loggamma(t):
    with mp.workdps(DPS):
        v = mp.loggamma(mpf(t))
        return v, _rel(v)


def digamma(t):
    with mp.workdps(DPS):
        v = mp.digamma(mpf(t))
        return v, _rel(v)


def log_gamma_p(t, p):
    """ln Gamma_p(t) = ln Gamma(t) + ln p! + t ln p - ln Gamma(t+p+1)."""
    with mp.workdps(DPS + 10):
        t_ = mpf(t)
        v = (mp.loggamma(t_) + mp.loggamma(p + 1) + t_ * mp.log(p)
             - mp.loggamma(t_ + p + 1))
        return +v, _rel(v)


def psi_p(t, p):
    """psi_p(t) = ln p - psi(t+p+1) + psi(t)."""
    with mp.workdps(DPS + 10):
        t_ = mpf(t)
        v = mp.log(p) - mp.digamma(t_ + p + 1) + mp.digamma(t_)
        return +v, _rel(v)


def log_gamma_k(t, k):
    """ln Gamma_k(t) = (t/k - 1) ln k + ln Gamma(t/k)."""
    with mp.workdps(DPS):
        u = mpf(t) / mpf(k)
        v = (u - 1) * mp.log(mpf(k)) + mp.loggamma(u)
        return v, _rel(v)


def psi_k(t, k):
    """psi_k(t) = (ln k + psi(t/k)) / k."""
    with mp.workdps(DPS):
        k_ = mpf(k)
        v = (mp.log(k_) + mp.digamma(mpf(t) / k_)) / k_
        return v, _rel(v)


def gamma_p(t, p):
    with mp.workdps(DPS):
        v, _ = log_gamma_p(t, p)
        v = mp.exp(v)
        return v, _rel(v)


def gamma_k(t, k):
    """Gamma_k(t) = k^(t/k - 1) Gamma(t/k)."""
    with mp.workdps(DPS):
        k_ = mpf(k)
        u = mpf(t) / k_
        v = k_ ** (u - 1) * mp.gamma(u)
        return v, _rel(v)


def gamma(t):
    with mp.workdps(DPS):
        v = mp.gamma(mpf(t))
        return v, _rel(v)


def gamma_q_mp(t, q):
    """mp.qgamma; converges here only up to about q = 0.97."""
    with mp.workdps(DPS):
        v = mp.qgamma(mpf(t), mpf(q))
        return v, _rel(v)


# ---------------------------------------------------------------------------
# q-family: Euler-Maclaurin closure
# ---------------------------------------------------------------------------

def _negative_order_polys(count):
    """Integer coefficients of A_m with Li_{-m}(e^{-z}) = A_m(w), w = 1/(e^z - 1).

    A_0(w) = w and A_{m+1}(w) = A_m'(w) (w + w^2), since dw/dz = -(w + w^2)
    and d/dz Li_s(e^{-z}) = -Li_{s-1}(e^{-z}).  All coefficients are
    non-negative, so evaluating A_m cancels nothing.
    """
    polys = [[0, 1]]
    for _ in range(count - 1):
        prev = polys[-1]
        deriv = [i * c for i, c in enumerate(prev)][1:]
        nxt = [0] * (len(deriv) + 2)
        for i, c in enumerate(deriv):
            nxt[i + 1] += c
            nxt[i + 2] += c
        polys.append(nxt)
    return polys


_POLYS = _negative_order_polys(2 * _EM_CORRECTIONS + 3)


def _li_negative(m, w):
    """Li_{-m}(e^{-z}) for m >= 0, given w = 1/(e^z - 1)."""
    acc = mpf(0)
    for coeff in reversed(_POLYS[m]):
        acc = acc * w + coeff
    return acc


def _em_coefficients():
    with mp.workdps(DPS + 10):
        return [mp.bernoulli(2 * j) / mp.factorial(2 * j)
                for j in range(1, _EM_CORRECTIONS + 2)]


_EM_COEFFS = _em_coefficients()


def _li_sum(a, c, order):
    """sum_{n>=0} Li_order(e^{-c(n+a)}) for order in {0, 1}, and its error.

    Li_1(e^{-y}) = ln(1 + w) and Li_0(e^{-y}) = w, w = 1/(e^y - 1), are
    completely monotone in y, so after N terms summed directly the
    Euler-Maclaurin remainder is bounded by the first omitted correction.
    The integral is Li_{order+1}(e^{-c(N+a)})/c and the derivatives are
    d^m/dx^m Li_s(e^{-c x}) = (-c)^m Li_{s-m}(e^{-c x}).  Ten guard digits
    absorb the cancellation in 1 - e^{-y} for small y.
    """
    with mp.workdps(DPS + 10):
        def w_at(y):
            x = mp.exp(-y)
            return x / (1 - x)

        def li(w):
            return mp.log1p(w) if order == 1 else w

        s = mp.fsum(li(w_at(c * (n + a))) for n in range(_EM_MIN_DIRECT))
        z = c * (_EM_MIN_DIRECT + a)
        w = w_at(z)
        integral = mp.polylog(2, mp.exp(-z)) if order == 1 else mp.log1p(w)
        s += integral / c + li(w) / 2
        for j in range(1, _EM_CORRECTIONS + 1):
            m = 2 * j - 1
            s -= _EM_COEFFS[j - 1] * (-c) ** m * _li_negative(m - order, w)
        m = 2 * _EM_CORRECTIONS + 1
        rem = abs(_EM_COEFFS[_EM_CORRECTIONS] * c ** m * _li_negative(m - order, w))
    return +s, rem


@functools.lru_cache(maxsize=1024)
def _l_one(q):
    """L(1) of log_gamma_q, shared by every t at the same q."""
    with mp.workdps(DPS):
        return _li_sum(mpf(1), -mp.log(mpf(q)), 1)


@functools.lru_cache(maxsize=8192)
def log_gamma_q(t, q):
    """ln Gamma_q(t) = (1-t) ln(1-q) - L(1) + L(t), L(a) = sum_n Li_1(q^(n+a))."""
    with mp.workdps(DPS):
        t_, q_ = mpf(t), mpf(q)
        s1, r1 = _l_one(q)
        st, rt = _li_sum(t_, -mp.log(q_), 1)
        v = (1 - t_) * mp.log1p(-q_) - s1 + st
        return v, r1 + rt + _rel(v)


@functools.lru_cache(maxsize=8192)
def psi_q(t, q):
    """psi_q(t) = -ln(1-q) - c sum_n Li_0(q^(t+n)), c = -ln q."""
    with mp.workdps(DPS):
        t_, q_ = mpf(t), mpf(q)
        c = -mp.log(q_)
        s, r = _li_sum(t_, c, 0)
        v = -mp.log1p(-q_) - c * s
        return v, c * r + _rel(v)


# ---------------------------------------------------------------------------
# rounding allowances for the program's double results
# ---------------------------------------------------------------------------

def allowance_lgamma(t) -> float:
    """math.lgamma: a few ulps of the value, at least a few u absolute."""
    return 8 * U * (abs(math.lgamma(t)) + 1.0)


def allowance_log_gamma_p(t, p) -> float:
    """ln p! + t ln p - sum_{j<=p} ln(t+j): p+1 summed logarithms."""
    m = (math.lgamma(p + 1) + t * math.log(p)
         + math.lgamma(t + p + 1) - math.lgamma(t) + 2 * abs(math.log(t)) + 1.0)
    return _k(p + 1) * U * m


def allowance_psi_p(t, p) -> float:
    """ln p - sum_{n<=p} 1/(n+t): p+1 positive terms summing to about
    psi(t+p+1) - psi(t) <= ln(1 + (p+1)/t) + 1/t."""
    m = math.log(p) + math.log1p((p + 1) / t) + 1.0 / t + 1.0
    return _k(p + 1) * U * m


def _q_terms(q) -> int:
    """Terms the q-family product/series needs at tol 1e-12 (plan estimate)."""
    return min(10 ** 7, math.ceil(math.log(SERIES_TOL * (1 - q)) / math.log(q)) + 1)


def _cancellation_log(a, c) -> float:
    """sum_n (2 + z) e^-z / (1 - e^-z) at z = c(n+a), bounded by its first
    term plus (1/c) times the integral from ca.

    q^(n+a) is rounded to a relative (2 + z) u, and ln(1 - q^(n+a)) forms
    1 - q^(n+a) by subtraction, which turns that into an absolute error of
    (2 + z) u e^-z / (1 - e^-z).  As q -> 1 the sum grows like ln(1/(ca))/c.
    """
    b = c * a
    return (2 + b) / math.expm1(b) + (2 * max(0.0, -math.log(b)) + 4) / c


def _cancellation_psi(t, c) -> float:
    """c sum_n (2 + z) e^-z / (1 - e^-z)^2 at z = c(t+n): the same rounding
    of q^(t+n) seen through x/(1 - x), whose derivative is 1/(1 - x)^2.
    Bounded like _cancellation_log, using e^-z/(1-e^-z)^2 <= 1/z^2."""
    b = c * t
    return (c * (2 + b) / (4 * math.sinh(b / 2) ** 2)
            + 2 / b + max(0.0, -math.log(b)) + 4)


def allowance_log_gamma_q(t, q) -> float:
    """(1-t) ln(1-q) + sum_n [ln(1-q^(n+1)) - ln(1-q^(t+n))].  The absolute
    terms sum to L(1) + L(t) with L(a) <= Li_2(q^a)/c - ln(1-q^a) and
    Li_2 <= pi^2/6; on top comes the cancellation in 1 - q^(n+a)."""
    c = -math.log(q)

    def big_l(a):
        return math.pi ** 2 / (6 * c) - math.log1p(-(q ** a))

    m = abs((1 - t) * math.log1p(-q)) + big_l(1.0) + big_l(t) + 1.0
    cancel = _cancellation_log(1.0, c) + _cancellation_log(t, c)
    return SERIES_TOL + _k(_q_terms(q)) * U * m + U * cancel


def allowance_psi_q(t, q) -> float:
    """-ln(1-q) + ln q * sum_n x/(1-x), x = q^(t+n); c * sum <= c x0/(1-x0)
    + ln(1/(1-x0)) with x0 = q^t bounds the scaled terms, and the
    cancellation in 1 - x comes on top."""
    c = -math.log(q)
    x = q ** t
    m = abs(math.log1p(-q)) + c * x / (1 - x) - math.log1p(-x) + 1.0
    return SERIES_TOL + _k(_q_terms(q)) * U * m + U * _cancellation_psi(t, c)


def allowance_psi_series(t) -> float:
    """-gamma_E - 1/t + sum t/(n(n+t)) (fsum) + tail; the series' terms
    sum to psi(t+1) + gamma_E <= ln(1+t) + 1."""
    m = 1.0 / t + math.log1p(t) + 2.0
    return SERIES_TOL + 8 * U * m


def allowance_psi_k(t, k) -> float:
    """psi_k's own series in u = t/k, scaled by 1/k; terms as for psi."""
    u = t / k
    m = (abs(math.log(k)) + 1.0) / k + 1.0 / t + (math.log1p(u) + 2.0) / k
    return SERIES_TOL + 8 * U * m


def allowance_log_gamma_k(t, k) -> float:
    u = t / k
    return 8 * U * (abs((u - 1) * math.log(k)) + abs(math.lgamma(u)) + 1.0)


FAMILY_LOG_GAMMA = {"p": log_gamma_p, "q": log_gamma_q, "k": log_gamma_k}
FAMILY_PSI = {"p": psi_p, "q": psi_q, "k": psi_k}
FAMILY_LOG_GAMMA_ALLOWANCE = {"p": allowance_log_gamma_p,
                              "q": allowance_log_gamma_q,
                              "k": allowance_log_gamma_k}
FAMILY_PSI_ALLOWANCE = {"p": allowance_psi_p, "q": allowance_psi_q,
                        "k": allowance_psi_k}
