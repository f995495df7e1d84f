"""The three deformed Gamma families and their psi functions.

Definitions implemented here:

    Gamma_p(t) = p! p^t / (t (t+1) ... (t+p)),             integer p >= 1,
    Gamma_q(t) = (1-q)^(1-t) prod_{n>=0} (1-q^(n+1))/(1-q^(t+n)),  0 < q < 1,
    Gamma_k(t) = integral_0^inf exp(-x^k/k) x^(t-1) dx,    k > 0,

together with their logarithmic derivatives psi_p, psi_q, psi_k.

The p-family costs the same at every p.  By the identities

    Gamma_p(t) = p! p^t Gamma(t) / Gamma(t+p+1),
    psi_p(t)   = ln p - psi(t+p+1) + psi(t),

the first min(p+1, 10) factors (or terms) are summed directly and the rest
is closed by the Stirling series of ln Gamma and the asymptotic series of
psi, evaluated only at arguments >= 10, where their truncation error is
below the unit roundoff.  The ln p terms cancel analytically, so no two
quantities of size p ln p are subtracted.  The q-family sums its products
in log-space; Gamma_k uses the closed identity
Gamma_k(t) = k^(t/k - 1) Gamma(t/k).  The oracle module keeps the raw
products and the defining integral as independent cross-checks.

Domain boundaries are strict: q = 0, q = 1, t = 0, k = 0 are rejected,
never clamped.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import core_special
from .core_special import (
    DomainError,
    EvalResult,
    SeriesControl,
    default_series_control,
)

__all__ = [
    "PParam",
    "QParam",
    "KParam",
    "FamilyParam",
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


@dataclass(frozen=True)
class PParam:
    """Deformation parameter of the finite-product family: integer p >= 1."""

    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", _check_p(self.p))


@dataclass(frozen=True)
class QParam:
    """Deformation parameter of the q-family: real q strictly in (0, 1)."""

    q: float

    def __post_init__(self):
        _check_q(self.q)


@dataclass(frozen=True)
class KParam:
    """Deformation parameter of the k-family: real k > 0."""

    k: float

    def __post_init__(self):
        _check_k(self.k)


FamilyParam = Union[PParam, QParam, KParam]


def _check_t(t) -> None:
    if not t > 0:
        raise DomainError(f"t must be > 0 (got {t})")


def _check_p(p) -> int:
    try:
        p = operator.index(p)
    except TypeError:
        raise DomainError(f"p must be an integer >= 1 (got {p!r})") from None
    if p < 1:
        raise DomainError(f"p must be an integer >= 1 (got {p})")
    return p


def _check_q(q) -> float:
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie strictly in (0, 1) (got {q})")
    return q


def _check_k(k) -> None:
    if not k > 0:
        raise DomainError(f"k must be > 0 (got {k})")


# ---------------------------------------------------------------------------
# p-family
# ---------------------------------------------------------------------------

#: Terms of the p-family summed directly; the asymptotic closure starts here.
_P_DIRECT = 10

# Bernoulli numbers B_2 .. B_14.  At x >= _P_DIRECT the first omitted terms,
# |B_16|/(16*15 x^15) <= 3.0e-17 and |B_16|/(16 x^16) <= 4.5e-17, are below
# the unit roundoff 2^-53 = 1.1e-16.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
_STIRLING = tuple(b / ((2 * k) * (2 * k - 1)) for k, b in enumerate(_BERNOULLI, 1))
_PSI_ASYMPTOTIC = tuple(b / (2 * k) for k, b in enumerate(_BERNOULLI, 1))


def _even_power_series(coeffs, x: float) -> float:
    """sum_k coeffs[k-1] / x^(2k), by Horner's rule in 1/x^2."""
    z = 1.0 / (x * x)
    acc = 0.0
    for c in reversed(coeffs):
        acc = (acc + c) * z
    return acc


def _stirling_tail(x: float) -> float:
    """S(x) = sum_k B_2k / (2k (2k-1) x^(2k-1)), so that
    ln Gamma(x) = (x - 1/2) ln x - x + ln(2 pi)/2 + S(x) + R, |R| <= 3.0e-17
    for x >= _P_DIRECT."""
    return x * _even_power_series(_STIRLING, x)


def _psi_tail(x: float) -> float:
    """T(x) = sum_k B_2k / (2k x^(2k)), so that
    psi(x) = ln x - 1/(2x) - T(x) + R, |R| <= 4.5e-17 for x >= _P_DIRECT."""
    return _even_power_series(_PSI_ASYMPTOTIC, x)


def log_gamma_p(t: float, p: int) -> float:
    """ln Gamma_p(t) = ln p! + t ln p - sum_{j=0}^{p} ln(t + j), at a cost
    independent of p.

    The first m = min(p+1, 10) logarithms are summed directly.  For larger
    p the identity Gamma_p(t) = p! p^t Gamma(t)/Gamma(t+p+1) closes the
    rest: ln Gamma_p(t) = B + ln Gamma(t+m) - sum_{j<m} ln(t+j), where
    B = ln p! + t ln p - ln Gamma(t+p+1) is the Stirling difference

        (p+1/2) log1p(1/p) - (p+t+1/2) log1p((t+1)/p) + t + S(p+1) - S(p+t+1).

    S is the Stirling series truncated after B_14; for real x > 0 its
    remainder is bounded by the first omitted term, which is below
    3.0e-17 at x >= 10, so the closure is exact to rounding.
    """
    _check_t(t)
    p = _check_p(p)
    m = min(p + 1, _P_DIRECT)
    direct = math.fsum(math.log(t + j) for j in range(m))
    if m == p + 1:
        return math.lgamma(p + 1) + t * math.log(p) - direct
    bracket = ((p + 0.5) * math.log1p(1.0 / p)
               - (p + t + 0.5) * math.log1p((t + 1.0) / p) + t
               + _stirling_tail(p + 1.0) - _stirling_tail(p + t + 1.0))
    return bracket + math.lgamma(t + m) - direct


def gamma_p(t: float, p: int) -> float:
    """Gamma_p(t) for t > 0, integer p >= 1, evaluated in log-space.

    The numerator p! p^t overflows doubles already for p around 170, so the
    factors are combined as logarithms and exponentiated once at the end.
    """
    return math.exp(log_gamma_p(t, p))


def psi_p(t: float, p: int) -> float:
    """psi_p(t) = ln p - sum_{n=0}^{p} 1/(n + t), at a cost independent of p.

    The first m = min(p+1, 10) terms are summed directly.  For larger p the
    identity psi_p(t) = ln p - psi(t+p+1) + psi(t) closes the rest as
    ln p - psi(x2) + psi(x1) with x1 = t+m, x2 = t+p+1, evaluated as

        -log1p((t+1)/p) + 1/(2 x2) + T(x2) + ln x1 - 1/(2 x1) - T(x1).

    T is the asymptotic series of psi truncated after B_14; for real x > 0
    its remainder is bounded by the first omitted term, which is below
    4.5e-17 at x >= 10, so the closure is exact to rounding.
    """
    _check_t(t)
    p = _check_p(p)
    m = min(p + 1, _P_DIRECT)
    direct = math.fsum(1.0 / (t + n) for n in range(m))
    if m == p + 1:
        return math.log(p) - direct
    x1 = t + m
    x2 = t + p + 1.0
    closure = (-math.log1p((t + 1.0) / p) + 0.5 / x2 + _psi_tail(x2)
               + math.log(x1) - 0.5 / x1 - _psi_tail(x1))
    return closure - direct


# ---------------------------------------------------------------------------
# q-family
# ---------------------------------------------------------------------------

_CHUNK = 1 << 18


def _chunked_sum(total: int, piece) -> float:
    """Sum piece(lo, hi) over [0, total) in fixed-size chunks."""
    out = 0.0
    for lo in range(0, total, _CHUNK):
        out += piece(lo, min(lo + _CHUNK, total))
    return out


def _q_product_plan(t: float, q: float, ctrl: SeriesControl):
    """Number of product terms needed so the geometric log-tail is <= tol.

    Each factor satisfies |ln(1-q^(n+1)) - ln(1-q^(t+n))| <= C q^n with
    C = |q - q^t| / (1 - q^min(1,t)), so the tail past N terms is below
    C q^N / (1-q).
    """
    lnq = math.log(q)
    qt = math.exp(t * lnq)
    denom = 1.0 - (q if t >= 1.0 else qt)
    coeff = abs(q - qt) / denom if denom > 0.0 else math.inf

    if coeff == 0.0:  # t == 1: every factor is exactly 1
        return 1, coeff
    rhs = ctrl.tol * (1.0 - q) / coeff
    if rhs >= 1.0:
        needed = 1
    else:
        needed = max(1, math.ceil(math.log(rhs) / lnq))
    return min(needed, ctrl.max_terms), coeff


def log_gamma_q(t: float, q: float, ctrl: SeriesControl | None = None) -> EvalResult:
    """ln Gamma_q(t) as a log-sum; err_bound bounds the truncated log-tail."""
    if ctrl is None:
        ctrl = default_series_control()
    _check_t(t)
    _check_q(q)

    n_terms, coeff = _q_product_plan(t, q, ctrl)
    lnq = math.log(q)

    def piece(lo, hi):
        n = np.arange(lo, hi, dtype=np.float64)
        return float(np.sum(np.log1p(-np.exp((n + 1.0) * lnq))
                            - np.log1p(-np.exp((t + n) * lnq))))

    s = _chunked_sum(n_terms, piece)
    tail_bound = coeff * math.exp(n_terms * lnq) / (1.0 - q)
    value = (1.0 - t) * math.log1p(-q) + s
    return EvalResult(value, tail_bound, n_terms, tail_bound <= ctrl.tol)


def gamma_q(t: float, q: float, ctrl: SeriesControl | None = None) -> EvalResult:
    """Gamma_q(t) for t > 0, q in (0, 1).

    Truncation is controlled on the log scale (see ``log_gamma_q``); the
    reported err_bound is propagated to the value scale.  For q close to 1
    the geometric tail shrinks slowly and the budget may run out, in which
    case ``converged`` is False rather than silently truncating.
    """
    r = log_gamma_q(t, q, ctrl)
    value = math.exp(r.value)
    return EvalResult(value, abs(value) * math.expm1(r.err_bound), r.terms_used, r.converged)


def psi_q(t: float, q: float, ctrl: SeriesControl | None = None) -> EvalResult:
    """psi_q(t) = -ln(1-q) + ln q * sum_{n>=0} q^(t+n) / (1 - q^(t+n)).

    The sum is truncated once the geometric tail bound
    |ln q| q^(t+N+1) / ((1-q)(1-q^(t+N+1))) drops below ``ctrl.tol``.
    """
    if ctrl is None:
        ctrl = default_series_control()
    _check_t(t)
    _check_q(q)

    lnq = math.log(q)
    abs_lnq = -lnq
    # Conservative plan: 1 - q^(t+n+1) >= 1 - q^(t+1) for n >= 0.
    guard = (1.0 - q) * (1.0 - math.exp((t + 1.0) * lnq))
    rhs = ctrl.tol * guard / abs_lnq
    if rhs >= 1.0:
        n_terms = 1
    else:
        n_terms = max(1, math.ceil(math.log(rhs) / lnq - t))
    n_terms = min(n_terms, ctrl.max_terms)

    def piece(lo, hi):
        # q^(t+n)/(1 - q^(t+n)), without forming 1 - q^(t+n) by subtraction
        n = np.arange(lo, hi, dtype=np.float64)
        return float(np.sum(1.0 / np.expm1((t + n) * abs_lnq)))

    s = _chunked_sum(n_terms, piece)

    x_next = math.exp((t + n_terms) * lnq)
    tail_bound = abs_lnq * x_next / ((1.0 - q) * (1.0 - x_next))
    value = -math.log1p(-q) + lnq * s
    return EvalResult(value, tail_bound, n_terms, tail_bound <= ctrl.tol)


# ---------------------------------------------------------------------------
# k-family
# ---------------------------------------------------------------------------

def log_gamma_k(t: float, k: float) -> float:
    """ln Gamma_k(t) via the closed identity Gamma_k(t) = k^(t/k-1) Gamma(t/k)."""
    _check_t(t)
    _check_k(k)
    u = t / k
    return (u - 1.0) * math.log(k) + math.lgamma(u)


def gamma_k(t: float, k: float) -> float:
    """Gamma_k(t) for t > 0, k > 0, by the closed identity.

    The defining integral is validated against this path by the oracle's
    quadrature; the identity follows from substituting u = x^k / k.
    """
    _check_t(t)
    _check_k(k)
    u = t / k
    return k ** (u - 1.0) * math.gamma(u)


def psi_k(t: float, k: float, ctrl: SeriesControl | None = None) -> EvalResult:
    """psi_k(t) = (ln k + psi(t/k))/k, the logarithmic derivative of the
    identity Gamma_k(t) = k^(t/k - 1) Gamma(t/k).

    psi(t/k) comes from ``core_special.psi_series`` at tolerance tol*k, so
    the reported err_bound (its bound divided by k) meets ``ctrl.tol``;
    terms_used and converged are the series' own.
    """
    if ctrl is None:
        ctrl = default_series_control()
    _check_t(t)
    _check_k(k)
    r = core_special.psi_series(t / k, SeriesControl(ctrl.max_terms, ctrl.tol * k))
    return EvalResult((math.log(k) + r.value) / k, r.err_bound / k,
                      r.terms_used, r.converged)
