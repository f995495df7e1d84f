"""The three deformed Gamma families and their psi functions.

Definitions implemented here:

    Gamma_p(t) = p! p^t / (t (t+1) ... (t+p)),             integer p >= 1,
    Gamma_q(t) = (1-q)^(1-t) prod_{n>=0} (1-q^(n+1))/(1-q^(t+n)),  0 < q < 1,
    Gamma_k(t) = integral_0^inf exp(-x^k/k) x^(t-1) dx,    k > 0,

together with their logarithmic derivatives psi_p, psi_q, psi_k.  Products
and quotients over many factors are evaluated in log-space; Gamma_k uses
the closed identity Gamma_k(t) = k^(t/k - 1) Gamma(t/k) (the defining
integral survives in the oracle module as an independent cross-check).

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


_CHUNK = 1 << 18


def _chunked_sum(total: int, piece) -> float:
    """Sum piece(lo, hi) over [0, total) in fixed-size chunks."""
    out = 0.0
    for lo in range(0, total, _CHUNK):
        out += piece(lo, min(lo + _CHUNK, total))
    return out


# ---------------------------------------------------------------------------
# p-family
# ---------------------------------------------------------------------------

def log_gamma_p(t: float, p: int) -> float:
    """ln Gamma_p(t) = ln p! + t ln p - sum_{j=0}^{p} ln(t + j)."""
    _check_t(t)
    p = _check_p(p)
    denom = _chunked_sum(
        p + 1, lambda lo, hi: float(np.sum(np.log(t + np.arange(lo, hi, dtype=np.float64))))
    )
    return math.lgamma(p + 1) + t * math.log(p) - denom


def gamma_p(t: float, p: int) -> float:
    """Gamma_p(t) for t > 0, integer p >= 1, evaluated in log-space.

    The numerator p! p^t overflows doubles already for p around 170, so the
    factors are combined as logarithms and exponentiated once at the end.
    """
    return math.exp(log_gamma_p(t, p))


def psi_p(t: float, p: int) -> float:
    """psi_p(t) = ln p - sum_{n=0}^{p} 1/(n + t); an exact finite sum."""
    _check_t(t)
    p = _check_p(p)
    s = _chunked_sum(
        p + 1, lambda lo, hi: float(np.sum(1.0 / (t + np.arange(lo, hi, dtype=np.float64))))
    )
    return math.log(p) - s


# ---------------------------------------------------------------------------
# q-family
# ---------------------------------------------------------------------------

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
        x = np.exp((t + np.arange(lo, hi, dtype=np.float64)) * lnq)
        return float(np.sum(x / (1.0 - x)))

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
