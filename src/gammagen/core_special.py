"""Classical Gamma and psi (digamma) functions.

psi(t) is shifted by the recurrence psi(t) = psi(t+n) - sum_{j<n} 1/(t+j)
until x = t+n >= 10 (at most ten terms at the default tolerance, for every
t > 0) and then taken from the asymptotic series

    psi(x) = ln x - 1/(2x) - sum_k B_2k / (2k x^(2k))

through B_14, whose first omitted term bounds the remainder for real x > 0
and is the reported error bound.  The same routine, scaled by k, is
gen_gamma's psi_k; at k = 1 it is psi_series, which gen_gamma's
psi_p(t) = psi(t) - (psi(t+p+1) - ln p) calls for its psi(t).

Every series here and in gen_gamma has one setting, the absolute tail-bound
target ``tol``, and sums at most _MAX_TERMS terms (see EvalResult).
"""

from __future__ import annotations

import collections
import math
import operator

__all__ = [
    "EULER_GAMMA",
    "DEFAULT_TOL",
    "DomainError",
    "ToleranceNotMet",
    "EvalResult",
    "gamma",
    "log_gamma",
    "psi_series",
    "psi",
]

#: Euler-Mascheroni constant, fixed literal (20+ significant digits).
#: Never recomputed at runtime.
EULER_GAMMA = 0.57721566490153286060651209008240243

#: The absolute tail-bound target of every series, unless a call passes tol.
DEFAULT_TOL = 1e-12

#: The most terms a series sums.  Every series is sized up front: down to
#: tol = 1e-20 no call at k >= 1e-6 took more than 77 (log_gamma_q at t = 40,
#: q = 0.9; README gives the search), so the cap binds only at a tol that no
#: double result can carry; there the evaluator reports converged=False.
_MAX_TERMS = 10_000


class DomainError(ValueError):
    """An argument violates a function's domain or theorem hypothesis."""


class ToleranceNotMet(RuntimeError):
    """No series length within the term cap meets a series evaluation's tolerance.

    Evaluators themselves report this condition non-fatally through
    ``EvalResult.converged``; this exception is raised where a verdict would
    otherwise silently depend on an unconverged value, and by ``eval``.
    """


class EvalResult(collections.namedtuple("EvalResult", "value err_bound terms_used converged",
                                        defaults=(True,))):
    """Value of a truncated series/product plus its a-posteriori tail bound.

    ``converged`` is False when no length within the _MAX_TERMS cap meets
    the requested tolerance.  The value is then the estimate at the length
    the evaluator stopped at, the cap or, where no length within it meets
    tol (psi), a short one; ``err_bound`` bounds its truncation error.

    An immutable named tuple, which costs less than half as much to build
    as a frozen dataclass; the constructor rejects a negative or nan
    ``err_bound``.
    """

    __slots__ = ()

    def __new__(cls, value: float, err_bound: float, terms_used: int,
                converged: bool = True):
        if not err_bound >= 0.0:
            raise ValueError(f"err_bound must be >= 0 (got {err_bound})")
        return tuple.__new__(cls, (value, err_bound, terms_used, converged))

    @classmethod
    def _make(cls, iterable):  # _replace builds through here; keep the check
        return cls(*iterable)


def _converged_value(result: EvalResult, what: str, tol: float = DEFAULT_TOL) -> float:
    """result.value, or ToleranceNotMet in words true of a stop at the cap and short of it."""
    if not result.converged:
        raise ToleranceNotMet(f"{what}: no series length within the {_MAX_TERMS:,}-term cap "
                              f"meets tol={tol!r} (err_bound {result.err_bound!r})")
    return result.value


def _require_positive(name: str, value) -> None:
    if not value > 0:
        raise DomainError(f"{name} must be > 0 (got {value})")
    if value == math.inf:  # not math.isfinite, which overflows on a huge int
        raise DomainError(f"{name} must be finite (got {value})")


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


def _require_finite(value: float, what: str, *args) -> float:
    """value, or OverflowError naming what.format(*args) if it is not finite."""
    if not math.isfinite(value):
        raise OverflowError(f"{what.format(*args)} exceeds the double range")
    return value


def gamma(t: float) -> float:
    """Gamma(t) for t > 0.

    Delegates to the platform implementation, which is certified against
    the independent high-precision oracle by the test suite (relative
    error <= 1e-13 on (0, 170]).  Raises OverflowError when the result
    exceeds the double range (t > ~171.6).
    """
    _require_positive("t", t)
    return math.gamma(t)


def log_gamma(t: float) -> float:
    """ln Gamma(t) for t > 0; the building block for log-space products."""
    _require_positive("t", t)
    return math.lgamma(t)


#: Bernoulli numbers B_2, B_4, ..., B_14.
BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def _odd_power_series(coeffs, x: float) -> float:
    """sum_k coeffs[k-1] x^(2k-1), by Horner's rule in x^2."""
    z = x * x
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc * x


#: The asymptotic series of psi and ln Gamma are used only at arguments >= this,
#: where their first terms omitted after B_14 are below the unit roundoff.
_ASYMPTOTIC_FROM = 10

_PSI_ASYMPTOTIC = tuple(b / (2 * k) for k, b in enumerate(BERNOULLI, 1))
_PSI_OMITTED = 3617 / 510 / 16  # |B_16|/16: T(x) omits _PSI_OMITTED/x^16 (4.5e-17 at 10)
_LOG_PSI_OMITTED = math.log(_PSI_OMITTED)
# Where tol k is at least this, the shift tol asks for, x_needed in
# _psi_scaled, is at most _ASYMPTOTIC_FROM: exactly so at _PSI_OMITTED/10^16
# (times e^(1.6e-8) for the sizing's margin), and the factor 2 covers the
# rounding of the product and of the sizing's logs and exp.
_PSI_TOL_K_SHORT = 2 * _PSI_OMITTED / _ASYMPTOTIC_FROM ** 16


def _psi_tail(r: float) -> float:
    """T(x) at r = 1/x: T(x) = sum_k B_2k / (2k x^(2k)), so that
    psi(x) = ln x - 1/(2x) - T(x) + R, where for real x > 0 the remainder R
    is bounded by the first omitted term, _PSI_OMITTED / x^16.  Written out,
    this is ``_odd_power_series``' Horner pass, whose first step 0 z + c7 is exact."""
    c1, c2, c3, c4, c5, c6, c7 = _PSI_ASYMPTOTIC
    z = r * r
    return r * (((((((c7 * z + c6) * z + c5) * z + c4) * z + c3) * z + c2) * z + c1) * r)


def _psi_scaled(t: float, k: float, tol: float) -> EvalResult:
    """(ln k + psi(u))/k at u = t/k, which is psi_k(t) and at k = 1 psi(t).

    psi(u) is shifted by the recurrence to x = u+n, so that

        (ln k + psi(u))/k = ln(y)/k - 1/(2y) - T(x)/k - sum_{j<n} 1/(t + jk),

    at y = t + nk, formed so that no term of size ln(1/k)/k cancels when k
    is small, with n the shortest shift with x >= 10 whose first omitted term
    |B_16|/(16 x^16), divided by k, is below ``tol``.  That term is
    err_bound (the value is otherwise exact to rounding) and n is
    terms_used.  If that n exceeds _MAX_TERMS, no shift within the cap
    meets tol: converged is False and n is the shortest shift with
    x >= 10.  Summing up to the cap instead would still miss tol; at k = 1
    the bound at x >= 10 is already below the rounding error of the sum.
    Tolerance and k enter the sizing as logs, so a tiny one can neither
    overflow nor underflow; where tol k >= _PSI_TOL_K_SHORT (tol = 1e-12
    at k >= 8.9e-5) the sizing is skipped, as it would ask for no more
    than x >= 10, and an overflowing or underflowing product still
    decides that test right.  At a subnormal k, t/k may overflow to inf,
    which asks for no shift, and what underflows (1/x and err_bound) lies
    far below the rounding of the value.  Raises OverflowError when the
    value exceeds the double range.
    """
    _require_positive("tol", tol)
    u = t / k
    if tol * k >= _PSI_TOL_K_SHORT:  # x_needed <= 10: x >= 10 meets tol
        n = math.ceil(max(0.0, _ASYMPTOTIC_FROM - u))
    else:
        # the relative margin of 1e-9 keeps rounding from leaving the bound just above tol
        x_needed = math.exp((_LOG_PSI_OMITTED - math.log(tol) - math.log(k)) / 16.0 + 1e-9)
        n = math.ceil(max(0.0, _ASYMPTOTIC_FROM - u, x_needed - u))
        if n > _MAX_TERMS:
            n = math.ceil(max(0.0, _ASYMPTOTIC_FROM - u))
    y = t + n * k
    r = k / y  # 1/x
    bound = _PSI_OMITTED * r**15 / y
    value = (math.log(y) / k - (0.5 / y + _psi_tail(r) / k)
             - math.fsum([1.0 / (t + j * k) for j in range(n)]))
    if not math.isfinite(value):
        what = "psi(t) at t = {0}" if k == 1 else "(ln k + psi(t/k))/k at t = {0}, k = {1}"
        _require_finite(value, what, t, k)
    return EvalResult(value, bound, n, bound <= tol)


def psi_series(t: float, tol: float = DEFAULT_TOL) -> EvalResult:
    """psi(t) as psi(t+n) - sum_{j<n} 1/(t+j), with psi(x = t+n) from the
    asymptotic series; n is the shortest shift with x >= 10 whose first
    omitted term |B_16|/(16 x^16) is below ``tol``.  That term is
    ``err_bound`` and n is ``terms_used``; if the _MAX_TERMS cap rules that
    shift out, ``converged`` is False.  This is ``_psi_scaled`` at k = 1.
    """
    _require_positive("t", t)
    return _psi_scaled(t, 1.0, tol)


def psi(t: float) -> float:
    """psi(t) = d/dt ln Gamma(t) for t > 0, at the default tolerance."""
    return psi_series(t).value
