"""Classical Gamma and psi (digamma) functions.

The psi evaluator works from the series

    psi(t) = -gamma_E - 1/t + sum_{n>=1} t/(n (n + t)),        t > 0,

summing an initial block of terms directly and closing the remainder with
an Euler-Maclaurin correction.  The correction's magnitude is bounded
analytically, so every result carries an a-posteriori error bound.  A bare
partial sum would need ~t/tol terms to hit the same target, which is why
the tail is closed analytically instead of truncated.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

__all__ = [
    "EULER_GAMMA",
    "DEFAULT_MAX_TERMS",
    "DEFAULT_TOL",
    "MAX_TERMS_ENV_VAR",
    "DomainError",
    "ToleranceNotMet",
    "SeriesControl",
    "EvalResult",
    "default_series_control",
    "gamma",
    "log_gamma",
    "psi_series",
    "psi",
]

#: Euler-Mascheroni constant, fixed literal (20+ significant digits).
#: Never recomputed at runtime.
EULER_GAMMA = 0.57721566490153286060651209008240243

DEFAULT_MAX_TERMS = 10_000_000
DEFAULT_TOL = 1e-12

#: Environment variable overriding the default series term budget.
MAX_TERMS_ENV_VAR = "GAMMA_GEN_MAX_TERMS"


class DomainError(ValueError):
    """An argument violates a function's domain or theorem hypothesis."""


class ToleranceNotMet(RuntimeError):
    """A series evaluation exhausted its budget before reaching its tolerance.

    Evaluators themselves report this condition non-fatally through
    ``EvalResult.converged``; this exception is raised only where a verdict
    would otherwise silently depend on an unconverged value.
    """


@dataclass(frozen=True)
class SeriesControl:
    """Truncation budget and absolute tail-bound target for series evaluation."""

    max_terms: int = DEFAULT_MAX_TERMS
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1 (got {self.max_terms})")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0 (got {self.tol})")


@dataclass(frozen=True)
class EvalResult:
    """Value of a truncated series/product plus its a-posteriori tail bound.

    ``converged`` is False when the term budget ran out before the tail
    bound dropped below the requested tolerance; the value is still the
    best available estimate and ``err_bound`` stays honest.
    """

    value: float
    err_bound: float
    terms_used: int
    converged: bool = True

    def __post_init__(self):
        if not self.err_bound >= 0.0:
            raise ValueError(f"err_bound must be >= 0 (got {self.err_bound})")


_DEFAULT_CONTROL = SeriesControl()


def default_series_control() -> SeriesControl:
    """Default evaluation control; GAMMA_GEN_MAX_TERMS overrides the budget.

    The variable is read at every call; when it is unset, one shared
    (frozen) SeriesControl is returned.
    """
    raw = os.environ.get(MAX_TERMS_ENV_VAR)
    if raw is not None:
        return SeriesControl(max_terms=int(raw))
    return _DEFAULT_CONTROL


def _require_positive(name: str, value) -> None:
    if not value > 0:
        raise DomainError(f"{name} must be > 0 (got {value})")


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
_EM_WEIGHTS = tuple(b / math.factorial(2 * k) for k, b in enumerate(BERNOULLI, 1))


def euler_maclaurin_corrections(odd_derivatives) -> tuple[float, float]:
    """Bernoulli corrections of the Euler-Maclaurin closure

        sum_{n>=0} f(a+n) = int_a^inf f + f(a)/2 - sum_{k<=K} B_2k/(2k)! f^(2k-1)(a) + R,

    given the odd derivatives f^(1)(a), f^(3)(a), ..., f^(2K-1)(a), K <= 7.
    Returns the sum of the K corrections and the magnitude of the last one.
    When f or -f is completely monotone, |R| is at most that magnitude.
    """
    total = 0.0
    for weight, deriv in zip(_EM_WEIGHTS, odd_derivatives):
        last = weight * deriv
        total -= last
    return total, abs(last)


# Euler-Maclaurin closure of sum_{n>=a} f(n) with f(x) = 1/x - 1/(x+t):
#
#   sum = log1p(t/a) + f(a)/2 - B2/2! f'(a) - B4/4! f'''(a) - B6/6! f^(5)(a) + R
#
# f is completely monotone, so |R| <= |B6/6! * f^(5)(a)| = (1/a^6 - 1/(a+t)^6)/252,
# the magnitude of the last retained correction.  That bound is <= t/(42 a^7).
_PSI_MIN_TERMS = 8


def psi_series(t: float, ctrl: SeriesControl | None = None) -> EvalResult:
    """psi(t) from its partial-fraction series, with controlled truncation.

    The block length is chosen so the Euler-Maclaurin remainder bound falls
    below ``ctrl.tol``; the bound is reported in ``err_bound``.  If
    ``ctrl.max_terms`` caps the block first, ``converged`` is False.
    """
    if ctrl is None:
        ctrl = default_series_control()
    _require_positive("t", t)

    # computed in log space so huge t cannot overflow before the 7th root
    a_needed = math.exp((math.log(t) - math.log(42.0 * ctrl.tol)) / 7.0)
    n_terms = max(_PSI_MIN_TERMS, math.ceil(min(a_needed, 1e18)))
    n_terms = min(n_terms, ctrl.max_terms)

    partial = math.fsum([t / (n * (n + t)) for n in range(1, n_terms + 1)])

    a = n_terms + 1.0
    ia = 1.0 / a
    ib = 1.0 / (a + t)
    ia2 = ia * ia
    ib2 = ib * ib
    ia4 = ia2 * ia2
    ib4 = ib2 * ib2
    # f'(a), f'''(a), f^(5)(a)
    corr, bound = euler_maclaurin_corrections(
        (ib2 - ia2, 6.0 * (ib4 - ia4), 120.0 * (ib4 * ib2 - ia4 * ia2)))
    tail = math.log1p(t / a) + 0.5 * (ia - ib) + corr

    value = -EULER_GAMMA - 1.0 / t + partial + tail
    return EvalResult(value, bound, n_terms, bound <= ctrl.tol)


def psi(t: float) -> float:
    """psi(t) = d/dt ln Gamma(t) for t > 0, at the default series control."""
    return psi_series(t).value
