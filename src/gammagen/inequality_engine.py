"""Positivity lemmas, monotone auxiliary functions, and sandwich checkers.

For each Gamma deformation there is a combined psi expression that is
positive on its hypothesis domain, an auxiliary function of t built from
it whose log-derivative factors through that expression (hence the
function is increasing), and a two-sided bound obtained by evaluating the
auxiliary function at t = 0 and t = 1.  One ``Family`` record per
deformation describes what differs between them; the lemma, the auxiliary
function and the sandwich check are written once on top of it, and a sweep
forms the lemma's s-free head a gamma_E + c once, in ``_resolve``.  This
module exposes all three layers as checkable predicates that produce
quantitative margins.

The engine takes no series tolerance: every lemma, auxiliary-function and
sandwich evaluation runs the evaluators at ``DEFAULT_TOL`` (1e-12), a
thousand times below the verdict slack.

A sandwich row passes when both margins, middle - lower and upper - middle,
exceed -``DEFAULT_TOL_REPORT`` (1e-9), a fixed slack that no caller sets.
The margins are differences of the exponentiated values, so the slack is
absolute: it is neither scaled to the values nor derived from the
evaluators' err_bounds, and a verdict depends on the scale of what it
compares.  Where all three values are below the slack, a violated bound
still passes; where they are large, the rounding of exp alone can exceed
it; and past the double range exp raises OverflowError.  So does a lemma
value, a logarithm of an auxiliary function or a logarithm of a sandwich
bound that is not finite: the engine returns no inf or nan.
"""

from __future__ import annotations

import collections
import math
from collections.abc import Callable, Iterable

from . import core_special
from .core_special import (
    DomainError,
    _ASYMPTOTIC_FROM,
    _check_p,
    _check_q,
    _converged_value,
    _require_finite,
    _require_positive,
    log_gamma,
    psi_series,
)
from .gen_gamma import (
    _psi_p_gap,
    log_gamma_k,
    log_gamma_p,
    log_gamma_q,
    psi_k,
    psi_p,
    psi_q,
)

__all__ = [
    "DEFAULT_TOL_REPORT",
    "GenParams",
    "InequalityReport",
    "MonotoneScan",
    "Family",
    "FAMILIES",
    "lemma_expr_p",
    "lemma_expr_q",
    "lemma_expr_k",
    "lemma_expr_p_unchecked",
    "lemma_expr_q_unchecked",
    "lemma_expr_k_unchecked",
    "omega",
    "phi",
    "theta",
    "log_omega",
    "log_phi",
    "log_theta",
    "log_deriv_omega",
    "log_deriv_phi",
    "log_deriv_theta",
    "check_sandwich",
    "check_sandwich_p",
    "check_sandwich_q",
    "check_sandwich_k",
    "scan_monotone",
    "scan_passes",
    "family_callables",
]

DEFAULT_TOL_REPORT = 1e-9


# The records below are immutable named tuples, like EvalResult.

class GenParams(collections.namedtuple("GenParams", "a b alpha beta")):
    """The shared parameter tuple (a, b, alpha, beta), all positive and finite.

    Theorem-specific admissibility (a >= b for the k-family, alpha bounds
    for the p/q sandwiches) is checked by the individual operations.
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float, alpha: float, beta: float):
        for name, value in zip(cls._fields, (a, b, alpha, beta)):
            _require_positive(name, value)
        return tuple.__new__(cls, (a, b, alpha, beta))

    @classmethod
    def _make(cls, iterable):  # _replace builds through here; keep the check
        return cls(*iterable)


class InequalityReport(collections.namedtuple(
        "InequalityReport", "t lower middle upper lower_margin upper_margin strict passed note",
        defaults=("",))):
    """One grid point of a sandwich check.

    ``passed`` applies the verdict rule margin > -DEFAULT_TOL_REPORT on
    both sides; under a strict claim a margin of exactly zero fails, since
    rounding noise never produces an exact zero while a structural equality
    does.  (The attribute is named ``passed``
    only because ``pass`` is reserved in Python; it serializes as "pass".)
    """

    __slots__ = ()


class MonotoneScan(collections.namedtuple(
        "MonotoneScan", "grid values min_forward_diff derivative_min")):
    """Grid scan of an auxiliary function and its log-derivative: the grid
    and the values as tuples, the least forward difference and the least
    log-derivative."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# The family description, and the lemma and auxiliary function written once
# ---------------------------------------------------------------------------

def _psi(s: float) -> float:
    return _converged_value(psi_series(s), "psi")


def _psi_pair_p(s: float, p: int) -> tuple[float, float]:
    # psi_p checks p before the gap is formed; at p >= 10 psi_p is
    # psi(s) - gap, so psi(s) is taken back from it, not summed again
    psi_ps = psi_p(s, p)
    if p < _ASYMPTOTIC_FROM:
        return _psi(s), psi_ps
    return psi_ps + _psi_p_gap(s, p), psi_ps


def _log_gamma_q(s: float, q: float) -> float:
    return _converged_value(log_gamma_q(s, q), "log_gamma_q")


def _psi_pair_q(s: float, q: float) -> tuple[float, float]:
    return _psi(s), _converged_value(psi_q(s, q), "psi_q")


def _k_hypotheses(a: float, b: float, k: float) -> float:
    if not a >= b:
        raise DomainError(f"a >= b required for family k (got a={a}, b={b})")
    if not k >= 1:
        raise DomainError(f"k >= 1 required for family k (got {k})")
    return k


class Family(collections.namedtuple(
        "Family", "name hypotheses log_gamma psi_pair lemma_const s_power s_floor strict")):
    """One deformation, as the lemma, aux and sandwich code needs it.

    The prefactor is ell(t) = beta t (a gamma_E + c), plus (a - b) ln s when
    ``s_power`` is set, so that d/dt ln aux(t) = beta * lemma(s) with

        lemma(s) = a gamma_E + c [+ (a - b)/s] + a psi(s) - b psi_X(s).

    ``psi_pair`` returns both digammas of the lemma, so that a family whose
    psi_X already holds psi(s) need not sum it again: the p record calls
    psi_p once and, at p >= 10, takes psi(s) back as psi_p(s) plus the gap
    psi(s+p+1) - ln p; below that, and for q and k, psi(s) is psi_series'.
    The callables look evaluators up by module-global name when called, so
    a wrapper installed on this module (a profiler's, say) sees every call.

    Fields:
        name         "p", "q" or "k"; also the parameter's name
        hypotheses   (a, b, x) -> x, or DomainError off the theorem's domain
        log_gamma    (s, x) -> ln Gamma_X(s)
        psi_pair     (s, x) -> (psi(s), psi_X(s))
        lemma_const  (b, x) -> c; ``_resolve`` forms the head a gamma_E + c
        s_power      aux(t) carries the factor s^(a-b)
        s_floor      the lemma holds for s > s_floor
        strict       the sandwich bounds are strict
    """

    __slots__ = ()


FAMILIES = {fam.name: fam for fam in (
    Family("p", lambda a, b, p: _check_p(p),
           log_gamma=lambda s, p: log_gamma_p(s, p),
           psi_pair=_psi_pair_p,
           lemma_const=lambda b, p: b * math.log(p),
           s_power=False, s_floor=1.0, strict=True),
    Family("q", lambda a, b, q: _check_q(q),
           log_gamma=_log_gamma_q,
           psi_pair=_psi_pair_q,
           lemma_const=lambda b, q: -b * math.log1p(-q),
           s_power=False, s_floor=1.0, strict=True),
    Family("k", _k_hypotheses,
           log_gamma=lambda s, k: log_gamma_k(s, k),
           psi_pair=lambda s, k: (_psi(s), _converged_value(psi_k(s, k), "psi_k")),
           lemma_const=lambda b, k: b / k * (math.log(k) - core_special.EULER_GAMMA),
           s_power=True, s_floor=0.0, strict=False),
)}


def _with_head(fam: Family, a: float, b: float, x) -> tuple[Family, float, float]:
    """(fam, x, a gamma_E + c): the lemma's head does not depend on s."""
    return fam, x, a * core_special.EULER_GAMMA + fam.lemma_const(b, x)


def _resolve(family: str, a: float, b: float, param) -> tuple[Family, float, float]:
    """The family's record, its parameter checked by its hypotheses, and the lemma's head."""
    fam = FAMILIES.get(family)
    if fam is None:
        raise DomainError(f"family must be one of {', '.join(FAMILIES)} (got {family!r})")
    return _with_head(fam, a, b, fam.hypotheses(a, b, param))


# The generic code below takes a resolved (family, parameter, head) triple first.

def _lemma(fam: Family, x, head: float, a: float, b: float, s: float) -> float:
    value = head
    if fam.s_power:
        value += (a - b) / s
    psi_s, psi_x = fam.psi_pair(s, x)
    value += a * psi_s - b * psi_x
    return _require_finite(value, "lemma_expr_{0} at a = {1}, b = {2}, t = {3}, {0} = {4}",
                           fam.name, a, b, s, x)


def _lemma_on_domain(fam: Family, x, head: float, a: float, b: float, s: float) -> float:
    if not s > fam.s_floor:
        raise DomainError(f"t must be > {fam.s_floor:g} for the "
                          f"{fam.name}-family positivity (got {s})")
    return _lemma(fam, x, head, a, b, s)


def _lemma_checked(family: str, a: float, b: float, s: float, x) -> float:
    _require_positive("a", a)
    _require_positive("b", b)
    return _lemma_on_domain(*_resolve(family, a, b, x), a, b, s)


def _log_parts(fam: Family, x, head: float, t: float, gp: GenParams) -> tuple[float, float]:
    """ln aux(t) as (ell(t), ln Gamma(s)^a / Gamma_X(s)^b)."""
    if not t >= 0:
        raise DomainError(f"t must be >= 0 (got {t})")
    s = gp.alpha + gp.beta * t
    ell = gp.beta * t * head
    if fam.s_power:
        ell += (gp.a - gp.b) * math.log(s)
    return ell, gp.a * log_gamma(s) - gp.b * fam.log_gamma(s, x)


def _log_aux(fam: Family, x, head: float, t: float, gp: GenParams) -> float:
    ell, log_ratio = _log_parts(fam, x, head, t, gp)
    return _require_finite(ell + log_ratio, "ln aux_{0}(t) at t = {1}", fam.name, t)


# Log-derivatives, exactly as the factored forms beta * lemma_expr(...).
# Positivity of the lemma expression on the hypothesis domain is what makes
# the auxiliary functions increasing.

def _log_deriv(fam: Family, x, head: float, t: float, gp: GenParams) -> float:
    return gp.beta * _lemma_on_domain(fam, x, head, gp.a, gp.b, gp.alpha + gp.beta * t)


# ---------------------------------------------------------------------------
# Combined psi expressions (the positivity lemmas)
# ---------------------------------------------------------------------------

def lemma_expr_p_unchecked(a: float, b: float, t: float, p: int) -> float:
    """a*gamma_E + b ln p + a psi(t) - b psi_p(t), with no hypothesis checks."""
    return _lemma(*_with_head(FAMILIES["p"], a, b, p), a, b, t)


def lemma_expr_p(a: float, b: float, t: float, p: int) -> float:
    """The p-family combined expression; strictly positive for t > 1.

    Raises DomainError outside the hypothesis domain (use the unchecked
    variant for exploration; it never feeds verdicts).
    """
    return _lemma_checked("p", a, b, t, p)


def lemma_expr_q_unchecked(a: float, b: float, t: float, q: float) -> float:
    """a*gamma_E - b ln(1-q) + a psi(t) - b psi_q(t), no hypothesis checks."""
    return _lemma(*_with_head(FAMILIES["q"], a, b, q), a, b, t)


def lemma_expr_q(a: float, b: float, t: float, q: float) -> float:
    """The q-family combined expression; strictly positive for t > 1."""
    return _lemma_checked("q", a, b, t, q)


def lemma_expr_k_unchecked(a: float, b: float, t: float, k: float) -> float:
    """The k-family combined expression, with no hypothesis checks."""
    return _lemma(*_with_head(FAMILIES["k"], a, b, k), a, b, t)


def lemma_expr_k(a: float, b: float, t: float, k: float) -> float:
    """The k-family combined expression; nonnegative for a >= b > 0, k >= 1, t > 0."""
    return _lemma_checked("k", a, b, t, k)


# ---------------------------------------------------------------------------
# Auxiliary monotone functions (log-space evaluation)
# ---------------------------------------------------------------------------

def log_omega(t: float, gp: GenParams, p: int) -> float:
    """ln of the p-family auxiliary function

        omega(t) = p^(b beta t) e^(a beta gamma_E t)
                   Gamma(alpha+beta t)^a / Gamma_p(alpha+beta t)^b.

    Increasing in t wherever alpha + beta t > 1; evaluation itself only
    needs alpha + beta t > 0.
    """
    return _log_aux(*_resolve("p", gp.a, gp.b, p), t, gp)


def omega(t: float, gp: GenParams, p: int) -> float:
    return math.exp(log_omega(t, gp, p))


def log_phi(t: float, gp: GenParams, q: float) -> float:
    """ln of the q-family auxiliary function

        phi(t) = (1-q)^(-b beta t) e^(a beta gamma_E t)
                 Gamma(alpha+beta t)^a / Gamma_q(alpha+beta t)^b.
    """
    return _log_aux(*_resolve("q", gp.a, gp.b, q), t, gp)


def phi(t: float, gp: GenParams, q: float) -> float:
    return math.exp(log_phi(t, gp, q))


def log_theta(t: float, gp: GenParams, k: float) -> float:
    """ln of the k-family auxiliary function

        theta(t) = (alpha+beta t)^(a-b) e^(t beta gamma_E (k a - b)/k)
                   k^(b beta t / k) Gamma(alpha+beta t)^a / Gamma_k(alpha+beta t)^b.

    Requires a >= b and k >= 1 (its monotonicity hypotheses).
    """
    return _log_aux(*_resolve("k", gp.a, gp.b, k), t, gp)


def theta(t: float, gp: GenParams, k: float) -> float:
    return math.exp(log_theta(t, gp, k))


def log_deriv_omega(t: float, gp: GenParams, p: int) -> float:
    return _log_deriv(*_resolve("p", gp.a, gp.b, p), t, gp)


def log_deriv_phi(t: float, gp: GenParams, q: float) -> float:
    return _log_deriv(*_resolve("q", gp.a, gp.b, q), t, gp)


def log_deriv_theta(t: float, gp: GenParams, k: float) -> float:
    return _log_deriv(*_resolve("k", gp.a, gp.b, k), t, gp)


# ---------------------------------------------------------------------------
# Sandwich checkers
# ---------------------------------------------------------------------------

def _verdict(t, log_lower, log_middle, log_upper, strict, note):
    lower = math.exp(log_lower)
    middle = math.exp(log_middle)
    upper = math.exp(log_upper)
    lower_margin = middle - lower
    upper_margin = upper - middle
    ok = lower_margin > -DEFAULT_TOL_REPORT and upper_margin > -DEFAULT_TOL_REPORT
    if strict and (lower_margin == 0.0 or upper_margin == 0.0):
        ok = False
    return InequalityReport(t, lower, middle, upper, lower_margin,
                            upper_margin, strict, ok, note)


def _unit_grid(grid) -> tuple:
    """The grid as a tuple, so a one-shot iterable is read once."""
    grid = tuple(grid)
    for t in grid:
        if not 0.0 < t < 1.0:
            raise DomainError(
                f"sandwich grids must lie strictly in (0, 1) (got t={t})")
    return grid


def _check_alpha_floor(gp: GenParams, floor: float) -> str:
    # The increasingness hypothesis alpha + beta*t > floor must hold down to
    # the t = 0 endpoint, where the lower bound is evaluated; with beta > 0
    # that means alpha >= floor.  The exact boundary is admitted but flagged.
    if gp.alpha < floor:
        raise DomainError(
            f"alpha >= {floor:g} required so alpha + beta*t > {floor:g} holds "
            f"down to the t = 0 endpoint (got alpha={gp.alpha})")
    if gp.alpha == floor:
        return (f"alpha + beta*t > {floor:g} holds for t > 0 only; the t = 0 "
                "endpoint sits on the hypothesis boundary")
    return ""


def check_sandwich(family: str, gp: GenParams, param,
                   grid: Iterable[float]) -> list[InequalityReport]:
    """Check aux(0) <= aux(t) <= aux(1) at every grid point t in (0, 1), as

        ln aux(0) - ell(t)  <=  ln Gamma(s)^a / Gamma_X(s)^b  <=  ln aux(1) - ell(t)

    with s = alpha + beta t; strict bounds for p and q, non-strict for k.
    ``param`` is the family's parameter, the integer p or the real q or k.
    Returns one report per grid point, in grid order.
    """
    fam, x, head = _resolve(family, gp.a, gp.b, param)
    note = _check_alpha_floor(gp, fam.s_floor)
    grid = _unit_grid(grid)
    log_at0 = _log_aux(fam, x, head, 0.0, gp)
    log_at1 = _log_aux(fam, x, head, 1.0, gp)
    out = []
    for t in grid:
        ell, log_middle = _log_parts(fam, x, head, t, gp)
        logs = (log_at0 - ell, log_middle, log_at1 - ell)
        if not all(map(math.isfinite, logs)):
            raise OverflowError(f"ln of the {family}-sandwich at t = {t} exceeds the double range")
        out.append(_verdict(t, *logs, fam.strict, note))
    return out


def check_sandwich_p(gp: GenParams, p: int, grid: Iterable[float]) -> list[InequalityReport]:
    """Check, at every grid point t in (0, 1),

        p^(-b beta t) e^(-a beta g t) G(alpha)^a / G_p(alpha)^b
          <  G(alpha+beta t)^a / G_p(alpha+beta t)^b
          <  p^(b beta (1-t)) e^(a beta g (1-t)) G(alpha+beta)^a / G_p(alpha+beta)^b

    (strict bounds).  Returns one report per grid point, in grid order.
    """
    return check_sandwich("p", gp, p, grid)


def check_sandwich_q(gp: GenParams, q: float, grid: Iterable[float]) -> list[InequalityReport]:
    """q-family analogue of ``check_sandwich_p`` (strict bounds)."""
    return check_sandwich("q", gp, q, grid)


def check_sandwich_k(gp: GenParams, k: float, grid: Iterable[float]) -> list[InequalityReport]:
    """k-family sandwich (non-strict bounds):

        alpha^(a-b) e^(-t C) G(alpha)^a / ((alpha+beta t)^(a-b) k^(b beta t/k) G_k(alpha)^b)
          <=  G(alpha+beta t)^a / G_k(alpha+beta t)^b
          <=  (alpha+beta)^(a-b) e^((1-t) C) G(alpha+beta)^a
              / ((alpha+beta t)^(a-b) k^(b beta (t-1)/k) G_k(alpha+beta)^b)

    with C = beta gamma_E (k a - b)/k.  Requires a >= b > 0 and k >= 1.
    """
    return check_sandwich("k", gp, k, grid)


# ---------------------------------------------------------------------------
# Monotonicity scans
# ---------------------------------------------------------------------------

def scan_monotone(fn: Callable[[float], float],
                  log_deriv: Callable[[float], float],
                  grid: Iterable[float]) -> MonotoneScan:
    """Evaluate fn over a strictly increasing grid (>= 2 points) and record
    the minimum forward difference and the minimum log-derivative."""
    grid = tuple(float(t) for t in grid)
    if len(grid) < 2:
        raise DomainError("monotone scan needs at least 2 grid points")
    if any(t1 >= t2 for t1, t2 in zip(grid, grid[1:])):
        raise DomainError("monotone scan grid must be strictly increasing")
    values = tuple(fn(t) for t in grid)
    min_fwd = min(v2 - v1 for v1, v2 in zip(values, values[1:]))
    deriv_min = min(log_deriv(t) for t in grid)
    return MonotoneScan(grid, values, min_fwd, deriv_min)


def scan_passes(scan: MonotoneScan) -> bool:
    """The scan verdict: neither a forward difference nor a log-derivative
    falls below -DEFAULT_TOL_REPORT."""
    return (scan.min_forward_diff >= -DEFAULT_TOL_REPORT
            and scan.derivative_min >= -DEFAULT_TOL_REPORT)


def family_callables(family: str, gp: GenParams, param):
    """(fn, log_deriv) closures for one family, with parameters bound:
    the auxiliary function and its log-derivative.  ``param`` is the
    family's parameter, the integer p or the real q or k.
    """
    fam, x, head = _resolve(family, gp.a, gp.b, param)
    return (lambda t: math.exp(_log_aux(fam, x, head, t, gp)),
            lambda t: _log_deriv(fam, x, head, t, gp))
