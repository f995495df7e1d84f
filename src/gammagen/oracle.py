"""Independent high-precision reference evaluators.

Everything here is deliberately slow and deliberately separate from the
fast paths: the psi-family series are re-summed in arbitrary precision
with their own tail closure, the Gamma deformations are evaluated from
their raw product definitions without log-space tricks, and Gamma and
Gamma_k come from adaptive quadrature of the defining integrals.  A bug
shared with the fast evaluators would defeat cross-validation, so no
evaluation code is shared with ``core_special`` or ``gen_gamma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf

from .core_special import DomainError

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
_SERIES_TAIL = "1e-25"
_DPS_MARGIN = 10


class ConvergenceError(RuntimeError):
    """Adaptive quadrature failed to reach its accuracy target in budget."""


@dataclass(frozen=True)
class HPValue:
    """Extended-precision value with the number of digits it certifies."""

    value: object  # mpmath.mpf
    certified_digits: int


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def _digits_from_error(value, err) -> int:
    """Digits certified by the error estimate err, never more than
    _DPS_MARGIN below the working precision: a quadrature's own estimate
    can claim more than the arithmetic carries."""
    cap = mp.dps - _DPS_MARGIN
    if err <= 0:
        return cap
    scale = max(abs(value), mpf(1))
    return max(1, min(cap, int(-mp.log10(err / scale)) - 1))


# Bernoulli-number corrections B2..B10 for the Euler-Maclaurin closure of
# sum_{n>=a} (1/n - 1/(n+u)); the remainder is below (|B10|/10!)|f^(9)(a)|,
# itself below (50/66) u / a^11.
def _psi_sum_hp(u, target):
    a_needed = (mpf(50) / 66 * u / target) ** (mpf(1) / 11)
    n = max(8, int(mp.ceil(a_needed)))
    s = mpf(0)
    for i in range(1, n + 1):
        s += u / (i * (i + u))
    a = mpf(n + 1)
    ia = 1 / a
    ib = 1 / (a + u)
    tail = mp.log1p(u / a) + (ia - ib) / 2
    bern = [(mpf(1) / 6, 2), (mpf(-1) / 30, 4), (mpf(1) / 42, 6),
            (mpf(-1) / 30, 8), (mpf(5) / 66, 10)]
    for b2j, two_j in bern:
        deriv = -math.factorial(two_j - 1) * (ia**two_j - ib**two_j)
        tail -= b2j / math.factorial(two_j) * deriv
    return s + tail


def psi_hp(t) -> HPValue:
    """psi(t) by direct extended-precision summation of its series."""
    _require(t > 0, f"t must be > 0 (got {t})")
    with mp.workdps(_SERIES_DPS):
        t_ = mpf(t)
        target = mpf(_SERIES_TAIL)
        v = -mpf(EULER_GAMMA_HP) - 1 / t_ + _psi_sum_hp(t_, target)
        return HPValue(v, _digits_from_error(v, target))


def psi_p_hp(t, p) -> HPValue:
    """psi_p(t) as the exact finite sum ln p - sum_{n=0}^{p} 1/(n+t)."""
    _require(t > 0, f"t must be > 0 (got {t})")
    _require(p >= 1, f"p must be >= 1 (got {p})")
    with mp.workdps(_SERIES_DPS):
        t_ = mpf(t)
        s = mpf(0)
        for n in range(int(p) + 1):
            s += 1 / (n + t_)
        v = mp.log(p) - s
        return HPValue(v, _SERIES_DPS - 5)


def psi_q_hp(t, q) -> HPValue:
    """psi_q(t) summed term by term until the geometric tail is < 1e-25."""
    _require(t > 0, f"t must be > 0 (got {t})")
    _require(0 < q < 1, f"q must lie strictly in (0, 1) (got {q})")
    with mp.workdps(_SERIES_DPS):
        t_ = mpf(t)
        q_ = mpf(q)
        target = mpf(_SERIES_TAIL)
        lnq = mp.log(q_)
        s = mpf(0)
        x = q_**t_
        while True:
            s += x / (1 - x)
            x *= q_
            if -lnq * x / ((1 - q_) * (1 - x)) < target:
                break
        v = -mp.log(1 - q_) + lnq * s
        return HPValue(v, _digits_from_error(v, target))


def psi_k_hp(t, k) -> HPValue:
    """psi_k(t) by summation of its series (scaled variable u = t/k)."""
    _require(t > 0, f"t must be > 0 (got {t})")
    _require(k > 0, f"k must be > 0 (got {k})")
    with mp.workdps(_SERIES_DPS):
        t_ = mpf(t)
        k_ = mpf(k)
        target = mpf(_SERIES_TAIL)
        u = t_ / k_
        v = (mp.log(k_) - mpf(EULER_GAMMA_HP)) / k_ - 1 / t_ \
            + _psi_sum_hp(u, target * k_) / k_
        return HPValue(v, _digits_from_error(v, target))


def gamma_hp(t) -> HPValue:
    """Gamma(t) by adaptive quadrature of its defining integral.

    The integral is split at the integrand mode; on the left piece the
    substitution x = c u^(1/t) removes the x^(t-1) endpoint singularity so
    the rule converges at full precision for every t > 0.
    """
    _require(t > 0, f"t must be > 0 (got {t})")
    with mp.workdps(_QUAD_DPS):
        t_ = mpf(t)
        c = max(mpf(1), t_ - 1)
        scale = c**t_ / t_
        left, el = mp.quad(
            lambda u: mp.exp(-c * u ** (1 / t_)), [0, 1], error=True)
        right, er = mp.quad(
            lambda x: mp.exp(-x) * x ** (t_ - 1), [c, mp.inf], error=True)
        v = scale * left + right
        return HPValue(v, _digits_from_error(v, scale * el + er))


def gamma_p_hp(t, p) -> HPValue:
    """Gamma_p(t) as the raw finite product p! p^t / (t(t+1)...(t+p))."""
    _require(t > 0, f"t must be > 0 (got {t})")
    _require(p >= 1, f"p must be >= 1 (got {p})")
    with mp.workdps(_SERIES_DPS):
        t_ = mpf(t)
        denom = mpf(1)
        for n in range(int(p) + 1):
            denom *= t_ + n
        v = mp.factorial(int(p)) * mpf(p) ** t_ / denom
        return HPValue(v, _SERIES_DPS - 5)


def gamma_q_hp(t, q) -> HPValue:
    """Gamma_q(t) as the raw infinite product, truncated below 1e-25."""
    _require(t > 0, f"t must be > 0 (got {t})")
    _require(0 < q < 1, f"q must lie strictly in (0, 1) (got {q})")
    with mp.workdps(_SERIES_DPS):
        t_ = mpf(t)
        q_ = mpf(q)
        target = mpf(_SERIES_TAIL)
        prod = mpf(1)
        num = q_          # q^(n+1)
        den = q_**t_      # q^(t+n)
        coeff = abs(q_ - den) / (1 - (q_ if t_ >= 1 else den))
        n = 0
        while True:
            prod *= (1 - num) / (1 - den)
            num *= q_
            den *= q_
            n += 1
            if coeff * q_**n / (1 - q_) < target:
                break
        v = (1 - q_) ** (1 - t_) * prod
        return HPValue(v, _digits_from_error(v, abs(v) * target))


def gamma_k_quad(t, k) -> HPValue:
    """Gamma_k(t) by adaptive quadrature of exp(-x^k/k) x^(t-1) on (0, inf).

    Split at the integrand mode x* = (k(t-1))^(1/k) for t > 1 (else at 1),
    with the same singularity-removing substitution on the left piece.
    Raises ConvergenceError if refinement exhausts its budget before the
    1e-15 relative target.
    """
    _require(t > 0, f"t must be > 0 (got {t})")
    _require(k > 0, f"k must be > 0 (got {k})")
    for dps, maxdegree in ((_QUAD_DPS, 6), (_QUAD_DPS + 10, 8)):
        with mp.workdps(dps):
            t_ = mpf(t)
            k_ = mpf(k)
            c = (k_ * (t_ - 1)) ** (1 / k_) if t_ > 1 else mpf(1)
            scale = c**t_ / t_
            left, el = mp.quad(
                lambda u: mp.exp(-((c * u ** (1 / t_)) ** k_) / k_),
                [0, 1], error=True, maxdegree=maxdegree)
            right, er = mp.quad(
                lambda x: mp.exp(-(x**k_) / k_) * x ** (t_ - 1),
                [c, mp.inf], error=True, maxdegree=maxdegree)
            v = scale * left + right
            err = scale * el + er
            if err <= abs(v) * mpf("1e-16"):
                return HPValue(v, _digits_from_error(v, err))
    raise ConvergenceError(
        f"gamma_k_quad(t={t}, k={k}) did not reach 1e-15 relative accuracy")


def cross_validate(fast_value: float, hp: HPValue, rel_tol: float) -> bool:
    """True iff |fast - hp| <= rel_tol * max(|hp|, 1)."""
    if not rel_tol > 0:
        raise ValueError(f"rel_tol must be > 0 (got {rel_tol})")
    with mp.workdps(_SERIES_DPS):
        ref = hp.value
        return abs(mpf(fast_value) - ref) <= mpf(rel_tol) * max(abs(ref), mpf(1))
