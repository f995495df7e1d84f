"""Independent high-precision reference evaluators.

Everything here is deliberately slow and deliberately separate from the
fast paths: the psi-family series are re-summed in arbitrary precision
with their own tail closure, the Gamma deformations are evaluated from
their raw product definitions without log-space tricks, and Gamma and
Gamma_k come from the trapezoid rule on the defining integral, with an
a-priori error bound.  A bug shared with the fast evaluators would defeat
cross-validation, so no evaluation code is shared with ``core_special`` or
``gen_gamma``.
"""

from __future__ import annotations

import itertools
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
_LIFT_TO = 32
_QUAD_MAX_NODES = 10_000


class ConvergenceError(RuntimeError):
    """The trapezoid rule ran out of nodes before its tails met their target."""


@dataclass(frozen=True)
class HPValue:
    """Extended-precision value, the digits it certifies, the terms it took."""

    value: object  # mpmath.mpf
    certified_digits: int
    terms_used: int = 0


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def _digits_from_error(value, err) -> int:
    """Digits certified by the error bound err, never more than _DPS_MARGIN
    below the working precision."""
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
    return s + tail, n


def psi_hp(t) -> HPValue:
    """psi(t) by direct extended-precision summation of its series."""
    _require(t > 0, f"t must be > 0 (got {t})")
    with mp.workdps(_SERIES_DPS):
        t_ = mpf(t)
        target = mpf(_SERIES_TAIL)
        s, n = _psi_sum_hp(t_, target)
        v = -mpf(EULER_GAMMA_HP) - 1 / t_ + s
        return HPValue(v, _digits_from_error(v, target), n)


def psi_p_hp(t, p) -> HPValue:
    """psi_p(t) as the exact finite sum ln p - sum_{n=0}^{p} 1/(n+t)."""
    _require(t > 0, f"t must be > 0 (got {t})")
    _require(p >= 1, f"p must be >= 1 (got {p})")
    with mp.workdps(_SERIES_DPS):
        t_ = mpf(t)
        v = mp.log(p) - mp.fsum([1 / (t_ + n) for n in range(int(p) + 1)])
        return HPValue(v, _SERIES_DPS - 5, int(p) + 1)


def psi_q_hp(t, q) -> HPValue:
    """psi_q(t) summed term by term until the geometric tail, which grows with
    x = q^(t+n), is < 1e-25: until x < c/(1+c), c = 1e-25 (1-q)/(-ln q)."""
    _require(t > 0, f"t must be > 0 (got {t})")
    _require(0 < q < 1, f"q must lie strictly in (0, 1) (got {q})")
    with mp.workdps(_SERIES_DPS):
        t_ = mpf(t)
        q_ = mpf(q)
        target = mpf(_SERIES_TAIL)
        lnq = mp.log(q_)
        c = target * (1 - q_) / -lnq
        x_stop = c / (1 + c)
        s = mpf(0)
        x = q_**t_
        for n in itertools.count(1):
            s += x / (1 - x)
            x *= q_
            if x < x_stop:
                break
        v = -mp.log(1 - q_) + lnq * s
        return HPValue(v, _digits_from_error(v, target), n)


def psi_k_hp(t, k) -> HPValue:
    """psi_k(t) by summation of its series (scaled variable u = t/k)."""
    _require(t > 0, f"t must be > 0 (got {t})")
    _require(k > 0, f"k must be > 0 (got {k})")
    with mp.workdps(_SERIES_DPS):
        t_ = mpf(t)
        k_ = mpf(k)
        target = mpf(_SERIES_TAIL)
        s, n = _psi_sum_hp(t_ / k_, target * k_)
        v = (mp.log(k_) - mpf(EULER_GAMMA_HP)) / k_ - 1 / t_ + s / k_
        return HPValue(v, _digits_from_error(v, target), n)


def gamma_hp(t) -> HPValue:
    """Gamma(t) as Gamma_k(t) at k = 1, by ``_gamma_k_trapezoid``."""
    return _gamma_k_trapezoid(t, 1)


def gamma_p_hp(t, p) -> HPValue:
    """Gamma_p(t) as the raw finite product p! p^t / (t(t+1)...(t+p))."""
    _require(t > 0, f"t must be > 0 (got {t})")
    _require(p >= 1, f"p must be >= 1 (got {p})")
    with mp.workdps(_SERIES_DPS):
        t_ = mpf(t)
        denom = mp.fprod([t_ + n for n in range(int(p) + 1)])
        v = mp.factorial(int(p)) * mpf(p) ** t_ / denom
        return HPValue(v, _SERIES_DPS - 5, int(p) + 1)


def gamma_q_hp(t, q) -> HPValue:
    """Gamma_q(t) as the raw infinite product, truncated after the first n
    factors, n >= 1 the least with coeff q^n/(1-q) < 1e-25."""
    _require(t > 0, f"t must be > 0 (got {t})")
    _require(0 < q < 1, f"q must lie strictly in (0, 1) (got {q})")
    with mp.workdps(_SERIES_DPS):
        t_ = mpf(t)
        q_ = mpf(q)
        target = mpf(_SERIES_TAIL)
        num = q_          # q^(n+1)
        den = q_**t_      # q^(t+n)
        coeff = abs(q_ - den) / (1 - (q_ if t_ >= 1 else den))
        n = max(1, int(mp.ceil(mp.log(target * (1 - q_) / coeff, q_)))) if coeff else 1
        prod_num = prod_den = mpf(1)
        for _ in range(n):
            prod_num *= 1 - num
            prod_den *= 1 - den
            num *= q_
            den *= q_
        v = (1 - q_) ** (1 - t_) * prod_num / prod_den
        return HPValue(v, _digits_from_error(v, abs(v) * target), n)


def gamma_k_quad(t, k) -> HPValue:
    """Gamma_k(t) by ``_gamma_k_trapezoid``."""
    return _gamma_k_trapezoid(t, k)


def _gamma_k_trapezoid(t, k) -> HPValue:
    """Gamma_k(t) = integral_0^inf x^(t-1) exp(-x^k/k) dx by the trapezoid
    rule, with an a-priori error bound.

    The functional equation Gamma_k(t+k) = t Gamma_k(t) first lifts t until
    u = t/k >= _LIFT_TO: the node count depends on u alone and falls as u
    grows, so a few multiplications save nodes.  With x = e^s and
    s = (ln t)/k + sigma, which puts the integrand's peak at sigma = 0,

        Gamma_k(t) = exp(u (ln t - 1)) integral g(sigma) d sigma,
        g(sigma) = exp(u (k sigma - (e^(k sigma) - 1))),

    over the real line.  g is analytic in the strip |Im sigma| < pi/(2k),
    and on the line Im sigma = d the integral of |g| is the real-line
    integral times cos(kd)^(-u).  So the trapezoid rule with step h errs by
    at most 2 cos(kd)^(-u) / (e^(2 pi d/h) - 1), relative (Trefethen and
    Weideman, "The exponentially convergent trapezoidal rule", SIAM Review
    56 (2014), Thm 5.1); d and h are chosen to make that bound 1e-25/2.

    The nodes walk out from the peak, each side with one mp.exp per node:
    e^(k sigma_j) comes from a geometric recurrence.  On each side the
    ratio of neighbouring nodes falls outward, so once a node g is below
    its predecessor g' the rest of that side sums to at most
    g^2/(g' - g); a side stops when twice that is below 1e-25/8 (g(0) = 1
    and the sum is at least 1, so the tails are relative).
    ``certified_digits`` counts the aliasing bound, both tails and a
    rounding allowance for the recurrences, the exponents and the lift.
    Raises ConvergenceError if a side needs more than _QUAD_MAX_NODES nodes.
    """
    _require(t > 0, f"t must be > 0 (got {t})")
    _require(k > 0, f"k must be > 0 (got {k})")
    # the exponents are of size u = t/k and needed to _QUAD_DPS digits
    # after the point, so the working precision adds the digits of t/k
    with mp.workdps(_QUAD_DPS + max(0, int(math.log10(t) - math.log10(k)))):
        t_, k_, target = mpf(t), mpf(k), mpf(_SERIES_TAIL)
        lift, m = mpf(1), 0
        while t_ < _LIFT_TO * k_:
            lift *= t_
            t_ += k_
            m += 1
        u = t_ / k_
        # the strip angle theta = kd that allows the longest step; it lies
        # a little below sqrt(2 lam/u), where that is below pi/2
        lam, uf = math.log(4 / float(target)), min(float(u), 1e300)
        theta0 = min(1.55, math.sqrt(2 * lam) * math.exp(-float(mp.log(u)) / 2))
        theta = mpf(max((theta0 * 2 ** (-i / 4) for i in range(12)),
                        key=lambda a: a / (lam - uf * math.log(math.cos(a)))))
        sec_u = mp.cos(theta) ** -u
        kh = 2 * mp.pi * theta / (lam + mp.log(sec_u))  # k times the step h
        err = 2 * sec_u / mp.expm1(2 * mp.pi * theta / kh)
        total, nodes = mpf(1), 1
        work = (m + 1) * (u * (abs(mp.log(t_)) + 1) + 1)
        for sign in (1, -1):
            a, w, da, b, g_prev = mpf(0), u, sign * u * kh, mp.exp(sign * kh), mpf(1)
            for j in range(1, _QUAD_MAX_NODES + 1):
                a += da            # u k sigma_j
                w *= b             # u e^(k sigma_j)
                g = mp.exp(a - w + u)
                total += g
                if g < g_prev and 2 * g * g < target / 8 * (g_prev - g):
                    break
                g_prev = g
            else:
                raise ConvergenceError(f"Gamma_k(t={t}, k={k}) needs more than "
                                       f"{_QUAD_MAX_NODES} nodes on one side")
            err += 2 * g * g / (g_prev - g)
            work += j * (abs(a) + w + 1)
            nodes += j
        v = mp.exp(u * (mp.log(t_) - 1)) * kh / k_ * total / lift
        err += 8 * mp.eps * work
    with mp.workdps(_QUAD_DPS):
        return HPValue(v, _digits_from_error(v, v * err), nodes)


def cross_validate(fast_value: float, hp: HPValue, rel_tol: float) -> bool:
    """True iff |fast - hp| <= rel_tol * max(|hp|, 1)."""
    if not rel_tol > 0:
        raise ValueError(f"rel_tol must be > 0 (got {rel_tol})")
    with mp.workdps(_SERIES_DPS):
        ref = hp.value
        return abs(mpf(fast_value) - ref) <= mpf(rel_tol) * max(abs(ref), mpf(1))
