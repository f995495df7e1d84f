"""Built-in verification suites behind the ``selftest`` CLI command.

Each suite cross-validates a fast evaluator against the independent
oracle, re-checks the functional equations, or re-derives the
single-parameter bounds and compares them term by term against the
generalized checkers at a = b = beta = 1.  Those reference bounds,
``classical_bounds_p/q/k``, are test predicates, so they live here.
"""

from __future__ import annotations

import math
import random

from . import core_special, oracle
from .core_special import DomainError, gamma, psi
from .gen_gamma import gamma_k, gamma_p, gamma_q, psi_k, psi_p, psi_q
from .inequality_engine import GenParams, _converged_value, check_sandwich

DEFAULT_SEED = 20250802

# A suite is its name and its cases, each a (label, ok) pair in the order drawn.


def _oracle_suites(rng, n_series: int, n_quad: int) -> list:
    out = []

    def suite(name, n, sample, fast, ref, rel_tol):
        cases = [sample() for _ in range(n)]
        out.append((name, [(f"{name}{args}",
                            oracle.cross_validate(fast(*args), ref(*args), rel_tol))
                           for args in cases]))

    t_any = lambda: (rng.uniform(0.05, 30.0),)
    t_p = lambda: (rng.uniform(0.05, 30.0), rng.randrange(1, 500))
    t_q = lambda: (rng.uniform(0.05, 30.0), rng.uniform(0.05, 0.95))
    t_k = lambda: (rng.uniform(0.05, 20.0), rng.uniform(0.5, 10.0))

    suite("gamma-vs-oracle", n_quad, t_any, gamma, oracle.gamma_hp, 1e-10)
    suite("psi-vs-oracle", n_series, t_any, psi, oracle.psi_hp, 1e-10)
    suite("psi_p-vs-oracle", n_series, t_p, psi_p, oracle.psi_p_hp, 1e-10)
    suite("psi_q-vs-oracle", n_series, t_q,
          lambda t, q: psi_q(t, q).value, oracle.psi_q_hp, 1e-10)
    suite("psi_k-vs-oracle", n_series, t_k,
          lambda t, k: psi_k(t, k).value, oracle.psi_k_hp, 1e-10)
    suite("gamma_p-vs-oracle", n_series, t_p, gamma_p, oracle.gamma_p_hp, 1e-10)
    suite("gamma_q-vs-oracle", n_series, t_q,
          lambda t, q: gamma_q(t, q).value, oracle.gamma_q_hp, 1e-10)
    suite("gamma_k-vs-quadrature", n_quad, t_k, gamma_k, oracle.gamma_k_quad, 1e-12)
    return out


def _functional_equation_suite(rng, n: int) -> tuple:
    cases = []
    for _ in range(n):
        t = rng.uniform(0.1, 20.0)
        p = rng.randrange(1, 300)
        q = rng.uniform(0.05, 0.95)
        k = rng.uniform(0.2, 8.0)
        ok_p = math.isclose(gamma_p(t + 1.0, p),
                            p * t / (t + p + 1.0) * gamma_p(t, p), rel_tol=1e-10)
        ok_q = math.isclose(gamma_q(t + 1.0, q).value,
                            (1.0 - q**t) / (1.0 - q) * gamma_q(t, q).value,
                            rel_tol=1e-10)
        ok_k = math.isclose(gamma_k(t + k, k), t * gamma_k(t, k), rel_tol=1e-10)
        cases += [(f"p(t={t:.4g},p={p})", ok_p), (f"q(t={t:.4g},q={q:.4g})", ok_q),
                  (f"k(t={t:.4g},k={k:.4g})", ok_k)]
    return "functional-equations", cases


def _close(x, y):
    return math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12)


def classical_bounds_p(alpha: float, p: int, t: float) -> tuple[float, float, float]:
    """(lower, middle, upper) of the original single-parameter p-bound,

        p^-t e^(-g t) G(alpha)/G_p(alpha) < G(alpha+t)/G_p(alpha+t)
                                          < p^(1-t) e^(g(1-t)) G(alpha+1)/G_p(alpha+1),

    assembled directly, term by term, without the generalized machinery.
    """
    g = core_special.EULER_GAMMA
    lower = p ** (-t) * math.exp(-g * t) * gamma(alpha) / gamma_p(alpha, p)
    middle = gamma(alpha + t) / gamma_p(alpha + t, p)
    upper = (p ** (1.0 - t) * math.exp(g * (1.0 - t))
             * gamma(alpha + 1.0) / gamma_p(alpha + 1.0, p))
    return lower, middle, upper


def classical_bounds_q(alpha: float, q: float, t: float) -> tuple[float, float, float]:
    """Single-parameter q-bound, assembled directly."""
    g = core_special.EULER_GAMMA
    gq = lambda x: _converged_value(gamma_q(x, q), "gamma_q")
    lower = (1.0 - q) ** t * math.exp(-g * t) * gamma(alpha) / gq(alpha)
    middle = gamma(alpha + t) / gq(alpha + t)
    upper = ((1.0 - q) ** (t - 1.0) * math.exp(g * (1.0 - t))
             * gamma(alpha + 1.0) / gq(alpha + 1.0))
    return lower, middle, upper


def classical_bounds_k(alpha: float, k: float, t: float) -> tuple[float, float, float]:
    """Single-parameter k-bound (non-strict), assembled directly."""
    g = core_special.EULER_GAMMA
    c = (k * g - g) / k
    lower = (k ** (-t / k) * math.exp(-t * c)
             * gamma(alpha) / gamma_k(alpha, k))
    middle = gamma(alpha + t) / gamma_k(alpha + t, k)
    upper = (k ** ((1.0 - t) / k) * math.exp((1.0 - t) * c)
             * gamma(alpha + 1.0) / gamma_k(alpha + 1.0, k))
    return lower, middle, upper


def _reduction_suites(rng, n: int) -> list:
    """At a = b = beta = 1 the generalized bounds must coincide termwise
    with the directly assembled single-parameter bounds."""
    out = []

    def suite(family, sample_alpha, sample_param, classical):
        cases = []
        for _ in range(n):
            alpha, x, t = sample_alpha(), sample_param(), rng.uniform(0.05, 0.95)
            rep = check_sandwich(family, GenParams(1.0, 1.0, alpha, 1.0), x, [t])[0]
            lo, mid, up = classical(alpha, x, t)
            cases.append((f"(alpha={alpha:.4g},{family}={x:.4g},t={t:.4g})",
                          _close(rep.lower, lo) and _close(rep.middle, mid)
                          and _close(rep.upper, up)))
        out.append((f"reduction-{family}", cases))

    suite("p", lambda: rng.uniform(1.0, 3.0), lambda: rng.randrange(1, 50),
          classical_bounds_p)
    suite("q", lambda: rng.uniform(1.0, 3.0), lambda: rng.uniform(0.05, 0.95),
          classical_bounds_q)
    suite("k", lambda: rng.uniform(0.2, 3.0), lambda: rng.uniform(1.0, 8.0),
          classical_bounds_k)
    return out


def run(quick: bool = False, seed: int = DEFAULT_SEED) -> int:
    """Run every suite; print per-suite counts; return 0 iff all passed.

    The points are drawn from ``random.Random(seed)``; a negative seed
    raises DomainError.
    """
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    n_series, n_quad, n_func, n_red = (8, 5, 12, 4) if quick else (30, 20, 50, 10)

    suites = _oracle_suites(rng, n_series, n_quad)
    suites.append(_functional_equation_suite(rng, n_func))
    suites.extend(_reduction_suites(rng, n_red))

    any_failed = False
    for name, cases in suites:
        failures = [label for label, ok in cases if not ok]
        print(f"{name}: {'FAIL' if failures else 'PASS'} "
              f"{len(cases) - len(failures)}/{len(cases)}")
        for label in failures[:5]:
            print(f"  failing case: {label}")
        any_failed = any_failed or bool(failures)
    print("selftest: " + ("FAIL" if any_failed else "PASS"))
    return 1 if any_failed else 0
