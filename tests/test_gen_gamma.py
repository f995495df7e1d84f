import itertools
import math
import operator
import random
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from gammagen import core_special, gen_gamma
from gammagen.core_special import DomainError
from gammagen.gen_gamma import (
    gamma_k,
    gamma_p,
    gamma_q,
    log_gamma_k,
    log_gamma_p,
    log_gamma_q,
    psi_k,
    psi_p,
    psi_q,
)
from gammagen.core_special import gamma, psi, psi_series

TIGHT = 1e-14


# ---------------------------------------------------------------------------
# p-family
# ---------------------------------------------------------------------------

def test_gamma_p_small_cases():
    assert math.isclose(gamma_p(1.0, 3), 0.75, rel_tol=1e-13)
    assert math.isclose(gamma_p(1.0, 1), 0.5, rel_tol=1e-13)


def test_gamma_p_approaches_gamma():
    # True gap at p = 100 is ~4.2% of Gamma(2.5); the value itself is pinned
    # against the raw-product oracle.
    assert math.isclose(gamma_p(2.5, 100), 1.2729844428821196, rel_tol=1e-12)
    assert abs(gamma_p(2.5, 100) - gamma(2.5)) < 6e-2


def test_psi_p_values():
    # ln 3 - (1 + 1/2 + 1/3 + 1/4)
    assert abs(psi_p(1.0, 3) - (-0.9847210446652236)) < 1e-12
    assert psi_p(1.0, 1) == pytest.approx(-1.5, abs=1e-14)
    # ln 5 - sum_{n=0}^{5} 1/(n+2)
    assert abs(psi_p(2.0, 5) - 0.016580769576957517) < 1e-12


def _log_gamma_p_identity(t, p):
    """ln p! + t ln p - ln Gamma(t+p+1) + ln Gamma(t), at 50 digits."""
    with mp.workdps(50):
        t_ = mpf(t)
        return float(mp.loggamma(p + 1) + t_ * mp.log(p)
                     - mp.loggamma(t_ + p + 1) + mp.loggamma(t_))


def _psi_p_identity(t, p):
    """ln p - psi(t+p+1) + psi(t), at 50 digits."""
    with mp.workdps(50):
        t_ = mpf(t)
        return float(mp.log(p) - mp.digamma(t_ + p + 1) + mp.digamma(t_))


@pytest.mark.parametrize("p", [1, 2, *range(core_special._ASYMPTOTIC_FROM - 2,
                                             core_special._ASYMPTOTIC_FROM + 3),
                               100, 10**4, 10**6, 10**7, 10**9, 10**12])
def test_p_family_matches_identities(p):
    # p + 1 <= _ASYMPTOTIC_FROM sums every term; above it the Stirling closure takes
    # over.  At p = 10**12 a sum over every term could not finish.
    for t in (0.01, 0.5, 1.0, 2.5, 9.7, 33.3, 60.0):
        assert abs(log_gamma_p(t, p) - _log_gamma_p_identity(t, p)) <= 1e-12
        assert abs(psi_p(t, p) - _psi_p_identity(t, p)) <= 1e-13


@pytest.mark.parametrize("p", [2**1024, 10**400], ids=["2^1024", "10^400"])
def test_p_family_beyond_double_range(p):
    # p enters only through 1/p, so p need not fit in a double; at such p
    # both functions equal their classical limits to rounding.
    assert abs(log_gamma_p(2.5, p) - math.lgamma(2.5)) <= 2e-15
    assert abs(psi_p(2.5, p) - psi(2.5)) <= 2e-15


def test_gamma_p_functional_equation_at_large_p():
    p = 10**7
    for t in (0.3, 1.0, 2.5, 17.2, 45.0):
        lhs = gamma_p(t + 1.0, p)
        rhs = p * t / (t + p + 1.0) * gamma_p(t, p)
        assert math.isclose(lhs, rhs, rel_tol=1e-12)


@pytest.mark.parametrize("bad_p", [0, -1])
def test_p_rejected(bad_p):
    for fn in (lambda: gamma_p(1.0, bad_p), lambda: psi_p(1.0, bad_p)):
        with pytest.raises(DomainError):
            fn()


def test_p_noninteger_rejected():
    with pytest.raises(DomainError):
        psi_p(1.0, 2.5)


# ---------------------------------------------------------------------------
# q-family
# ---------------------------------------------------------------------------

def test_gamma_q_at_small_integers():
    assert gamma_q(1.0, 0.5, TIGHT).value == pytest.approx(1.0, abs=1e-12)
    assert gamma_q(2.0, 0.5, TIGHT).value == pytest.approx(1.0, abs=1e-12)
    # (1 - q^2)/(1 - q) = 1 + q
    assert gamma_q(3.0, 0.5, TIGHT).value == pytest.approx(1.5, abs=1e-12)


def test_psi_q_reference_value():
    r = psi_q(1.0, 0.5, TIGHT)
    assert abs(r.value - (-0.4205290343560458)) < 1e-12


def test_psi_q_accurate_near_q_one():
    # Forming 1 - q^(t+n) by subtraction costs ~u/(1-q), 1.7e-12 here.
    # Reference: 64 direct terms plus mpmath's Euler-Maclaurin tail at 30
    # digits (0.2214947905614601589...).
    r = psi_q(1.7164250253197137, 0.9999896607489486)
    assert abs(r.value - 0.22149479056146016) <= 1e-14


def test_psi_q_increasing_in_t():
    assert psi_q(1.0, 0.5).value < psi_q(2.0, 0.5).value


Q_NEAR_ONE = [1.0 - 10.0**-j for j in range(3, 13)]
# The direct block is sized from the Euler-Maclaurin bound, which does not
# depend on q; at the default tolerance it is 10 terms.
Q_BLOCK_MAX = 12


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.99, *Q_NEAR_ONE])
def test_q_family_terms_bounded(q):
    for t in (1e-6, 0.01, 0.3, 1.0, 1.7, 2.5, 9.7, 33.3, 60.0):
        for r in (psi_q(t, q), log_gamma_q(t, q)):
            assert r.converged
            assert 1 <= r.terms_used <= Q_BLOCK_MAX


def test_q_family_converges_at_q_one_minus_1e9():
    q = 1.0 - 1e-9
    for fn in (psi_q, log_gamma_q, gamma_q):
        r = fn(2.5, q)
        assert r.converged and r.err_bound <= 1e-12


def test_q_family_budget_exhaustion_flagged():
    # Close to q = 1 no block within the 10^4-term cap meets tol = 1e-300,
    # so the block stops at the cap, its closure's bound far above tol.  At
    # q = 1 - 1e-12 a 10^7-term budget was once summed first (3.1 s).
    for q in (0.999, 1.0 - 1e-12):
        for fn in (psi_q, log_gamma_q, gamma_q):
            r = fn(2.0, q, 1e-300)
            assert not r.converged
            assert r.terms_used == core_special._MAX_TERMS
            assert r.err_bound > 1e-300


def test_q_family_tiny_tol_at_q_half_sums_a_short_block():
    # The search for the block once started from the small-c estimate, about
    # 10^29 terms, and so summed the whole of a 10^7-term budget.
    for fn in (psi_q, log_gamma_q):
        r = fn(2.5, 0.5, 1e-300)
        assert r.converged and r.err_bound <= 1e-300
        assert r.terms_used <= 2000


@pytest.mark.parametrize("t, q, tol, psi_terms, log_terms", [
    (2.5, 0.5, 1e-12, 8, 9), (2.5, 0.5, 1e-16, 22, 27), (0.3, 0.999, 1e-12, 10, 10),
    (2.5, 1.0 - 1e-12, 1e-16, 22, 27), (40.0, 0.9, 1e-20, 22, 77),
    (2.5, 0.5, 7.957218127125474e-17, 23, 28)])
def test_q_start_and_walk_sizes_frozen(t, q, tol, psi_terms, log_terms):
    # The block size follows from _q_start's estimate and the walk up from it alone.
    # At q = 0.5, tol = 1e-16 the start overshoots the shortest block, so a
    # smaller lead or a larger power would shorten it.  At tol = 7.957e-17
    # log_gamma_q's start, the small-c size less x0 = min(t, 1), lies 1e-7
    # above 27, so a larger x0 would start, and stop, at 27.
    assert psi_q(t, q, tol).terms_used == psi_terms
    assert log_gamma_q(t, q, tol).terms_used == log_terms


@pytest.mark.parametrize("fn, t, q", [(log_gamma_q, 10.0, 0.5), (psi_q, 2.5, 0.5)])
def test_q_walk_stops_at_a_bound_equal_to_tol(fn, t, q):
    # A bound equal to tol meets it, as converged means err_bound <= tol:
    # asked for the bound it reached, the walk stops at the same size.
    r = fn(t, q)
    assert fn(t, q, r.err_bound) == r


def _em_corrections_power_sum(powers, c, order):
    """The power-sum form of gen_gamma._em_corrections, the reference for
    its Horner form: each correction B_2k/(2k)! (-c^(2k-1)) A_(2k-1-order)
    is a dot product of A's coefficients with the powers [w, w^2, ...].
    Returns (sum, |last|) and, for each, the sum of the magnitudes of the
    terms it adds."""
    total, total_terms, scale = 0.0, 0.0, -c
    for k, coeffs in enumerate(gen_gamma._A[1 - order::2], 1):
        weight = core_special.BERNOULLI[k - 1] / math.factorial(2 * k)
        dot = sum(map(operator.mul, coeffs, powers))
        last = weight * (scale * dot)
        last_terms = abs(weight * scale) * dot
        total -= last
        total_terms += last_terms
        scale *= c * c
    return (total, abs(last)), (total_terms, last_terms)


@pytest.mark.parametrize("order", [0, 1])
def test_em_corrections_horner_matches_the_power_sum(order):
    # The tolerance, fixed before any run: 8 units of 2^-53 of the terms the
    # reference adds, plus 8 units of the smallest subnormal, since at
    # c w < 2^-1022 the leading correction is subnormal and rounds absolutely.
    rng = random.Random(27 + order)
    count = 2 * gen_gamma._Q_CORRECTIONS - order
    for _ in range(2000):
        c = 10.0 ** rng.uniform(-16, math.log10(700.0))
        w = 10.0 ** rng.uniform(-300, 15)
        powers = list(itertools.accumulate(itertools.repeat(w, count), operator.mul))
        reference, terms = _em_corrections_power_sum(powers, c, order)
        got = gen_gamma._em_corrections(w, c, order)
        for value, ref, size in zip(got, reference, terms):
            assert abs(value - ref) <= 8 * 2.0**-53 * size + 8 * 2.0**-1074, (c, w)


def _log_gamma_q_uncached(t, q, tol=core_special.DEFAULT_TOL):
    """log_gamma_q as it was before its t-free half was cached: every block
    forms its numerators, its g(x+1) corrections and both dilogarithms at
    each call.  The reference for the bit-identity of the cached form."""
    core_special._require_positive("t", t)
    core_special._check_q(q)
    core_special._require_positive("tol", tol)
    g = gen_gamma
    c = -math.log(q)

    def closure(n):
        corr_t, b_t = g._em_corrections(g._bose(c * (n + t)), c, 1)
        corr_1, b_1 = g._em_corrections(g._bose(c * (n + 1.0)), c, 1)
        return corr_t - corr_1, abs(b_t - b_1)

    log_tol = math.log(tol)
    estimate = min(math.exp((g._Q_LOG_LEAD[1] - log_tol) / (2 * g._Q_CORRECTIONS - 1)),
                   -log_tol / c) - min(t, 1.0)
    n = max(1, math.ceil(min(estimate, g._MAX_TERMS)))
    corr, bound = closure(n)
    while bound > tol and n < g._MAX_TERMS:
        n += 1
        corr, bound = closure(n)
    log, expm1 = math.log, math.expm1
    h = [log(expm1(-c) / expm1(-c * t)) if c * t >= g._MIN_NORMAL
         else log(-expm1(-c)) - log(c) - log(t)]
    h += [log(expm1(-c * (j + 1.0)) / expm1(-c * (j + t))) for j in range(1, n + 1)]
    value = _log_gamma_q_integral_uncached(t, q, c, n) + math.fsum(h[:-1]) + 0.5 * h[-1] + corr
    what = "log_gamma_q(t) at t = {0}, q = {1}"
    return core_special.EvalResult(core_special._require_finite(value, what, t, q),
                                   bound, n, bound <= tol)


def _log_gamma_q_integral_uncached(t, q, c, a):
    """gen_gamma._log_gamma_q_integral with both dilogarithms formed here."""
    g = gen_gamma
    z1, z2 = c * (a + t), c * (a + 1.0)
    if max(z1, z2) > g._LN2:
        return (1.0 - t) * math.log1p(-q) + (g._dilog_exp(z1) - g._dilog_exp(z2)) / c
    s = t - 1.0
    return (-s * math.log((1.0 - q) / c) + s * math.log(a + t)
            + (a + 1.0) * math.log1p(s / (a + 1.0)) - s
            - (g._dilog_regular(z1) - g._dilog_regular(z2)) / c)


def _gamma_q_uncached(t, q, tol):
    r = _log_gamma_q_uncached(t, q, tol)
    value = math.exp(r.value)
    return core_special.EvalResult(value, abs(value) * math.expm1(r.err_bound),
                                   r.terms_used, r.converged)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_log_gamma_q_cache_is_bit_identical_to_the_uncached_form():
    # 20,000 seeded points: sweeps of 40 t at one q, which hit the cache,
    # alternate with single calls at a fresh q, which miss it.  t runs from
    # subnormal to 1e300 and q from 1e-300 to 1 - 1e-12, at tol 1e-8 to
    # 1e-20.  Values, bounds, block sizes, flags and raised errors must all
    # match the uncached form exactly, for log_gamma_q and gamma_q.
    rng = random.Random(30)

    def draw_t():
        kind = rng.random()
        if kind < 0.05:
            return 10.0 ** rng.uniform(-320, -300)
        if kind < 0.2:
            return 10.0 ** rng.uniform(-12, 0)
        if kind < 0.3:
            return 10.0 ** rng.uniform(1, 300)
        return rng.uniform(0.01, 10.0)

    def draw_q():
        kind = rng.random()
        if kind < 0.1:
            return 1.0 - 10.0 ** rng.uniform(-12, -3)
        if kind < 0.2:
            return 10.0 ** rng.uniform(-300, -2)
        if kind < 0.25:
            return rng.choice([1.0 - 1e-12, 1e-30])
        return rng.uniform(0.001, 0.999)

    points = 0
    while points < 20_000:
        q, tol = draw_q(), rng.choice([1e-12, 1e-12, 1e-8, 1e-16, 1e-20])
        ts = [draw_t() for _ in range(40)] if points % 80 == 0 else [draw_t()]
        for t in ts:
            assert (_outcome(log_gamma_q, t, q, tol)
                    == _outcome(_log_gamma_q_uncached, t, q, tol)), (t, q, tol)
            assert (_outcome(gamma_q, t, q, tol)
                    == _outcome(_gamma_q_uncached, t, q, tol)), (t, q, tol)
            points += 1


def test_log_gamma_q_cache_forms_the_t_free_half_once_per_sweep():
    # A 100-point sweep at one q needs the t-free half of at most two block
    # sizes (below t = 1 the start of the block search moves with t), and
    # the cache never holds more than its maxsize.
    cached = gen_gamma._log_gamma_q_fixed
    maxsize = cached.cache_info().maxsize
    assert maxsize == gen_gamma._Q_FIXED_CACHE
    for q in (1e-30, 0.05, 0.5, 0.95, 0.999, 1.0 - 1e-12):
        for grid in ([0.05 * i for i in range(1, 101)],
                     [1.775 + 0.85 * 0.05 * i for i in range(1, 101)]):
            before = cached.cache_info().misses
            for s in grid:
                log_gamma_q(s, q)
            assert cached.cache_info().misses - before <= 2, (q, grid[0])
            assert cached.cache_info().currsize <= maxsize
    for i in range(3 * maxsize):  # a fresh q per call evicts, never grows
        q = 0.1 + 0.02 * i
        r = log_gamma_q(2.5, q)
        assert cached.cache_info().currsize <= maxsize
        # an entry holds n + 1 numerators besides its three other floats
        assert len(cached(-math.log(q), r.terms_used)[2]) == r.terms_used + 1


@pytest.mark.parametrize("n, t", [(7, 0.5), (7, 2.5), (6, 2.0)])
def test_log_gamma_q_cached_dilogarithm_at_the_ln2_seam(n, t):
    # c = ln(2)/8 puts c (n+1) at n = 7, and c (n+t) at n = 6, t = 2,
    # exactly on ln 2, where the integral's two forms meet.  At n = 7 the
    # cached dilogarithm takes its form below ln 2, and the integral takes
    # the other form when c (n+t) > ln 2 (t = 2.5) and this one when not
    # (t = 0.5).  At n = 6, t = 2 neither argument exceeds ln 2.
    c = gen_gamma._LN2 / 8
    assert c * 8.0 == gen_gamma._LN2
    q = math.exp(-c)
    dilog_1 = gen_gamma._log_gamma_q_fixed(c, n)[3]
    assert (gen_gamma._log_gamma_q_integral(t, q, c, n, dilog_1)
            == _log_gamma_q_integral_uncached(t, q, c, n))


# log_gamma_q takes 77 terms at these (t, q), tol = 1e-20; 28.18... is
# 10^1.45, a point of a 141 x 20 grid (t log-spaced on [1e-3, 1e4]).
MOST_TERMS = 77
AT_MOST_TERMS = [(40.0, 0.9), (28.18382931264455, 0.9)]


@pytest.mark.parametrize("tol", [1e-12, 1e-16, 1e-20])
def test_term_cap_never_binds_at_realistic_tolerances(tol):
    # Every series is sized up front: across t in [1e-300, 1e12], q across
    # (0, 1 - 1e-12] and k in [1e-6, 1e6], the most terms any call takes is
    # 77, far below the 10^4-term cap.
    for t, q in AT_MOST_TERMS:
        r = log_gamma_q(t, q, tol)
        assert r.converged and r.err_bound <= tol
        assert r.terms_used == MOST_TERMS if tol == 1e-20 else r.terms_used <= MOST_TERMS
    rng = np.random.default_rng(int(-math.log10(tol)))
    for i in range(500):
        t = 10.0 ** rng.uniform(-300, 12)
        q = (10.0 ** rng.uniform(-300, math.log10(0.5)) if i % 2
             else 1.0 - 10.0 ** rng.uniform(-12, math.log10(0.5)))
        k = 10.0 ** rng.uniform(-6, 6)
        for r in (psi_series(t, tol), psi_q(t, q, tol), log_gamma_q(t, q, tol),
                  psi_k(t, k, tol)):
            assert r.converged and r.err_bound <= tol, (t, q, k)
            assert r.terms_used <= MOST_TERMS, (t, q, k)


@pytest.mark.parametrize("t", [0.5, 2.5, 7.3])
def test_q_family_tends_to_classical_like_one_minus_q(t):
    # ln Gamma_q(t) - ln Gamma(t) and psi_q(t) - psi(t) are (1-q) times a
    # nonzero function of t plus O((1-q)^2), so each decade of 1 - q takes
    # off a factor close to 10.
    gaps = []
    for j in range(3, 10):
        q = 1.0 - 10.0**-j
        gaps.append((abs(log_gamma_q(t, q).value - math.lgamma(t)),
                     abs(psi_q(t, q).value - psi(t))))
    for (lg, ps), (lg1, ps1) in zip(gaps, gaps[1:]):
        assert 0.08 < lg1 / lg < 0.12
        assert 0.08 < ps1 / ps < 0.12


def _psi_q_mp(t, q):
    """-ln(1-q) - c sum_n 1/(e^(c(t+n)) - 1), c = -ln q: 64 terms summed at
    30 digits and the rest by mpmath's Euler-Maclaurin summation (numerical
    derivatives and quadrature)."""
    with mp.workdps(30):
        t, q = mpf(t), mpf(q)
        c = -mp.log(q)

        def f(n):
            return 1 / mp.expm1(c * (t + n))

        s = mp.fsum(f(n) for n in range(64)) + mp.sumem(f, [64, mp.inf])
        return -mp.log1p(-q) - c * s


def _log_gamma_q_mp(t, q):
    """(1-t) ln(1-q) + sum_n ln((1-q^(n+1))/(1-q^(n+t))), summed as in _psi_q_mp."""
    with mp.workdps(30):
        t, q = mpf(t), mpf(q)
        c = -mp.log(q)

        def h(n):
            return mp.log(mp.expm1(-c * (n + 1)) / mp.expm1(-c * (n + t)))

        s = mp.fsum(h(n) for n in range(64)) + mp.sumem(h, [64, mp.inf])
        return (1 - t) * mp.log1p(-q) + s


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.99, 0.99999, 1.0 - 1e-9])
def test_q_family_matches_mpmath_euler_maclaurin(q):
    for t in (0.02, 1.7, 23.0):
        for fn, ref in ((psi_q, _psi_q_mp), (log_gamma_q, _log_gamma_q_mp)):
            r = fn(t, q)
            exact = float(ref(t, q))
            assert abs(r.value - exact) <= r.err_bound + 4e-16 * max(1.0, abs(exact))


def test_q_family_small_tol_at_q_half_sums_the_geometric_block():
    # The search once started from the small-c estimate whenever that was
    # within a 10^7-term budget: 6,136,807 terms here, where about 230 do.
    for fn, ref in ((psi_q, _psi_q_mp), (log_gamma_q, _log_gamma_q_mp)):
        r = fn(2.5, 0.5, 1e-70)
        assert r.converged and r.terms_used <= 300
        exact = float(ref(2.5, 0.5))
        assert abs(r.value - exact) <= r.err_bound + 4e-16 * max(1.0, abs(exact))


@pytest.mark.parametrize("fn,t,q", [
    (psi_q, 1e-300, 1.0 - 1e-12), (log_gamma_q, 1e-300, 1.0 - 1e-12),
    (log_gamma_q, 5e-324, 0.5),
    (psi_q, 1e-308, 1.0 - 2.0**-53), (log_gamma_q, 1e-308, 1.0 - 2.0**-53),
], ids=["psi_q-1e-300", "log_gamma_q-1e-300", "log_gamma_q-5e-324",
        "psi_q-ct-underflows", "log_gamma_q-ct-underflows"])
def test_q_family_at_subnormal_ct(fn, t, q):
    # With c t subnormal, 1/(e^(ct) - 1) once overflowed (psi_q gave -inf,
    # log_gamma_q +inf), or divided by zero where c t rounds to 0.
    r = fn(t, q)
    exact = float((_psi_q_mp if fn is psi_q else _log_gamma_q_mp)(t, q))
    assert abs(r.value - exact) <= r.err_bound + 4e-16 * max(1.0, abs(exact))


def test_log_gamma_q_within_err_bound_near_q_one():
    # Forming 1 - q^(t+n) by subtraction once put this point 4.5e-12 off,
    # beyond its err_bound of 1e-12.  Reference: _log_gamma_q_mp at 40
    # digits, unchanged with 256 direct terms.
    r = log_gamma_q(1.7164250253197137, 0.9999896607489486)
    assert abs(r.value - -0.092275211852664199609) <= r.err_bound


@pytest.mark.parametrize("q", [0.05, 0.3, 0.6, 0.9, 0.97])
def test_gamma_q_matches_mpmath_qgamma(q):
    for t in (0.3, 1.7, 4.2, 11.0):
        r = gamma_q(t, q, TIGHT)
        with mp.workdps(30):
            exact = float(mp.qgamma(t, q))
        assert abs(r.value - exact) <= r.err_bound + 1e-14 * exact


@pytest.mark.parametrize("t", [0.4, 2.5, 13.0])
def test_q_functional_equations_near_q_one(t):
    # ln Gamma_q(t+1) - ln Gamma_q(t) = ln((1-q^t)/(1-q)) and
    # psi_q(t+1) - psi_q(t) = -ln q q^t/(1-q^t), at 1 - q = 1e-7
    q = 1.0 - 1e-7
    c = -math.log(q)
    lg, lg1 = log_gamma_q(t, q), log_gamma_q(t + 1.0, q)
    rounding = 8e-16 * (abs(lg.value) + abs(lg1.value) + 1.0)
    step = math.log(math.expm1(-c * t) / math.expm1(-c))
    assert abs(lg1.value - lg.value - step) <= lg.err_bound + lg1.err_bound + rounding
    ps, ps1 = psi_q(t, q), psi_q(t + 1.0, q)
    rounding = 8e-16 * (abs(ps.value) + abs(ps1.value) + 1.0)
    step = c / math.expm1(c * t)
    assert abs(ps1.value - ps.value - step) <= ps.err_bound + ps1.err_bound + rounding


@pytest.mark.parametrize("bad_q", [0.0, 1.0, -0.2, 1.5])
def test_q_rejected(bad_q):
    with pytest.raises(DomainError):
        gamma_q(1.0, bad_q)
    with pytest.raises(DomainError):
        psi_q(1.0, bad_q)


# ---------------------------------------------------------------------------
# k-family
# ---------------------------------------------------------------------------

def test_gamma_k_fixed_points():
    assert gamma_k(2.0, 2.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_k(3.7, 1.0) == pytest.approx(gamma(3.7), rel=1e-14)
    assert gamma_k(3.0, 2.0) == pytest.approx(1.2533141373155003, rel=1e-14)


@pytest.mark.parametrize("t, k", [(10.0, 0.05), (5.0, 0.02), (0.5, 0.002)])
def test_gamma_k_beyond_the_range_of_gamma_matches_mpmath(t, k):
    # Gamma(t/k) overflows at t/k > 171.6, although Gamma_k(t) is
    # 4.9e113, 1.2e67 and 1.2e-182 here.  The allowance is the rounding of
    # exp((u - 1) ln k + ln Gamma(u)), u = t/k.
    u = t / k
    with mp.workdps(30):
        ref = mp.power(k, mpf(t) / k - 1) * mp.gamma(mpf(t) / k)
        tol = 8 * 2.0**-53 * (abs((u - 1) * math.log(k)) + abs(math.lgamma(u)) + 1)
        assert abs(gamma_k(t, k) - ref) <= tol * ref


def test_gamma_k_beyond_double_range_overflows():
    with pytest.raises(OverflowError):
        gamma_k(60.0, 0.2)  # 1.04e403


@pytest.mark.parametrize("t, k", [(1e-300, 1e20), (1.5896682892121024e-259, 1.5659713716887333e169),
                                  (1.0, 1e308), (3.0, 1.7e308), (1e-320, 0.3)])
def test_log_gamma_k_below_normal_t_over_k_matches_mpmath(t, k):
    # u = t/k is subnormal or 0: ln Gamma(u) lost u's bits (1.1e-5 off at
    # (1e-300, 1e20)), cancelled against (u - 1) ln k, or raised at u = 0.
    # The reference carries enough bits for 1 + u and for that cancellation.
    with mp.workprec(1600):
        u = mpf(t) / k
        ref = (u - 1) * mp.log(k) + mp.loggamma(u)
    assert abs(log_gamma_k(t, k) - ref) <= 4 * math.ulp(float(ref))


@pytest.mark.parametrize("t, k", [
    (1e6, 1e-300), (3.0, 1e-308), (2.4e305, 1.0), (2.55e305, 1.0),
    (5.02e305, 2.0), (2.51e307, 100.0),
], ids=["lgamma-overflow", "t/k-inf", "below-switch", "above-switch",
        "above-switch-k2", "above-switch-k100"])
def test_log_gamma_k_near_the_double_range_matches_mpmath(t, k):
    # math.lgamma(t/k) overflows above u = 2.56e305, or t/k is inf, although
    # ln Gamma_k(t) is finite; both raised.  At k > 1 above the switch,
    # t (ln t - 1) alone passes the double range although u (ln t - 1) and
    # the value do not.  The reference carries 40 digits
    # beyond those of u; the rounding of ln t moves u (ln t - 1) by up to
    # u ulp(ln t)/2.
    with mp.workdps(40 + int(math.log10(t) - math.log10(k))):
        u = mpf(t) / k
        ref = (u - 1) * mp.log(k) + mp.loggamma(u)
        tol = 4 * 2.0**-53 * abs(ref) + u * math.ulp(math.log(t))
        assert abs(log_gamma_k(t, k) - ref) <= tol


@pytest.mark.parametrize("t, k", [
    (math.e, 1e-306), (2.7182818284590446, 1e-306), (math.e, 5e-324), (2.718281828459046, 5e-324),
])
def test_log_gamma_k_above_the_switch_near_t_e_matches_mpmath(t, k):
    # u (ln t - 1) with ln t - 1 formed by subtraction cancels near t = e:
    # these returned 352.7, -6.036e290, 372.6 and 1.2217e308.  The last two
    # take the u = inf branch.
    with mp.workdps(60):
        u = mpf(t) / k
        ref = (u - 1) * mp.log(k) + mp.loggamma(u)
    assert abs(log_gamma_k(t, k) - ref) <= 4 * math.ulp(float(ref))


@pytest.mark.parametrize("t, p, value", [
    (1e307, 50, 3.912023005428146e307), (1.83e306, 39, 6.70431781241725e306),
    (2.6e305, 10, 5.98672124178452e305), (2.52e305, 10**400, 1.7695760349070624e308),
])
def test_log_gamma_p_above_the_range_of_lgamma_matches_mpmath(t, p, value):
    # math.lgamma(t) overflows above t = 2.56e305 although ln Gamma_p(t) is
    # finite: the first three raised "math range error".  p = 10**400 takes
    # the grouping where p > t + 1.
    with mp.workdps(50 + int(math.log10(t) + math.log10(p))):
        t_ = mpf(t)
        ref = mp.loggamma(p + 1) + t_ * mp.log(p) + mp.loggamma(t_) - mp.loggamma(t_ + p + 1)
        assert abs(log_gamma_p(t, p) - ref) <= 4 * 2.0**-53 * abs(ref)
    assert math.isclose(ref, value, rel_tol=1e-14)


def _huge_t_draws(count, seed=26):
    """Seeded (t, p): t log-uniform on (2.5e305, 1.79e308), p log-uniform on
    [10, 1e300], or on [10, 1e8] for every other draw, where more values
    are finite."""
    rng = random.Random(seed)
    return [(math.exp(rng.uniform(math.log(2.5000001e305), math.log(1.79e308))),
             int(math.exp(rng.uniform(math.log(10), math.log(1e300 if i % 2 else 1e8)))))
            for i in range(count)]


def test_log_gamma_p_huge_t_within_two_ulp_of_mpmath():
    # Above 2.5e305 log_gamma_p returns its lead term alone: what it leaves
    # out is below 712, and the value above 5.7e305.  Each value must lie
    # within 2 ulp of the identity at 60 digits, and overflow exactly where
    # the identity leaves the double range.
    finite = 0
    for t, p in _huge_t_draws(1000):
        with mp.workdps(60):
            t_ = mpf(t)
            ref = mp.loggamma(p + 1) + t_ * mp.log(p) + mp.loggamma(t_) - mp.loggamma(t_ + p + 1)
        if ref > sys.float_info.max:
            with pytest.raises(OverflowError, match="exceeds the double range"):
                log_gamma_p(t, p)
        else:
            assert abs(log_gamma_p(t, p) - ref) <= 2 * math.ulp(float(ref)), (t, p)
            finite += 1
    assert finite >= 300


@pytest.mark.parametrize("fn, args", [
    (psi_p, (2e-313, 9)), (log_gamma_p, (1e308, 9)), (log_gamma_p, (1e308, 50)),
    (psi_q, (1e-320, 0.5)), (log_gamma_q, (1.5e307, 0.9999999984102188)),
    (gamma_q, (1.5e307, 0.9999999984102188)),
    (log_gamma_k, (1e300, 1e-10)), (gamma_k, (1e300, 1e-10)), (log_gamma_k, (1.79e308, 700.0)),
    (log_gamma_k, (2.6e305, 1.0)),
], ids=["psi_p", "log_gamma_p", "log_gamma_p-stirling", "psi_q", "log_gamma_q", "gamma_q",
        "log_gamma_k", "gamma_k", "log_gamma_k-sum", "log_gamma_k-stirling"])
def test_value_beyond_double_range_raises_overflow(fn, args):
    # these returned -inf, inf or nan; at (1.79e308, 700) both terms of
    # ln Gamma_k are finite and their sum is not; ln Gamma(2.6e305) is 1.83e308
    with pytest.raises(OverflowError, match="exceeds the double range"):
        fn(*args)


def test_psi_k_reduces_to_psi_at_k_one():
    r = psi_k(2.0, 1.0, 1e-12)
    assert abs(r.value - psi(2.0)) <= 2.0 * 1e-12


def test_psi_k_reference_values():
    r = psi_k(2.0, 2.0, TIGHT)
    assert abs(r.value - 0.05796575782920622) < 1e-12
    assert abs(psi_k(1.0, 1.0, TIGHT).value + 0.5772156649015329) < 1e-12


@pytest.mark.parametrize("bad_k", [0.0, -1.0])
def test_k_rejected(bad_k):
    with pytest.raises(DomainError):
        gamma_k(1.0, bad_k)
    with pytest.raises(DomainError):
        psi_k(1.0, bad_k)


@pytest.mark.parametrize("fn", [
    lambda t: gamma_p(t, 3),
    lambda t: psi_p(t, 3),
    lambda t: gamma_q(t, 0.5),
    lambda t: psi_q(t, 0.5),
    lambda t: gamma_k(t, 2.0),
    lambda t: psi_k(t, 2.0),
])
def test_t_zero_rejected_not_clamped(fn):
    with pytest.raises(DomainError):
        fn(0.0)


# ---------------------------------------------------------------------------
# Functional equations (each family's shift identity)
# ---------------------------------------------------------------------------

@given(t=st.floats(min_value=0.1, max_value=20.0),
       p=st.integers(min_value=1, max_value=300))
@settings(max_examples=80, deadline=None)
def test_gamma_p_functional_equation(t, p):
    lhs = gamma_p(t + 1.0, p)
    rhs = p * t / (t + p + 1.0) * gamma_p(t, p)
    assert math.isclose(lhs, rhs, rel_tol=1e-10)


@given(t=st.floats(min_value=0.1, max_value=20.0),
       q=st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=80, deadline=None)
def test_gamma_q_functional_equation(t, q):
    lhs = gamma_q(t + 1.0, q).value
    rhs = (1.0 - q**t) / (1.0 - q) * gamma_q(t, q).value
    assert math.isclose(lhs, rhs, rel_tol=1e-10)


@given(t=st.floats(min_value=0.1, max_value=20.0),
       k=st.floats(min_value=0.2, max_value=8.0))
@settings(max_examples=80, deadline=None)
def test_gamma_k_functional_equation(t, k):
    assert math.isclose(gamma_k(t + k, k), t * gamma_k(t, k), rel_tol=1e-10)


def test_reductions_to_classical_at_unit_parameter():
    for t in (0.5, 1.0, 2.0, 5.0, 10.0):
        assert math.isclose(gamma_k(t, 1.0), gamma(t), rel_tol=1e-12)
        assert abs(psi_k(t, 1.0).value - psi(t)) <= 2e-12


# ---------------------------------------------------------------------------
# Convergence toward the classical function
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [1.5, 2.5])
def test_gamma_p_error_decreases_in_p(t):
    errs = [abs(gamma_p(t, p) - gamma(t)) for p in (10, 100, 1000)]
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("t", [1.5, 2.5])
def test_gamma_q_error_decreases_as_q_to_one(t):
    errs = [abs(gamma_q(t, q).value - gamma(t)) for q in (0.5, 0.9, 0.99)]
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# Derivative links: psi_* is d/dt of the corresponding log Gamma
# ---------------------------------------------------------------------------

def test_log_gamma_p_derivative_is_psi_p():
    h = 1e-5
    for t, p in ((0.7, 2), (1.5, 10), (4.2, 77)):
        fd = (log_gamma_p(t + h, p) - log_gamma_p(t - h, p)) / (2.0 * h)
        assert abs(fd - psi_p(t, p)) < 1e-6


def test_log_gamma_q_derivative_is_psi_q():
    h = 1e-5
    for t, q in ((0.7, 0.3), (1.5, 0.5), (4.2, 0.85)):
        fd = (log_gamma_q(t + h, q, TIGHT).value
              - log_gamma_q(t - h, q, TIGHT).value) / (2.0 * h)
        assert abs(fd - psi_q(t, q, TIGHT).value) < 1e-6


def test_log_gamma_k_derivative_is_psi_k():
    h = 1e-5
    for t, k in ((0.7, 2.0), (1.5, 1.3), (4.2, 5.0)):
        fd = (log_gamma_k(t + h, k) - log_gamma_k(t - h, k)) / (2.0 * h)
        assert abs(fd - psi_k(t, k).value) < 1e-6


@pytest.mark.parametrize("t, k", [(t, k) for k in (1e-6, 1e-9, 1e-305, 1e-320)
                                  for t in (0.5, 1.0, 2.5)])
def test_psi_k_small_k_matches_mpmath(t, k):
    # (ln k + psi(t/k))/k at 40 significant digits; the working precision
    # adds the digits that ln k and psi(t/k) lose to cancellation.  At
    # k = 1e-320 and t != 1 the value, about ln(t)/k, is beyond the double
    # range, which is an OverflowError, not an infinite value.
    with mp.workdps(40 + math.ceil(-math.log10(k))):
        ref = (mp.log(k) + mp.digamma(mpf(t) / k)) / k
    if abs(ref) > sys.float_info.max:
        with pytest.raises(OverflowError):
            psi_k(t, k)
        return
    r = psi_k(t, k)
    assert r.converged and r.err_bound <= core_special.DEFAULT_TOL
    with mp.workdps(40 + math.ceil(-math.log10(k))):
        assert abs(r.value - ref) <= r.err_bound + 4 * 2.0**-53 * max(abs(ref), 1)


def test_psi_k_unreachable_tol_raises_overflow_at_once():
    # tol cannot be met at k = 1e-320; a whole 10^7-term budget was once
    # summed before the value, about -7.4e322, overflowed.
    start = time.perf_counter()
    with pytest.raises(OverflowError):
        psi_k(1e-320, 1e-320)
    assert time.perf_counter() - start < 0.5


def test_psi_k_series_matches_closed_form():
    # (1/k) psi(t/k) + ln(k)/k is an implementer-derived closed form that
    # must agree with the direct series summation.
    rng = np.random.default_rng(5)
    for _ in range(60):
        t = float(rng.uniform(0.1, 30.0))
        k = float(rng.uniform(0.2, 10.0))
        closed = psi(t / k) / k + math.log(k) / k
        assert abs(psi_k(t, k, 1e-12).value - closed) <= 10.0 * 1e-12
