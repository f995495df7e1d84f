import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

import numpy as np

from gammagen import core_special
from gammagen.core_special import (
    EULER_GAMMA,
    DomainError,
    EvalResult,
    gamma,
    log_gamma,
    psi,
    psi_series,
)
from gammagen import oracle
from gammagen.gen_gamma import gamma_q, log_gamma_q, psi_k, psi_q


def test_gamma_integer_values():
    assert gamma(1.0) == 1.0
    assert gamma(5.0) == 24.0


def test_gamma_half_is_sqrt_pi():
    assert math.isclose(gamma(0.5), 1.7724538509055159, rel_tol=1e-14)
    assert math.isclose(gamma(0.5), math.sqrt(math.pi), rel_tol=1e-14)


@pytest.mark.parametrize("t", [0.0, -1.0, -0.5])
def test_gamma_domain_error(t):
    with pytest.raises(DomainError):
        gamma(t)
    with pytest.raises(DomainError):
        log_gamma(t)


def test_gamma_overflow():
    with pytest.raises(OverflowError):
        gamma(200.0)


def test_psi_series_at_one_matches_vanishing_prefactor_form():
    # The (t-1)-prefactor form of the series is exactly -gamma_E at t = 1.
    first_form = -EULER_GAMMA + (1.0 - 1.0) * 0.0
    r = psi_series(1.0, 1e-12)
    assert abs(r.value - first_form) < 1e-13


def test_psi_series_at_two_telescopes_to_one_minus_gamma():
    r = psi_series(2.0, 1e-12)
    assert abs(r.value - (1.0 - EULER_GAMMA)) < 1e-13


def test_psi_series_at_half():
    r = psi_series(0.5, 1e-12)
    assert abs(r.value - (-1.9635100260214235)) < 5e-13
    assert abs(r.value + EULER_GAMMA + 2.0 * math.log(2.0)) < 5e-13


def test_psi_at_ten():
    assert abs(psi(10.0) - 2.2517525890667211) < 1e-12


def test_psi_series_reports_budget_and_bound():
    r = psi_series(3.7, 1e-12)
    assert isinstance(r, EvalResult)
    assert r.err_bound >= 0.0
    assert r.terms_used <= core_special._MAX_TERMS
    assert r.converged
    assert r.err_bound <= 1e-12


def test_psi_series_tolerance_not_met_is_nonfatal():
    # At t = 0.5, tol = 1e-60 takes a shift of about 5,300 terms, within the
    # 10^4-term cap; 1e-70 would take about 12,000, so psi stops at the
    # 10-term shift to x >= 10 that the default tol takes.
    r = psi_series(0.5, 1e-60)
    assert r.converged and 5000 < r.terms_used <= core_special._MAX_TERMS
    r = psi_series(0.5, 1e-70)
    assert not r.converged
    assert r.terms_used == 10
    assert r.err_bound == psi_series(0.5).err_bound > 1e-70


def test_psi_series_unreachable_tol_stops_at_x_ten():
    # tol = 1e-300 needs a shift of about 5e18 terms; a 10^7-term budget
    # was once summed, for a value 1.6e-15 off.
    r = psi_series(2.5, 1e-300)
    assert not r.converged and r.terms_used <= 10
    with mp.workdps(30):
        exact = float(mp.digamma(mpf(2.5)))
    assert abs(r.value - exact) <= 2 * math.ulp(exact)
    assert r.err_bound == psi_series(2.5).err_bound


_T_LOG_SPACED = [10.0 ** (e / 4.0) for e in range(-12, 49)]  # 1e-3 .. 1e12


def test_psi_series_err_bound_is_the_first_omitted_term():
    # err_bound is |B_16| / (16 x^16) at x = t + terms_used, to rounding
    b16 = abs(mp.bernoulli(16)) / 16
    for t in _T_LOG_SPACED:
        for tol in (1e-12, 1e-20):
            r = psi_series(t, tol)
            x = mpf(t) + r.terms_used
            assert r.err_bound == pytest.approx(float(b16 / x**16), rel=1e-14, abs=0), (t, tol)


def test_psi_series_terms_bounded():
    # The recurrence shift reaches x >= 10 in at most ten steps, whatever t.
    with mp.workdps(30):
        for t in _T_LOG_SPACED:
            r = psi_series(t)
            exact = float(mp.digamma(mpf(t)))
            assert r.converged and r.terms_used <= 10
            assert abs(r.value - exact) <= 2e-15 * max(1.0, abs(exact)), t


def test_psi_series_meets_a_tolerance_below_the_unit_roundoff():
    for t in _T_LOG_SPACED:
        r = psi_series(t, 1e-20)
        assert r.converged and r.err_bound <= 1e-20 and r.terms_used <= 20


@pytest.mark.parametrize("bad", [0.0, -1e-9, math.nan])
def test_series_control_rejects_bad_tol(bad):
    # tol, the one series setting, is checked by every series that reads it
    for call in (lambda: psi_series(2.0, bad), lambda: psi_k(2.0, 3.0, bad),
                 lambda: psi_q(2.0, 0.5, bad), lambda: log_gamma_q(2.0, 0.5, bad),
                 lambda: gamma_q(2.0, 0.5, bad)):
        with pytest.raises(DomainError, match=r"tol must be > 0"):
            call()


def test_eval_result_rejects_negative_bound():
    with pytest.raises(ValueError):
        EvalResult(1.0, -1e-16, 10)
    with pytest.raises(ValueError):
        EvalResult(1.0, math.nan, 10)
    with pytest.raises(ValueError):
        EvalResult(1.0, 0.0, 10)._replace(err_bound=-1.0)


def test_eval_result_is_an_immutable_record():
    r = EvalResult(1.5, 2e-13, 7)
    assert r._fields == ("value", "err_bound", "terms_used", "converged")
    assert (r.value, r.err_bound, r.terms_used, r.converged) == (1.5, 2e-13, 7, True)
    assert r == EvalResult(value=1.5, err_bound=2e-13, terms_used=7, converged=True)
    assert repr(r) == "EvalResult(value=1.5, err_bound=2e-13, terms_used=7, converged=True)"
    assert r._replace(converged=False).converged is False
    with pytest.raises(AttributeError):
        r.value = 2.0


def _psi_scaled_fully_sized(t, k, tol):
    """_psi_scaled with its shift always sized from tol, never skipped."""
    u = t / k
    x_needed = math.exp((core_special._LOG_PSI_OMITTED - math.log(tol) - math.log(k)) / 16.0
                        + 1e-9)
    n = math.ceil(max(0.0, 10 - u, x_needed - u))
    if n > core_special._MAX_TERMS:
        n = math.ceil(max(0.0, 10 - u))
    y = t + n * k
    r = k / y
    bound = core_special._PSI_OMITTED * r**15 / y
    value = (math.log(y) / k - (0.5 / y + core_special._psi_tail(r) / k)
             - math.fsum([1.0 / (t + j * k) for j in range(n)]))
    return EvalResult(value, bound, n, bound <= tol)


def test_psi_scaled_skips_only_a_sizing_that_asks_for_nothing():
    # where tol k >= _PSI_TOL_K_SHORT the shift is not sized from tol; the
    # result must be the one the full sizing gives, bit for bit, on both
    # sides of that threshold and across it
    rng = np.random.default_rng(28)
    log_edge = math.log10(core_special._PSI_TOL_K_SHORT)
    sides = [0, 0]
    for _ in range(4000):
        t = float(10 ** rng.uniform(-3, 4))
        k = float(10 ** rng.uniform(-12, 3))
        tol = float(10 ** (log_edge + rng.uniform(-3, 3))) / k
        if not 0.0 < tol < math.inf:
            continue
        sides[tol * k >= core_special._PSI_TOL_K_SHORT] += 1
        assert core_special._psi_scaled(t, k, tol) == _psi_scaled_fully_sized(t, k, tol), (t, k, tol)
    assert min(sides) > 1000


def test_psi_scaled_sizing_margin_keeps_rounding_from_settling_short():
    # tol makes the needed x = u + n lie just past u + m, so n must be m + 1;
    # without the sizing's relative margin of 1e-9, the rounding of its logs
    # and exp settles for n = m, whose bound misses tol
    t, k = 5e-10, 1e-10
    u = t / k
    for m in range(11, 40):
        for eps in (1e-12, 1e-11, 1e-10):
            tol = core_special._PSI_OMITTED / (k * ((u + m) * (1 + eps)) ** 16)
            assert tol * k < core_special._PSI_TOL_K_SHORT  # the sizing runs
            r = core_special._psi_scaled(t, k, tol)
            assert r.converged and r.err_bound <= tol, (m, eps)


def test_bernoulli_table_is_b2_to_b14():
    assert core_special.BERNOULLI == tuple(
        float(Fraction(*mp.bernfrac(n))) for n in range(2, 16, 2))


def test_psi_domain_error():
    with pytest.raises(DomainError):
        psi(0.0)
    with pytest.raises(DomainError):
        psi_series(-2.0)


@given(t=st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=120, deadline=None)
def test_psi_recurrence(t):
    assert abs(psi(t + 1.0) - psi(t) - 1.0 / t) < 1e-10


def test_psi_strictly_increasing_on_grid():
    grid = [0.1 * i for i in range(1, 201)]
    values = [psi(t) for t in grid]
    assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


def test_psi_consistency_against_oracle():
    rng = np.random.default_rng(11)
    tol = core_special.DEFAULT_TOL
    for t in rng.uniform(1e-3, 100.0, size=1000):
        t = float(t)
        diff = abs(psi(t) - float(oracle.psi_hp(t).value))
        assert diff <= 10.0 * tol, f"psi({t}) off by {diff}"


def test_log_gamma_derivative_matches_psi():
    h = 1e-5
    for t in (0.3, 0.9, 1.5, 4.0, 12.0, 40.0):
        fd = (log_gamma(t + h) - log_gamma(t - h)) / (2.0 * h)
        assert abs(fd - psi(t)) < 1e-6
