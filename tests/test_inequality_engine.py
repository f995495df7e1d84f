import inspect
import math
import random

import pytest
from mpmath import mp, mpf

from _hp_bounds import k_bounds, p_bounds, q_bounds
from gammagen import gen_gamma, inequality_engine
from gammagen.core_special import (EULER_GAMMA, DomainError, EvalResult, ToleranceNotMet,
                                   log_gamma, psi_series)
from gammagen.gen_gamma import log_gamma_k, log_gamma_p, log_gamma_q, psi_k, psi_p, psi_q
from gammagen.inequality_engine import (
    FAMILIES,
    GenParams,
    _verdict,
    MonotoneScan,
    check_sandwich,
    check_sandwich_k,
    check_sandwich_p,
    check_sandwich_q,
    family_callables,
    lemma_expr_k,
    lemma_expr_k_unchecked,
    lemma_expr_p,
    lemma_expr_p_unchecked,
    lemma_expr_q,
    lemma_expr_q_unchecked,
    log_deriv_omega,
    log_deriv_phi,
    log_deriv_theta,
    log_omega,
    log_phi,
    log_theta,
    omega,
    phi,
    scan_monotone,
    scan_passes,
    theta,
)
from gammagen.selftest import classical_bounds_k, classical_bounds_p, classical_bounds_q


# ---------------------------------------------------------------------------
# GenParams and hypothesis enforcement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(a=0.0, b=1.0, alpha=1.0, beta=1.0),
    dict(a=1.0, b=-1.0, alpha=1.0, beta=1.0),
    dict(a=1.0, b=1.0, alpha=0.0, beta=1.0),
    dict(a=1.0, b=1.0, alpha=1.0, beta=0.0),
])
def test_gen_params_must_be_positive(kwargs):
    with pytest.raises(DomainError):
        GenParams(**kwargs)


def test_gen_params_is_an_immutable_record_checked_on_replace():
    gp = GenParams(1.0, 2.0, 1.5, 0.5)
    assert gp == (1.0, 2.0, 1.5, 0.5) and gp._fields == ("a", "b", "alpha", "beta")
    assert gp._replace(beta=2.0) == GenParams(1.0, 2.0, 1.5, 2.0)
    for name in gp._fields:
        with pytest.raises(DomainError, match=name):
            gp._replace(**{name: -1.0})
    with pytest.raises(AttributeError):
        gp.a = 3.0


def test_lemma_p_requires_t_above_one():
    with pytest.raises(DomainError):
        lemma_expr_p(1.0, 1.0, 1.0, 3)
    # the unchecked variant evaluates anywhere psi does
    lemma_expr_p_unchecked(1.0, 1.0, 0.5, 3)


def test_lemma_q_requires_t_above_one():
    with pytest.raises(DomainError):
        lemma_expr_q(1.0, 1.0, 0.7, 0.5)
    lemma_expr_q_unchecked(1.0, 1.0, 0.7, 0.5)


def test_lemma_k_hypotheses():
    with pytest.raises(DomainError):
        lemma_expr_k(1.0, 2.0, 1.0, 2.0)  # a < b
    with pytest.raises(DomainError):
        lemma_expr_k(2.0, 1.0, 1.0, 0.5)  # k < 1
    lemma_expr_k_unchecked(1.0, 2.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# Lemma expression values
# ---------------------------------------------------------------------------

def test_lemma_p_value_at_simple_point():
    # gamma_E + psi(2) - psi_1(2) = gamma_E + (1 - gamma_E) + 5/6 = 11/6
    assert math.isclose(lemma_expr_p(1.0, 1.0, 2.0, 1), 11.0 / 6.0, rel_tol=1e-12)


def test_lemma_p_near_one_limit():
    # In the series form a(t-1) sum 1/((1+n)(n+t)) + b sum_{n=0}^{p} 1/(n+t)
    # the a-part vanishes as t -> 1+, leaving b (1 + 1/2 + ... + 1/(p+1)).
    expected = 1.0 + 0.5 + 1.0 / 3.0
    assert abs(lemma_expr_p(1.0, 1.0, 1.0 + 1e-9, 2) - expected) < 1e-6


def test_lemma_beyond_the_double_range_raises_overflow():
    # a gamma_E + b ln p alone passes the double range; the value, 2.59e308
    # (mpmath), lies beyond it.  This returned inf.
    with pytest.raises(OverflowError, match=r"lemma_expr_p at .* exceeds the double range"):
        lemma_expr_p(1e308, 1e308, 2.0, 5)


def test_lemma_q_value_at_simple_point():
    got = lemma_expr_q(1.0, 1.0, 2.0, 0.5)
    assert abs(got - 1.4205290343560458) < 1e-12


def test_lemma_q_stress_point_positive():
    assert lemma_expr_q(0.1, 5.0, 1.5, 0.9) > 0.0


def test_lemma_q_near_one_limit():
    # At t -> 1+ with a = b = 1 everything cancels except
    # -ln q * sum_{n>=0} q^(1+n)/(1 - q^(1+n)), each term positive.
    q = 0.5
    tail = sum(q ** (1 + n) / (1.0 - q ** (1 + n)) for n in range(200))
    expected = -math.log(q) * tail
    assert abs(lemma_expr_q(1.0, 1.0, 1.0 + 1e-9, q) - expected) < 1e-6
    assert expected > 0.0


def test_lemma_k_vanishes_at_unit_parameters():
    for t in (0.3, 1.0, 2.0, 7.7):
        assert abs(lemma_expr_k(1.0, 1.0, t, 1.0)) <= 1e-12


def test_lemma_k_positive_cases():
    assert lemma_expr_k(1.0, 1.0, 2.0, 2.0) > 0.0
    assert lemma_expr_k(3.0, 1.0, 0.5, 4.0) >= 0.0
    assert lemma_expr_p(2.0, 0.5, 5.0, 10) > 0.0


def _composed_lemma(family, a, b, s, x):
    """The lemma a gamma_E + c [+ (a - b)/s] + a psi(s) - b psi_X(s), formed
    from the public evaluators in the engine's order, and the magnitudes of
    its four parts a gamma_E, c, a psi(s) and b psi_X(s)."""
    if family == "p":
        const, psi_x = b * math.log(x), psi_p(s, x)
    elif family == "q":
        const, psi_x = -b * math.log1p(-x), psi_q(s, x).value
    else:
        const, psi_x = b / x * (math.log(x) - EULER_GAMMA), psi_k(s, x).value
    psi_s = psi_series(s).value
    value = a * EULER_GAMMA + const
    if family == "k":
        value += (a - b) / s
    value += a * psi_s - b * psi_x
    return value, abs(a * EULER_GAMMA) + abs(const) + abs(a * psi_s) + abs(b * psi_x)


def test_lemma_q_and_k_are_the_composition_bit_for_bit():
    rng = random.Random(28)
    for _ in range(500):
        a, b = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
        s = 1.0 + 10 ** rng.uniform(-4, 1.7)
        q = rng.choice([rng.uniform(0.01, 0.99), 1.0 - 10 ** rng.uniform(-6, -1)])
        assert lemma_expr_q(a, b, s, q) == _composed_lemma("q", a, b, s, q)[0], (a, b, s, q)
        a, s, k = max(a, b), 10 ** rng.uniform(-3, 1.7), 10 ** rng.uniform(0, 3)
        assert lemma_expr_k(a, b, s, k) == _composed_lemma("k", a, b, s, k)[0], (a, b, s, k)


@pytest.mark.parametrize("p", [1, 9, 10, 11, 500, 10**7, 10**300])
def test_lemma_p_is_the_composition_to_rounding(p):
    # at p >= 10 the lemma takes psi(s) back as psi_p(s) plus the gap, which
    # may round differently from psi_series(s) by an ulp of the larger
    u = 2.0 ** -53
    rng = random.Random(p % 1009)
    for _ in range(300):
        a, b = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
        s = 1.0 + 10 ** rng.uniform(-4, 1.7)
        want, scale = _composed_lemma("p", a, b, s, p)
        assert abs(lemma_expr_p(a, b, s, p) - want) <= 4 * u * scale, (a, b, s)


def test_engine_says_of_an_unconverged_value_what_eval_says():
    r = EvalResult(0.5, 3e-9, 10_000, False)
    with pytest.raises(ToleranceNotMet) as exc:
        inequality_engine._converged_value(r, "psi_q")
    assert str(exc.value) == ("psi_q: no series length within the 10,000-term cap "
                              "meets tol=1e-12 (err_bound 3e-09)")


def test_lemma_p_sums_psi_once_and_checks_p_first(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(gen_gamma, "psi_series", counted("psi_series", psi_series))
    monkeypatch.setattr(inequality_engine, "psi_series", counted("psi_series", psi_series))
    monkeypatch.setattr(inequality_engine, "_psi_p_gap",
                        counted("gap", inequality_engine._psi_p_gap))
    lemma_expr_p(2.0, 1.0, 2.5, 30)
    assert calls == ["psi_series", "gap"]
    calls.clear()
    lemma_expr_p(2.0, 1.0, 2.5, 9)
    assert calls == ["psi_series"]
    calls.clear()
    # a non-integer p is psi_p's to reject, before any gap is formed
    with pytest.raises(DomainError, match="p must be an integer"):
        lemma_expr_p_unchecked(2.0, 1.0, 2.5, 10.5)
    assert calls == []


# ---------------------------------------------------------------------------
# Auxiliary functions
# ---------------------------------------------------------------------------

def test_omega_values():
    gp = GenParams(1.0, 1.0, 1.0, 1.0)
    assert math.isclose(omega(0.0, gp, 1), 2.0, rel_tol=1e-12)
    assert math.isclose(omega(1.0, gp, 1), 6.0 * math.exp(EULER_GAMMA), rel_tol=1e-12)
    assert math.isclose(omega(1.0, gp, 1), 10.686434507941188, rel_tol=1e-12)
    assert omega(0.2, gp, 1) < omega(0.7, gp, 1)


def test_phi_values():
    gp = GenParams(1.0, 1.0, 1.0, 1.0)
    assert math.isclose(phi(0.0, gp, 0.5), 1.0, rel_tol=1e-11)
    assert math.isclose(phi(1.0, gp, 0.5), 2.0 * math.exp(EULER_GAMMA), rel_tol=1e-11)


def test_phi_increasing_on_grid():
    gp = GenParams(2.0, 1.0, 1.5, 0.5)
    values = [phi(0.05 * i, gp, 0.3) for i in range(100)]
    assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


def test_theta_identically_one_when_degenerate():
    gp = GenParams(1.5, 1.5, 2.0, 0.7)
    for t in (0.0, 0.5, 1.0, 3.0):
        assert theta(t, gp, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_theta_at_zero_value():
    gp = GenParams(2.0, 1.0, 1.0, 1.0)
    assert math.isclose(theta(0.0, gp, 2.0), math.sqrt(2.0 / math.pi), rel_tol=1e-12)
    assert math.isclose(theta(0.0, gp, 2.0), 0.7978845608028654, rel_tol=1e-12)


def test_theta_nondecreasing_sample():
    gp = GenParams(2.0, 1.0, 1.0, 1.0)
    assert theta(0.0, gp, 2.0) <= theta(0.5, gp, 2.0) <= theta(1.0, gp, 2.0)


def test_theta_requires_a_ge_b_and_k_ge_one():
    with pytest.raises(DomainError):
        theta(0.5, GenParams(1.0, 2.0, 1.0, 1.0), 2.0)
    with pytest.raises(DomainError):
        theta(0.5, GenParams(2.0, 1.0, 1.0, 1.0), 0.5)


def test_eval_point_domain():
    gp = GenParams(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        omega(-0.1, gp, 2)


# ---------------------------------------------------------------------------
# Log-derivatives
# ---------------------------------------------------------------------------

def test_log_deriv_theta_zero_at_unit_parameters():
    gp = GenParams(1.0, 1.0, 1.5, 1.0)
    assert abs(log_deriv_theta(0.5, gp, 1.0)) <= 1e-12


def test_log_deriv_factors_through_lemma_exactly():
    gp = GenParams(1.3, 0.6, 1.2, 0.8)
    t = 0.5
    assert log_deriv_omega(t, gp, 3) == gp.beta * lemma_expr_p(
        gp.a, gp.b, gp.alpha + gp.beta * t, 3)
    assert log_deriv_theta(t, GenParams(2.0, 1.0, 1.2, 0.8), 2.0) == \
        0.8 * lemma_expr_k(2.0, 1.0, 1.2 + 0.8 * t, 2.0)


def test_log_deriv_omega_positive_case():
    gp = GenParams(1.0, 1.0, 1.2, 1.0)
    assert log_deriv_omega(0.5, gp, 3) > 0.0
    assert log_deriv_omega(0.5, gp, 3) == gp.beta * lemma_expr_p(1.0, 1.0, 1.7, 3)


@pytest.mark.parametrize("family", ["p", "q", "k"])
def test_log_deriv_matches_finite_difference(family):
    h = 1e-5
    if family == "p":
        gp, ld, lg = (GenParams(1.0, 1.0, 1.5, 1.0),
                      lambda t: log_deriv_omega(t, GenParams(1.0, 1.0, 1.5, 1.0), 5),
                      lambda t: log_omega(t, GenParams(1.0, 1.0, 1.5, 1.0), 5))
    elif family == "q":
        gp, ld, lg = (GenParams(0.5, 2.0, 3.0, 1.0),
                      lambda t: log_deriv_phi(t, GenParams(0.5, 2.0, 3.0, 1.0), 0.7),
                      lambda t: log_phi(t, GenParams(0.5, 2.0, 3.0, 1.0), 0.7))
    else:
        gp, ld, lg = (GenParams(2.0, 0.5, 1.5, 0.8),
                      lambda t: log_deriv_theta(t, GenParams(2.0, 0.5, 1.5, 0.8), 3.0),
                      lambda t: log_theta(t, GenParams(2.0, 0.5, 1.5, 0.8), 3.0))
    t = 0.4
    fd = (lg(t + h) - lg(t - h)) / (2.0 * h)
    assert abs(fd - ld(t)) < 1e-6


# ---------------------------------------------------------------------------
# Sandwich checkers
# ---------------------------------------------------------------------------

def test_sandwich_p_frozen_point():
    rep = check_sandwich_p(GenParams(1.0, 1.0, 1.0, 1.0), 1, [0.5])[0]
    assert rep.lower == pytest.approx(1.498612002576898, rel=1e-12)
    assert rep.middle == pytest.approx(3.323350970447842, rel=1e-12)
    assert rep.upper == pytest.approx(8.007409509176306, rel=1e-12)
    assert rep.lower < rep.middle < rep.upper
    assert rep.strict and rep.passed
    assert rep.note  # alpha == 1 sits on the hypothesis boundary


def test_sandwich_empty_grid():
    gp = GenParams(1.0, 1.0, 1.5, 1.0)
    assert check_sandwich_p(gp, 3, []) == []
    assert check_sandwich_q(gp, 0.5, []) == []
    assert check_sandwich_k(GenParams(1.0, 1.0, 1.5, 1.0), 2.0, []) == []


def test_sandwich_rejects_alpha_below_one():
    gp = GenParams(1.0, 1.0, 0.9, 1.0)
    with pytest.raises(DomainError, match="alpha"):
        check_sandwich_p(gp, 3, [0.5])
    with pytest.raises(DomainError, match="alpha"):
        check_sandwich_q(gp, 0.5, [0.5])


def test_sandwich_rejects_grid_outside_unit_interval():
    gp = GenParams(1.0, 1.0, 1.5, 1.0)
    for bad in ([0.0], [1.0], [0.5, 1.2], [-0.1]):
        with pytest.raises(DomainError, match="grid"):
            check_sandwich_p(gp, 3, bad)


def test_sandwich_k_rejects_bad_hypotheses():
    with pytest.raises(DomainError, match="a >= b"):
        check_sandwich_k(GenParams(1.0, 2.0, 1.0, 1.0), 2.0, [0.5])
    with pytest.raises(DomainError, match="k >= 1"):
        check_sandwich_k(GenParams(2.0, 1.0, 1.0, 1.0), 0.5, [0.5])


def test_sandwich_k_equality_case():
    rows = check_sandwich_k(GenParams(1.0, 1.0, 2.0, 1.0), 1.0, [0.25, 0.5, 0.75])
    for r in rows:
        assert not r.strict
        assert r.passed
        assert abs(r.lower_margin) <= 1e-12
        assert abs(r.upper_margin) <= 1e-12


def test_strict_flags_by_family():
    gp = GenParams(1.0, 1.0, 1.5, 1.0)
    assert check_sandwich_p(gp, 3, [0.5])[0].strict
    assert check_sandwich_q(gp, 0.5, [0.5])[0].strict
    assert not check_sandwich_k(gp, 2.0, [0.5])[0].strict


def test_strict_verdict_fails_an_exact_equality():
    # lower = middle = 1 exactly: a strict bound met with equality fails,
    # the same row passes where the claim is not strict
    assert not _verdict(0.5, 0.0, 0.0, 1.0, True, "").passed
    assert _verdict(0.5, 0.0, 0.0, 1.0, False, "").passed


VERDICT_SIGNATURES = [
    (check_sandwich, ["family", "gp", "param", "grid"]),
    (check_sandwich_p, ["gp", "p", "grid"]),
    (check_sandwich_q, ["gp", "q", "grid"]),
    (check_sandwich_k, ["gp", "k", "grid"]),
    (scan_passes, ["scan"]),
]


@pytest.mark.parametrize("fn, params", VERDICT_SIGNATURES,
                         ids=[fn.__name__ for fn, _ in VERDICT_SIGNATURES])
def test_verdicts_take_no_slack(fn, params):
    # the slack is the constant DEFAULT_TOL_REPORT
    assert list(inspect.signature(fn).parameters) == params


# one role's p, q and k entry points, in that order
ROLES = {
    "lemma": (lemma_expr_p, lemma_expr_q, lemma_expr_k),
    "unchecked_lemma": (lemma_expr_p_unchecked, lemma_expr_q_unchecked,
                        lemma_expr_k_unchecked),
    "log_aux": (log_omega, log_phi, log_theta),
    "aux": (omega, phi, theta),
    "log_deriv": (log_deriv_omega, log_deriv_phi, log_deriv_theta),
    "sandwich": (check_sandwich_p, check_sandwich_q, check_sandwich_k),
}


@pytest.mark.parametrize("role", ROLES)
def test_families_share_one_signature_per_role(role):
    shapes = []
    for family, fn in zip("pqk", ROLES[role]):
        params = list(inspect.signature(fn).parameters)
        assert family in params
        shapes.append(["param" if name == family else name for name in params])
    assert shapes[0] == shapes[1] == shapes[2]


def test_engine_takes_no_series_tolerance():
    fns = [fn for fn in vars(inequality_engine).values()
           if inspect.isfunction(fn) and fn.__module__ == inequality_engine.__name__]
    fns += [getattr(fam, role) for fam in FAMILIES.values() for role in ("log_gamma", "psi_pair")]
    fns.append(classical_bounds_q)
    assert len(fns) > 40
    for fn in fns:
        assert "tol" not in inspect.signature(fn).parameters, fn.__qualname__


@pytest.mark.parametrize("family, param, wrapper", [
    ("p", 7, check_sandwich_p), ("q", 0.35, check_sandwich_q), ("k", 3.0, check_sandwich_k)])
def test_sandwich_reads_a_one_shot_grid_once(family, param, wrapper):
    # a one-shot grid is read once: a grid check that used it up would leave
    # no rows, and an empty report passes vacuously
    gp = GenParams(2.0, 1.0, 1.5, 0.5)
    grid = [0.1 * i for i in range(1, 10)]
    rows = check_sandwich(family, gp, param, grid)
    assert len(rows) == 9
    for one_shot in ((t for t in grid), iter(grid)):
        assert check_sandwich(family, gp, param, one_shot) == rows
    for one_shot in ((t for t in grid), iter(grid)):
        assert wrapper(gp, param, one_shot) == rows


def test_sandwich_q_stress_near_one():
    rows = check_sandwich_q(GenParams(1.0, 1.0, 2.0, 1.0), 0.99, [0.5])
    assert rows[0].passed
    assert rows[0].lower < rows[0].middle < rows[0].upper


def test_sandwich_matches_hp_reference():
    with mp.workdps(40):
        gp = GenParams(1.3, 0.7, 1.5, 0.8)
        for t in (0.1, 0.5, 0.9):
            rep_p = check_sandwich_p(gp, 7, [t])[0]
            lo, mi, up = p_bounds(mpf("1.3"), mpf("0.7"), mpf("1.5"), mpf("0.8"),
                                  7, mpf(repr(t)))
            assert abs(mpf(rep_p.lower) - lo) / lo < 1e-12
            assert abs(mpf(rep_p.middle) - mi) / mi < 1e-12
            assert abs(mpf(rep_p.upper) - up) / up < 1e-12

            rep_q = check_sandwich_q(gp, 0.35, [t])[0]
            lo, mi, up = q_bounds(mpf("1.3"), mpf("0.7"), mpf("1.5"), mpf("0.8"),
                                  mpf("0.35"), mpf(repr(t)))
            assert abs(mpf(rep_q.lower) - lo) / lo < 1e-11
            assert abs(mpf(rep_q.middle) - mi) / mi < 1e-11
            assert abs(mpf(rep_q.upper) - up) / up < 1e-11

            rep_k = check_sandwich_k(GenParams(2.0, 1.0, 1.5, 0.5), 3.0, [t])[0]
            lo, mi, up = k_bounds(mpf(2), mpf(1), mpf("1.5"), mpf("0.5"),
                                  mpf(3), mpf(repr(t)))
            assert abs(mpf(rep_k.lower) - lo) / lo < 1e-12
            assert abs(mpf(rep_k.middle) - mi) / mi < 1e-12
            assert abs(mpf(rep_k.upper) - up) / up < 1e-12


# ---------------------------------------------------------------------------
# Reduction regressions: a = b = beta = 1 restores the one-parameter bounds
# ---------------------------------------------------------------------------

def _close(x, y):
    return math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12)


def test_reduction_p_termwise():
    rep = check_sandwich_p(GenParams(1.0, 1.0, 1.5, 1.0), 4, [0.3])[0]
    lo, mi, up = classical_bounds_p(1.5, 4, 0.3)
    assert _close(rep.lower, lo) and _close(rep.middle, mi) and _close(rep.upper, up)


def test_reduction_q_termwise():
    rep = check_sandwich_q(GenParams(1.0, 1.0, 1.5, 1.0), 0.5, [0.3])[0]
    lo, mi, up = classical_bounds_q(1.5, 0.5, 0.3)
    assert _close(rep.lower, lo) and _close(rep.middle, mi) and _close(rep.upper, up)


def test_reduction_k_termwise():
    rep = check_sandwich_k(GenParams(1.0, 1.0, 1.0, 1.0), 2.0, [0.5])[0]
    lo, mi, up = classical_bounds_k(1.0, 2.0, 0.5)
    assert _close(rep.lower, lo) and _close(rep.middle, mi) and _close(rep.upper, up)


# ---------------------------------------------------------------------------
# Monotone scans
# ---------------------------------------------------------------------------

def test_scan_monotone_omega():
    gp = GenParams(1.0, 1.0, 1.0, 1.0)
    fn, ld = family_callables("p", gp, 2)
    grid = [0.01 * i for i in range(1, 501)]
    scan = scan_monotone(fn, ld, grid)
    assert isinstance(scan, MonotoneScan)
    assert scan.min_forward_diff > 0.0
    assert scan.derivative_min > 0.0
    assert len(scan.values) == len(scan.grid) == 500


def test_scan_monotone_theta_equality_case():
    fn, ld = family_callables("k", GenParams(1.0, 1.0, 1.5, 1.0), 1.0)
    scan = scan_monotone(fn, ld, [0.1 * i for i in range(1, 21)])
    assert abs(scan.min_forward_diff) <= 1e-12


def test_scan_monotone_phi_with_large_alpha():
    gp = GenParams(0.5, 2.0, 3.0, 1.0)
    fn, ld = family_callables("q", gp, 0.7)
    scan = scan_monotone(fn, ld, [0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
    assert scan.derivative_min > 0.0
    assert scan.min_forward_diff > 0.0


def test_family_callables_rejects_unknown_family():
    with pytest.raises(DomainError, match="family"):
        family_callables("x", GenParams(1.0, 1.0, 1.5, 1.0), 2.0)


def test_scan_monotone_rejects_bad_grid():
    fn, ld = family_callables("p", GenParams(1.0, 1.0, 1.5, 1.0), 2)
    with pytest.raises(DomainError):
        scan_monotone(fn, ld, [0.5])
    with pytest.raises(DomainError):
        scan_monotone(fn, ld, [0.5, 0.5])
    with pytest.raises(DomainError):
        scan_monotone(fn, ld, [0.7, 0.5])


def test_scan_monotone_takes_a_two_point_grid():
    fn, ld = family_callables("p", GenParams(1.0, 1.0, 1.5, 1.0), 2)
    scan = scan_monotone(fn, ld, [0.5, 0.7])
    assert scan.grid == (0.5, 0.7) and scan.min_forward_diff == scan.values[1] - scan.values[0]


def test_verdicts_at_the_slack():
    # A scan passes while no margin falls below -DEFAULT_TOL_REPORT, which
    # README gives as 1e-9, so one exactly at the slack passes and the next
    # double below fails.
    slack = 1e-9
    below = math.nextafter(-slack, -1.0)
    grid, values = (1.0, 2.0), (0.0, 0.0)
    assert scan_passes(MonotoneScan(grid, values, -slack, 0.0))
    assert scan_passes(MonotoneScan(grid, values, 0.0, -slack))
    assert not scan_passes(MonotoneScan(grid, values, below, 0.0))
    assert not scan_passes(MonotoneScan(grid, values, 0.0, below))
    # A sandwich row passes while its margins exceed it: with middle = 0 the
    # lower margin is -lower, just inside the slack or just outside it.
    for lower, passed in ((slack * (1 - 5e-7), True), (slack * (1 + 5e-7), False)):
        row = _verdict(0.5, math.log(lower), -math.inf, 0.0, False, "")
        assert row.lower_margin == -row.lower and row.passed is passed


def test_scan_rejects_inadmissible_point():
    # alpha + beta*t <= 1 at some grid point: the q-lemma hypothesis fails
    gp = GenParams(1.0, 1.0, 0.5, 1.0)
    fn, ld = family_callables("q", gp, 0.5)
    with pytest.raises(DomainError):
        scan_monotone(fn, ld, [0.1, 0.2, 0.3])


def _ell_and_log_middle(family, gp, x, t):
    """ln aux(t) as ell(t) = beta t (a gamma_E + c) [+ (a - b) ln s] and
    ln Gamma(s)^a / Gamma_X(s)^b, formed from the public evaluators in the
    engine's order."""
    s = gp.alpha + gp.beta * t
    if family == "p":
        const, log_gamma_x = gp.b * math.log(x), log_gamma_p(s, x)
    elif family == "q":
        const, log_gamma_x = -gp.b * math.log1p(-x), log_gamma_q(s, x).value
    else:
        const, log_gamma_x = gp.b / x * (math.log(x) - EULER_GAMMA), log_gamma_k(s, x)
    ell = gp.beta * t * (gp.a * EULER_GAMMA + const)
    if family == "k":
        ell += (gp.a - gp.b) * math.log(s)
    return ell, gp.a * log_gamma(s) - gp.b * log_gamma_x


@pytest.mark.parametrize("family, log_aux, log_deriv", [
    ("p", log_omega, log_deriv_omega), ("q", log_phi, log_deriv_phi),
    ("k", log_theta, log_deriv_theta)])
def test_sweeps_are_the_per_point_values_bit_for_bit(family, log_aux, log_deriv):
    # check_sandwich and family_callables form the lemma's head a gamma_E + c
    # once per sweep; every point must be what the per-point functions give
    rng = random.Random(33)
    for _ in range(60):
        a = rng.uniform(0.2, 5.0)
        # b < a, so the k family's (a - b) ln s term is not zero
        gp = GenParams(a, rng.uniform(0.1, a if family == "k" else 5.0),
                       rng.uniform(1.0, 4.0), rng.uniform(0.1, 2.0))
        x = {"p": rng.choice([1, 5, 9, 10, 11, 250, 10**6]),
             "q": rng.choice([rng.uniform(0.01, 0.99), 1.0 - 10 ** rng.uniform(-6, -1)]),
             "k": 10 ** rng.uniform(0, 2)}[family]
        grid = sorted(rng.uniform(0.01, 0.99) for _ in range(5))
        log_at0, log_at1 = log_aux(0.0, gp, x), log_aux(1.0, gp, x)
        rows = check_sandwich(family, gp, x, grid)
        assert len(rows) == len(grid)
        for t, row in zip(grid, rows):
            ell, log_middle = _ell_and_log_middle(family, gp, x, t)
            assert ell + log_middle == log_aux(t, gp, x), (gp, x, t)
            want = _verdict(t, log_at0 - ell, log_middle, log_at1 - ell, family != "k",
                            row.note)
            assert row == want, (gp, x, t)
        grid = [0.1 + 0.7 * i for i in range(5)]
        values = tuple(math.exp(log_aux(t, gp, x)) for t in grid)
        assert scan_monotone(*family_callables(family, gp, x), grid) == MonotoneScan(
            tuple(grid), values, min(v2 - v1 for v1, v2 in zip(values, values[1:])),
            min(log_deriv(t, gp, x) for t in grid)), (gp, x)


# ---------------------------------------------------------------------------
# Endpoint behavior: margins shrink toward the interval ends
# ---------------------------------------------------------------------------

def test_margins_shrink_toward_endpoints():
    gp = GenParams(1.0, 1.0, 1.5, 1.0)
    lower_margins = [check_sandwich_p(gp, 5, [t])[0].lower_margin
                     for t in (0.1, 0.01, 0.001)]
    assert lower_margins[0] > lower_margins[1] > lower_margins[2] > 0.0
    upper_margins = [check_sandwich_p(gp, 5, [t])[0].upper_margin
                     for t in (0.9, 0.99, 0.999)]
    assert upper_margins[0] > upper_margins[1] > upper_margins[2] > 0.0
