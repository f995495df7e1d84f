import ast
import math
import pathlib
import random
import sys
import types
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath.libmp import fone

from gammagen import oracle
from gammagen.core_special import DomainError, gamma, psi
from gammagen.gen_gamma import gamma_k, gamma_p, gamma_q, psi_k, psi_p, psi_q


def test_psi_hp_at_one_is_minus_gamma():
    with mp.workdps(40):
        diff = abs(oracle.psi_hp(1.0).value + mpf(oracle.EULER_GAMMA_HP))
        assert diff < mpf("1e-20")


def test_psi_k_hp_reduces_to_psi_hp():
    with mp.workdps(40):
        diff = abs(oracle.psi_k_hp(2.0, 1.0).value - oracle.psi_hp(2.0).value)
        assert diff < mpf("1e-24")


def test_psi_q_hp_frozen_regression():
    # Frozen after the first certified run of this evaluator.
    with mp.workdps(40):
        frozen = mpf("0.2726181462038995296324951910518")
        assert abs(oracle.psi_q_hp(2.0, 0.5).value - frozen) < mpf("1e-23")


def test_gamma_hp_small_integers():
    with mp.workdps(40):
        assert abs(oracle.gamma_hp(1.0).value - 1) < mpf("1e-20")
        assert abs(oracle.gamma_hp(5.0).value - 24) < mpf("1e-18")


def test_gamma_hp_half_is_sqrt_pi():
    with mp.workdps(40):
        assert abs(oracle.gamma_hp(0.5).value - mp.sqrt(mp.pi)) < mpf("1e-20")


def test_gamma_k_quad_exact_cases():
    with mp.workdps(40):
        assert abs(oracle.gamma_k_quad(2.0, 2.0).value - 1) < mpf("1e-15")
        d = abs(oracle.gamma_k_quad(2.5, 1.0).value - oracle.gamma_hp(2.5).value)
        assert d < mpf("1e-18")


def test_gamma_k_quad_matches_closed_identity():
    with mp.workdps(40):
        v = oracle.gamma_k_quad(3.0, 2.0).value
        closed = mpf(2) ** (mpf(3) / 2 - 1) * oracle.gamma_hp(1.5).value
        assert abs(v - closed) / closed < mpf("1e-14")


def test_oracle_self_consistency():
    with mp.workdps(40):
        for t in (0.5, 1.0, 2.5, 7.0):
            a = oracle.gamma_hp(t).value
            b = oracle.gamma_k_quad(t, 1.0).value
            assert abs(a - b) / abs(a) < mpf("1e-18")


def test_cross_validate_basics():
    one = oracle.HPValue(mpf(1), 30)
    assert oracle.cross_validate(1.0, one, 1e-12)
    assert not oracle.cross_validate(1.0 + 1e-6, one, 1e-12)
    with pytest.raises(ValueError):
        oracle.cross_validate(1.0, one, 0.0)


def _decision_at_80_digits(fast, hp, rel_tol):
    """The test cross_validate makes, in 80-digit (265-bit) mpmath: exact
    for these values of at most 120 bits wherever fast and hp.value lie
    within a factor of 2^90 of each other, or either is 0."""
    with mp.workdps(80):
        return abs(mpf(fast) - hp.value) <= mpf(rel_tol) * max(abs(hp.value), 1)


def _around_the_thresholds(hp, rel_tol):
    """The doubles nearest hp.value -+ rel_tol max(|hp.value|, 1), and the
    doubles 1 and 2 ulps either side of each."""
    with mp.workdps(80):
        reach = mpf(rel_tol) * max(abs(hp.value), 1)
        edges = (float(hp.value - reach), float(hp.value + reach))
    for edge in edges:
        below = above = edge
        yield edge
        for _ in range(2):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            yield below
            yield above


_rng_cv = random.Random(25)
CROSSVAL_HP = ([oracle.psi_hp(2.5), oracle.psi_hp(1.4616321449683622), oracle.gamma_hp(3.0),
                oracle.gamma_p_hp(2.5, 10), oracle.psi_q_hp(2.0, 0.5), oracle.psi_k_hp(2.5, 3.0),
                oracle.gamma_q_hp(7.19, 0.9667), oracle.psi_p_hp(0.05, 10**12),
                oracle.HPValue(mpf(0), 25), oracle.HPValue(mpf("-3.5e-7"), 25),
                oracle.HPValue(mpf(1), 25)]
               + [oracle.psi_hp(_rng_cv.uniform(0.01, 60.0)) for _ in range(20)])


@pytest.mark.parametrize("rel_tol", [1e-12, 1e-10, 0.5])
@pytest.mark.parametrize("hp", CROSSVAL_HP)
def test_cross_validate_is_exact(hp, rel_tol):
    fast_values = list(_around_the_thresholds(hp, rel_tol))
    assert any(_decision_at_80_digits(f, hp, rel_tol) for f in fast_values)
    assert not all(_decision_at_80_digits(f, hp, rel_tol) for f in fast_values)
    for fast in fast_values + [0.0, -0.0, 1.0, float(hp.value)]:
        assert oracle.cross_validate(fast, hp, rel_tol) == _decision_at_80_digits(
            fast, hp, rel_tol), fast


# gamma_k_quad(1e5, 1e-320) is about e^(1e326), psi_k_hp(1e-300, 5e-324)
# about -1.4e326: both beyond the double range
@pytest.mark.parametrize("hp", [oracle.gamma_k_quad(1e5, 1e-320),
                                oracle.psi_k_hp(1e-300, 5e-324)])
def test_cross_validate_beyond_the_double_range(hp):
    top = sys.float_info.max
    for rel_tol in (1e-12, 1e-10, 0.5):
        for fast in (top, -top, 0.0, 1.0):
            assert not oracle.cross_validate(fast, hp, rel_tol)
    # |v - f| <= |v| exactly when f has v's sign or is 0, which 80 digits
    # cannot tell apart at these sizes
    sign = 1.0 if hp.value > 0 else -1.0
    assert oracle.cross_validate(sign * top, hp, 1.0)
    assert oracle.cross_validate(-0.0, hp, 1.0)
    assert not oracle.cross_validate(-sign * 5e-324, hp, 1.0)
    assert oracle.cross_validate(-sign * top, hp, 2.0)


@pytest.mark.parametrize("fast", [math.nan, math.inf, -math.inf])
def test_cross_validate_rejects_a_fast_value_that_is_not_finite(fast):
    for hp in (oracle.HPValue(mpf(0), 25), oracle.psi_hp(2.5),
               oracle.gamma_k_quad(1e5, 1e-320)):
        assert not oracle.cross_validate(fast, hp, 0.5)


AMBIENT_CASES = [
    (oracle.psi_hp, (2.5,)), (oracle.psi_hp, (1e-300,)),
    (oracle.psi_p_hp, (2.5, 10)), (oracle.psi_p_hp, (0.05, 10**12)),
    (oracle.psi_q_hp, (2.5, 0.9)), (oracle.psi_q_hp, (1e-50, 0.5)),
    (oracle.psi_k_hp, (12.525, 5.25)), (oracle.psi_k_hp, (1e5, 1e-300)),
    (oracle.gamma_hp, (2.5,)), (oracle.gamma_hp, (1e-300,)),
    (oracle.gamma_p_hp, (2.5, 10)), (oracle.gamma_p_hp, (4e15 + 0.5, 10)),
    (oracle.gamma_q_hp, (7.19, 0.9667)), (oracle.gamma_q_hp, (1e-50, 0.9)),
    (oracle.gamma_k_quad, (3.0, 5.5)), (oracle.gamma_k_quad, (1e5, 1e-320)),
]


@pytest.mark.parametrize("fn, args", AMBIENT_CASES)
def test_results_do_not_depend_on_the_ambient_precision(fn, args):
    seen = set()
    for dps in (15, 50, 100):
        with mp.workdps(dps):
            prec = mp.prec
            hp = fn(*args)
            assert mp.prec == prec
            verdicts = tuple(oracle.cross_validate(fast, hp, 1e-10)
                             for fast in (float(hp.value), 1.0))
            assert mp.prec == prec
        seen.add((hp.value._mpf_, hp.certified_digits, hp.terms_used, verdicts))
    assert len(seen) == 1


def test_certified_digits_floor():
    samples = [
        oracle.psi_hp(3.0),
        oracle.psi_p_hp(3.0, 10),
        oracle.psi_q_hp(3.0, 0.5),
        oracle.psi_k_hp(3.0, 2.0),
        oracle.gamma_hp(3.0),
        oracle.gamma_p_hp(3.0, 10),
        oracle.gamma_q_hp(3.0, 0.5),
        oracle.gamma_k_quad(3.0, 2.0),
    ]
    for hp in samples:
        assert hp.certified_digits >= 15


# The working precision of the quadrature less the margin the oracle keeps.
# The aliasing bound and the tails come to 1e-25 and the integer rounding
# to far less, so every call certifies this cap.
QUAD_DIGITS_CAP = oracle._QUAD_DPS - oracle._DPS_MARGIN


# a tiny t is lifted by 64 exact factors of up to 1,080 bits; 60 widens the precision
@pytest.mark.parametrize("t", [0.05, 0.2, 2.3, 16.05, 27.26, 60.0, 1e-6, 1e-300, 5e-324]
                         + [0.5 + 1.25 * i for i in range(48)])
def test_gamma_hp_meets_its_certified_digits(t):
    hp = oracle.gamma_hp(t)
    assert hp.certified_digits == QUAD_DIGITS_CAP
    with mp.workdps(50):
        ref = mp.gamma(mpf(t))
        assert abs(hp.value - ref) <= mpf(10) ** -hp.certified_digits * max(abs(ref), 1)


# the last eight widen the working precision by the digits of t/k, and the
# last five straddle the lift's target t/k = 64: one lift against none
QUAD_CASES = ([(t, k) for t in (0.05, 0.5, 1.0, 2.5, 7.0, 15.0, 25.0, 40.0)
               for k in (0.2, 0.5, 1.0, 2.0, 5.0, 10.0)]
              + [(60.0, 0.2), (300.0, 0.2), (500.0, 1.0)]
              + [(63.99, 1.0), (64.0, 1.0), (64.01, 1.0), (319.95, 5.0), (320.05, 5.0)])
# t/k from 1e-600 to 1e325: the working precision, and with it the width of
# the nodes' integer exponential, grows to about 1,200 bits
EXTREME_T = [1e-300, 1e-50, 1e-6, 0.3, 2.5, 40.0, 1e3, 1e5]
EXTREME_K = [1e-320, 1e-300, 1e-10, 0.2, 1.0, 7.5, 1e10, 1e300]


@pytest.mark.parametrize("t, k", QUAD_CASES + [(t, k) for t in EXTREME_T for k in EXTREME_K
                                               if (t, k) not in QUAD_CASES])
def test_gamma_k_quad_meets_its_certified_digits(t, k):
    # gamma_hp is the k = 1 case of the same routine, so this identity,
    # evaluated by mpmath with 60 digits after the point of u = t/k, is the
    # independent check of both.
    hp = oracle.gamma_k_quad(t, k)
    assert hp.certified_digits == QUAD_DIGITS_CAP
    with mp.workdps(60 + max(0, int(math.log10(t) - math.log10(k)))):
        u = mpf(t) / k
        ref = mpf(k) ** (u - 1) * mp.gamma(u)
        assert abs(hp.value - ref) <= mpf(10) ** -hp.certified_digits * max(abs(ref), 1)


# the widest W: t/k up to the largest double over the least subnormal
WIDEST_T_K = (sys.float_info.max, 5e-324)
_rng = random.Random(21)
SIZING_CASES = ([(t, k) for t in EXTREME_T for k in EXTREME_K] + [WIDEST_T_K]
                + [(_rng.uniform(0.01, 100.0), _rng.uniform(0.1, 20.0)) for _ in range(100)])


@pytest.mark.parametrize("t, k", SIZING_CASES)
def test_trapezoid_sizing_is_sound(monkeypatch, t, k):
    # The sizing hands over the step alone.  Take the best of the twelve
    # candidate angles at 60 digits after the point of u: the step must be
    # sound at that angle, no shorter than the outward rounding leaves it
    # (so the search found that angle), and covered by the aliasing bound.
    calls = []
    sizing = oracle._trapezoid_sizing

    def spy(t_num, k_num, w):
        calls.append((t_num, k_num, w, sizing(t_num, k_num, w)))
        return calls[-1][-1]

    monkeypatch.setattr(oracle, "_trapezoid_sizing", spy)
    oracle.gamma_k_quad(t, k)
    [(t_num, k_num, w, big_kh)] = calls
    assert type(big_kh) is int and big_kh > 0
    with mp.workdps(60 + max(0, int(math.log10(t_num) - math.log10(k_num)))):
        u = mpf(t_num) / k_num
        lam = mp.log(4 * mpf(oracle._INV_TAIL))
        theta0 = mp.sqrt(2 * lam / u)
        theta = max((theta0 * mpf(2) ** (mpf(-i) / 4) for i in range(12)),
                    key=lambda a: a / (lam - u * mp.log(mp.cos(a))))
        sec_u = mp.cos(theta) ** -u
        kh = 2 * mp.pi * theta / (lam + mp.log(sec_u))
        step = mp.ldexp(big_kh, -w)
        assert kh * (1 - mpf(2) ** -30) <= step <= kh
        assert oracle._ALIASING_BOUND >= 2 * sec_u / mp.expm1(2 * mp.pi * theta / step)
    # and it tries at most four candidates: the sizing takes one exp for
    # theta_0 and one for each candidate's Y
    exps = []

    def exp(x):
        exps.append(x)
        return math.exp(x)

    monkeypatch.setattr(oracle, "math", types.SimpleNamespace(**{**vars(math), "exp": exp}))
    assert sizing(t_num, k_num, w) == big_kh
    assert len(exps) - 1 <= 4


def test_bernoulli_table_is_exact():
    for j, (num, den) in enumerate(oracle._BERNOULLI, 1):
        assert (num, den) == mp.bernfrac(2 * j)
        with mp.workdps(60):
            assert abs(mpf(num) / den - mp.bernoulli(2 * j)) <= mp.eps * abs(mpf(num) / den)


# psi_k's head target never falls below 2^-(W+4), beneath the rounding its
# result carries: at these k, k T lies far below it
TINY_K = [(1e5, 1e-300), (1e300, 1e-100), (1e-300, 5e-324)]
PSI_K_HEAD_FLOOR = Fraction(1, 2 ** (oracle._SERIES_W + 4))


def _psi_k_target(k):
    """psi_k_hp's head target over T: k, or the floor over T."""
    return max(Fraction(k), PSI_K_HEAD_FLOOR / Fraction(oracle._TRUNCATION))


def _psi_sizing_cases(rng):
    """(routine, arguments, the target its closure is sized for over T)"""
    ts = [1e-300, 1e-6, 0.05, 2.5, 30.0, 1e5, 1e300] + [rng.uniform(0.01, 100.0)
                                                       for _ in range(30)]
    tks = [(2.5, 1e-30), (1e-3, 1e-20), (40.0, 1e6)] + [
        (rng.uniform(0.01, 100.0), 10 ** rng.uniform(-30, 6)) for _ in range(30)]
    tps = [(2.5, 12), (0.01, 10**300)] + [
        (rng.uniform(0.01, 40.0), int(10 ** rng.uniform(1.2, 12))) for _ in range(30)]
    return ([(oracle.psi_hp, (t,), Fraction(1)) for t in ts]
            + [(oracle.psi_k_hp, (t, k), _psi_k_target(k)) for t, k in tks]
            + [(oracle.psi_p_hp, (t, p), Fraction(1, 10)) for t, p in tps]
            + [(oracle.psi_k_hp, (t, k), _psi_k_target(k)) for t, k in TINY_K])


@pytest.mark.parametrize("fn, args, scale", _psi_sizing_cases(random.Random(24)))
def test_psi_closure_sizing_is_sound(monkeypatch, fn, args, scale):
    # The head length is sized in doubles from the last retained correction;
    # recompute at 60 digits the bound it was sized by and the remainder
    # the closure leaves, against psi(y) - psi(x).
    calls = []
    diff = oracle._psi_diff

    def spy(*a):
        calls.append((a, diff(*a)))
        return calls[-1][-1]

    monkeypatch.setattr(oracle, "_psi_diff", spy)
    fn(*args)
    [((x_num, y_num, den, n), (s, err))] = calls
    s, err = mp.make_mpf(s), mp.make_mpf(err)
    k = len(oracle._BERNOULLI)
    with mp.workdps(60):
        target = mpf(oracle._TRUNCATION) * scale.numerator / scale.denominator
        x, y = mpf(x_num) / den, mpf(y_num) / den
        a, b = n + x, n + y

        def bound(j, a, b):
            """The j-th correction, |B_2j| / 2j (a^-2j - b^-2j)."""
            return abs(mp.bernoulli(2 * j)) / (2 * j) * (a ** (-2 * j) - b ** (-2 * j))

        assert n >= 1 and a >= oracle._PSI_MIN_A
        assert bound(k, a, b) <= target
        # the least such head
        assert n == 1 or a - 1 < oracle._PSI_MIN_A or bound(k, a - 1, b - 1) > target
        # the remainder is below the first omitted correction
        exact = mp.digamma(y) - mp.digamma(x)
        assert abs(s - exact) <= bound(k + 1, a, b) + err


# the trapezoid's narrowest W, and its widest
@pytest.mark.parametrize("dps", [
    oracle._QUAD_DPS,
    oracle._QUAD_DPS + int(math.log10(WIDEST_T_K[0]) - math.log10(WIDEST_T_K[1]))])
def test_fixed_exp_matches_mpmath(dps):
    with mp.workdps(dps):
        w = mp.prec + oracle._GUARD_BITS
    exp = oracle._fixed_exp(w)
    assert exp(0) == 1 << w
    rng = random.Random(18)
    with mp.workprec(w + 64):
        # exp(E 2^-W) 2^W falls below a unit at -E 2^-W = W ln 2
        past = int(mp.ldexp((w + 2) * mp.ln2, w))
        es = ([-1, -2, -past]
              + [-rng.randrange(past) for _ in range(100)]
              + [-rng.getrandbits(rng.randrange(1, w + 8)) for _ in range(100)])
        for e in es:
            ref = mp.ldexp(mp.exp(mp.ldexp(e, -w)), w)
            assert abs(exp(e) - ref) < 1 + mpf(2) ** -19, e
    assert exp(-past) == 0


def _digits_by_log10(value, err):
    """The digit count by mpmath's rounded log10, which the exact count
    replaced."""
    cap = mp.dps - oracle._DPS_MARGIN
    if err <= 0:
        return cap
    scale = max(abs(value), mpf(1))
    return max(1, min(cap, int(-mp.log10(err / scale)) - 1))


def _fraction(x):
    """The exact value of a finite mpf."""
    return Fraction(int(x.man) * (-1 if x < 0 else 1)) * Fraction(2) ** int(x.exp)


def _digits_exact(value, err):
    """d - 1 for 10^-(d+1) < err/scale <= 10^-d, in exact rationals,
    clamped as the oracle clamps it."""
    cap = mp.dps - oracle._DPS_MARGIN
    if err <= 0:
        return cap
    ratio = _fraction(err) / max(abs(_fraction(value)), 1)
    d = 0
    while d <= cap + 1 and ratio <= Fraction(1, 10 ** (d + 1)):
        d += 1
    return max(1, min(cap, d - 1))


def _digits(value, err, dps):
    """The oracle's count for two mpfs, the cap from dps."""
    return oracle._digits_from_error(value._mpf_, err._mpf_, dps)


@pytest.mark.parametrize("dps", [oracle._QUAD_DPS, oracle._SERIES_DPS, 60])
def test_digits_from_error_matches_log10_count(dps):
    rng = random.Random(dps)
    with mp.workdps(dps):
        for _ in range(2000):
            value = rng.choice([-1, 1]) * mpf(10) ** rng.uniform(-10, 40)
            err = abs(value) * mpf(10) ** rng.uniform(-dps - 5, 2)
            assert _digits(value, err, dps) == _digits_by_log10(value, err)
        for value in (mpf(0), mpf(3), mpf(10) ** 10**30):
            assert _digits(value, mpf(0), dps) == dps - oracle._DPS_MARGIN
            assert _digits(value, -abs(value) - 1, dps) == dps - oracle._DPS_MARGIN


@pytest.mark.parametrize("dps", [oracle._QUAD_DPS, oracle._SERIES_DPS])
def test_digits_from_error_near_powers_of_ten(dps):
    # Within a few ulps of 10^-d the count is the exact one.  The rounded
    # log10 reads -d for err/scale up to about 35 ulps above 10^-d, one
    # digit more than the bound proves; the exact count is never above it.
    with mp.workdps(dps):
        cap = dps - oracle._DPS_MARGIN
        for scale in (mpf(1), mpf(10) ** 12 * 7):
            for d in range(0, cap + 4):
                ratio = mpf(10) ** -d
                ulp = mp.ldexp(1, mp.mag(ratio) - mp.prec)
                for step in range(-2, 3):
                    err = (ratio + step * ulp) * scale
                    digits = _digits(scale, err, dps)
                    assert digits == _digits_exact(scale, err)
                    assert digits <= _digits_by_log10(scale, err)
        # far outside the double range, where e + bc overflows a float
        huge = mpf(10) ** 10**30
        assert _digits(huge, huge * mpf("1e-40"), dps) == cap
        assert _digits(huge, huge * mpf(10) ** 10**20, dps) == 1
        assert _digits(mpf(1), 1 / huge, dps) == cap


@pytest.mark.parametrize("dps", [oracle._QUAD_DPS, oracle._SERIES_DPS])
@pytest.mark.parametrize("shift", [2**70, 10**30, 10**400])
def test_digits_from_error_on_tuples_beyond_the_double_range(dps, shift):
    # The count reads the tuples' integers alone.  Scaled up together by
    # 2^shift, a value of at least 1 and its error keep their ratio and so
    # their count; scaled down, the value falls below 1 and the scale to 1.
    rng = random.Random(shift)
    cap = dps - oracle._DPS_MARGIN
    with mp.workdps(dps):
        for _ in range(200):
            value = rng.choice([-1, 1]) * mpf(10) ** rng.uniform(0, 40)
            err = abs(value) * mpf(10) ** rng.uniform(-dps - 5, 2)
            sign, man, exp, bc = value._mpf_
            e_sign, e_man, e_exp, e_bc = err._mpf_
            expected = _digits(value, err, dps)
            up = oracle._digits_from_error((sign, man, exp + shift, bc),
                                           (e_sign, e_man, e_exp + shift, e_bc), dps)
            assert up == expected
            # below 1, the count is the absolute one: err against 1
            down = oracle._digits_from_error((sign, man, exp - shift, bc), err._mpf_, dps)
            assert down == _digits(mpf(1), err, dps)
        tiny, vast = (0, 1, -shift, 1), (0, 1, shift, 1)
        for value in (tiny, fone, vast):
            assert oracle._digits_from_error(value, tiny, dps) == cap
        for value in (tiny, fone):
            assert oracle._digits_from_error(value, vast, dps) == 1
        # err = value 2^-60, about 8.7e-19: 17 digits
        assert oracle._digits_from_error(vast, (0, 1, shift - 60, 1), dps) == 17


# The series and products certify at least the 24 digits of their 1e-25
# truncation target, at most the working precision less the margin.
SERIES_DIGITS = (24, oracle._SERIES_DPS - oracle._DPS_MARGIN)


def _meets_its_certified_digits(hp, reference):
    assert SERIES_DIGITS[0] <= hp.certified_digits <= SERIES_DIGITS[1]
    with mp.workdps(50):
        ref = reference()
        assert abs(hp.value - ref) <= mpf(10) ** -hp.certified_digits * max(abs(ref), 1)


EDGE_T = [0.05, 2.5, 30.0]


# the series' head is sized free of u, so a huge t takes no more terms
@pytest.mark.parametrize("t", EDGE_T + [0.5, 15.0, 1e100, 1e300])
def test_psi_hp_meets_its_certified_digits(t):
    _meets_its_certified_digits(oracle.psi_hp(t), lambda: mp.digamma(mpf(t)))


@pytest.mark.parametrize("t, k", TINY_K)
def test_psi_k_hp_at_a_tiny_k_meets_its_certified_digits(t, k):
    # k T lies far below 2^-(W+4) here (1e-325 at k = 1e-300 would take
    # about 2e32 head terms); the head is sized for the floor instead
    hp = oracle.psi_k_hp(t, k)
    assert hp.terms_used <= 64
    _meets_its_certified_digits(hp, lambda: (mp.log(mpf(k)) + mp.digamma(mpf(t) / k)) / k)


# k T = 1e-55 at k = 1e-30 lies below the head floor 2^-156: fifteen
# Bernoulli corrections reach the floor with a head of 64 terms
@pytest.mark.parametrize("k", [1e-30, 0.5, 1.0, 10.0, 1e6])
@pytest.mark.parametrize("t", EDGE_T)
def test_psi_k_hp_meets_its_certified_digits(t, k):
    # psi_k(t) = (ln k + psi(t/k)) / k
    _meets_its_certified_digits(
        oracle.psi_k_hp(t, k),
        lambda: (mp.log(mpf(k)) + mp.digamma(mpf(t) / k)) / k)


# q up to 0.97, the top of the oracle_crossval bands; t = 0.05 at q = 0.97
# gives the smallest 1 - q^t, the loops' worst denominator.
@pytest.mark.parametrize("q", [0.5, 0.9, 0.97])
@pytest.mark.parametrize("t", EDGE_T)
def test_psi_q_hp_meets_its_certified_digits(t, q):
    _meets_its_certified_digits(
        oracle.psi_q_hp(t, q),
        lambda: mp.diff(lambda x: mp.log(mp.qgamma(x, mpf(q))), mpf(t)))


@pytest.mark.parametrize("q", [0.5, 0.9, 0.97])
@pytest.mark.parametrize("t", EDGE_T + [1e-6, 1e-3])
def test_gamma_q_hp_meets_its_certified_digits(t, q):
    _meets_its_certified_digits(oracle.gamma_q_hp(t, q),
                                lambda: mp.qgamma(mpf(t), mpf(q)))


@pytest.mark.parametrize("q", [0.5, 0.9, 0.97])
@pytest.mark.parametrize("t", [1e-6, 1e-3, 0.05, 0.5, 0.999])
def test_gamma_q_hp_product_length_below_t_one(t, q):
    # At t < 1 the omitted factors j >= n differ from 1 by less than q^j,
    # since |q - q^t| < 1 - q and each denominator is at least 1 - q; so
    # n = ceil(ln(T (1-q)) / ln q) factors meet the truncation T.
    with mp.workdps(30):
        q_ = mpf(q)
        bound = int(mp.ceil(mp.log(mpf(oracle._TRUNCATION) * (1 - q_)) / mp.log(q_)))
    assert oracle.gamma_q_hp(t, q).terms_used <= bound


@pytest.mark.parametrize("t", [1e20, 1e300])
def test_gamma_q_hp_at_huge_t(t):
    # 1 - t rounds at the working precision beyond t ~ 2^67, so the power
    # of 1 - q must be formed from t itself.  Here (q^t; q)_inf is 1 to far
    # below 1e-25, so
    # Gamma_q(t) = (1-q) (1-q)^-t (q; q)_inf, with t exact.
    q = 0.5
    _meets_its_certified_digits(
        oracle.gamma_q_hp(t, q),
        lambda: (1 - mpf(q)) * (1 - mpf(q)) ** -mpf(t) * mp.qp(mpf(q)))


# Below 2^52 a large t is no integer, and p^t and (1-q)^-t are
# exponentials of t ln p and -t ln(1-q), up to 2^55 in size here: their
# logarithms need that many bits beyond the working precision.
@pytest.mark.parametrize("t", [1e12 + 0.5, 4e15 + 0.5])
def test_powers_at_a_large_fractional_t(t):
    for q in (0.5, 0.9):
        _meets_its_certified_digits(
            oracle.gamma_q_hp(t, q),
            lambda: (1 - mpf(q)) * (1 - mpf(q)) ** -mpf(t) * mp.qp(mpf(q)))
    p = 10
    _meets_its_certified_digits(
        oracle.gamma_p_hp(t, p),
        lambda: mp.factorial(p) * mpf(p) ** mpf(t) / mp.fprod(mpf(t) + n for n in range(p + 1)))


def _one_minus_q_power(t, q):
    """1 - q^t, without cancellation at tiny t."""
    return -mp.expm1(mpf(t) * mp.log(mpf(q)))


# At these t, q^t rounds to 1 in the loops' fixed point, whose j = 0
# term or factor 1 - q^t was once 0 (ZeroDivisionError).  The references
# step down from t + 1 by the functional equation.
@pytest.mark.parametrize("q", [0.5, 0.9])
@pytest.mark.parametrize("t", [1e-50, 1e-300])
def test_q_oracles_at_tiny_t(t, q):
    # psi_q(t) = psi_q(t+1) + ln q q^t / (1 - q^t)
    psi_hp = oracle.psi_q_hp(t, q)
    _meets_its_certified_digits(psi_hp, lambda: (
        mp.diff(lambda x: mp.log(mp.qgamma(x, mpf(q))), 1 + mpf(t))
        + mp.log(mpf(q)) * mpf(q) ** t / _one_minus_q_power(t, q)))
    # Gamma_q(t) = Gamma_q(t+1) (1-q) / (1 - q^t)
    gamma_hp = oracle.gamma_q_hp(t, q)
    _meets_its_certified_digits(gamma_hp, lambda: (
        mp.qgamma(1 + mpf(t), mpf(q)) * (1 - mpf(q)) / _one_minus_q_power(t, q)))
    assert oracle.cross_validate(psi_q(t, q).value, psi_hp, 1e-12)
    assert oracle.cross_validate(gamma_q(t, q).value, gamma_hp, 1e-12)


# the closure's head is the same at every p: the definition would take
# p + 1 terms
@pytest.mark.parametrize("p", [1, 1000] + [pytest.param(10**e, id=f"1e{e}")
                                            for e in (6, 12, 300)])
@pytest.mark.parametrize("t", EDGE_T)
def test_psi_p_hp_meets_its_certified_digits(t, p):
    # sum_{n=0}^{p} 1/(n+t) = psi(t+p+1) - psi(t)
    _meets_its_certified_digits(
        oracle.psi_p_hp(t, p),
        lambda: mp.log(p) + mp.digamma(mpf(t)) - mp.digamma(mpf(t) + p + 1))


@pytest.mark.parametrize("t", [0.05, 2.5, 11.7])
def test_psi_p_hp_matches_its_definition_at_the_seam(t):
    # N is the head length of the closure: p + 1 <= N sums the definition,
    # p + 1 > N closes the tail.  Both sides of the seam against the finite
    # sum itself, exact to 60 digits.
    head = oracle.psi_p_hp(t, 1000).terms_used
    for p in sorted({1, head - 1, head, head + 1, 1000} - {0}):
        hp = oracle.psi_p_hp(t, p)
        assert hp.terms_used == min(p + 1, head)
        assert hp.certified_digits == SERIES_DIGITS[1]
        with mp.workdps(60):
            ref = mp.log(p) - mp.fsum(1 / (n + mpf(t)) for n in range(p + 1))
            assert abs(hp.value - ref) <= mpf(10) ** -hp.certified_digits * max(abs(ref), 1)


@pytest.mark.parametrize("p", [1, 1000])
@pytest.mark.parametrize("t", EDGE_T)
def test_gamma_p_hp_meets_its_certified_digits(t, p):
    # Gamma_p(t) = p! p^t Gamma(t) / Gamma(t+p+1)
    _meets_its_certified_digits(
        oracle.gamma_p_hp(t, p),
        lambda: mp.exp(mp.loggamma(p + 1) + t * mp.log(p) + mp.loggamma(mpf(t))
                       - mp.loggamma(mpf(t) + p + 1)))


@pytest.mark.parametrize("t, k, nodes", [
    (2.5, 1.0, 45), (3.89, 6.43, 45), (60.0, 0.2, 40), (500.0, 1.0, 39),
    # t/k about the lift's target 64: one lift, then none
    (63.99, 1.0, 45), (64.0, 1.0, 45), (64.01, 1.0, 45),
    # seeded: t and k log-uniform on [1e-3, 100] (random.Random(11)); ten
    # of them take one node more if the stop test's cheap prefilter
    # 2 g^2 < stop (g' - g) is weakened to 3 g^2
    (0.006130141166780987, 0.0011885123112626154, 45),
    (0.3654298257724839, 0.0011942308915418596, 39),
    (2.932192055318021, 0.0016195773029195216, 38),
    (1.1372553825308238, 0.0019621247779545363, 39),
    (0.43843612515446306, 0.0019849772143683353, 40),
    (4.103663775380607, 0.002252984860503314, 38),
    (3.7226720359828596, 0.007861294114117404, 39),
    (0.008933904670119569, 0.01620746410092771, 45),
    (3.5028550504347895, 0.018379628287085288, 40),
    (0.19348593834147976, 0.02459316923363179, 45),
    (0.0029554068878188872, 0.032885641126313515, 45),
    (19.35207558394161, 0.0329587371358514, 39),
    (10.357314193932876, 0.033405864260141215, 39),
    (6.701093621216009, 0.10683844026748092, 45),
    (81.31722115530982, 0.1829728663666282, 39),
    (0.0014138812856340868, 0.20877202615815788, 45),
    (41.78812836643108, 0.21293661724720717, 40),
    (12.179850871181971, 0.24972133163059768, 45),
    (0.008381113446153093, 0.36269635846450754, 45),
    (0.18276699339767863, 0.6293060839510294, 45),
    (0.3461037981776937, 0.864816852935323, 45),
    (1.8604271454612413, 1.1962267858712075, 45),
    (0.39411283058619523, 1.590224863996411, 45),
    (0.31540295727399115, 2.052332201913323, 45),
    (15.888311559352683, 3.4597770020309255, 45),
    (1.4106315762883328, 9.223258114170537, 45),
    (0.00284022461834556, 11.174360336813242, 45),
    (0.1594614038910384, 16.298049878843692, 45),
    (81.46425758867683, 66.64827380347388, 45),
    (97.33768257725352, 95.16082714047853, 45),
])
def test_trapezoid_node_counts_frozen(t, k, nodes):
    # the node count follows from the step and the stop test alone
    assert oracle.gamma_k_quad(t, k).terms_used == nodes


# (t, q, psi_q_hp's certified_digits and terms_used, gamma_q_hp's), at
# seeded points (random.Random(26)): q = 0.001, 1 - 1e-6 and 1 - q
# log-uniform on [1e-6, 0.999]; t = 1e-300, 60 and log-uniform on
# [1e-300, 60] or [0.01, 60]; the last 14 in the window
# 1 - q^t in (2^-33, 2^-31) about the q oracles' lift at 2^-32.  The
# digits follow from the rounding bounds, so a looser or tighter bound
# that moved one would show here.
Q_ORACLE_FROZEN = [
    (1e-300, 0.001, 25, 5, 24, 4),
    (60.0, 0.999999, 24, 14590, 24, 15279),
    (0.058348555831632905, 0.9695615249678871, 25, 84, 24, 84),
    (1.9741259748684721e-119, 0.9999829837921902, 25, 3552, 24, 3660),
    (8.572092977537174, 0.9999978096220385, 24, 9890, 24, 10290),
    (3.936384730971116e-288, 0.961440202949305, 25, 74, 24, 73),
    (0.7932647889594558, 0.9874086377986844, 24, 130, 24, 130),
    (6.541472868546082e-13, 0.9935078861772453, 25, 182, 24, 182),
    (0.35139479275176166, 0.16801322769399318, 24, 11, 24, 10),
    (1.9475943814210464e-63, 0.8839904024127117, 25, 42, 24, 41),
    (0.012846330492203137, 0.323749137867012, 25, 14, 24, 14),
    (1.201597789604597e-233, 0.57639643528405, 25, 20, 24, 19),
    (1.8083655099949032, 0.9999940239812478, 24, 5991, 24, 6203),
    (5.049566794073702e-12, 0.8921575798921446, 25, 44, 24, 42),
    (13.40096070401423, 0.9998467098763373, 24, 1170, 24, 1208),
    (1.8792262729775855e-08, 0.9999984698619744, 25, 11843, 24, 12330),
    (1.1309845859353278, 0.9999423722569051, 24, 1929, 24, 1978),
    (1.683676900555263e-287, 0.9999944285809812, 25, 6207, 24, 6427),
    (1.8513373869874412, 0.9999988879211227, 24, 13890, 24, 14482),
    (1.7161808164467726e-54, 0.9976746104801016, 25, 304, 24, 306),
    (0.3979878512062415, 0.8722181896316568, 24, 40, 24, 39),
    (3.7705818429649575e-240, 0.8787489394394629, 25, 41, 24, 40),
    (0.08842825705257512, 0.807267723750139, 25, 32, 24, 32),
    (9.458968156645891e-185, 0.5653846898087275, 25, 20, 24, 18),
    (0.9084303183288928, 0.9996300084998654, 24, 761, 24, 774),
    (3.984993654521768e-278, 0.999997743291932, 25, 9752, 24, 10136),
    (1.6832296512053625e-07, 0.9981405305798559, 25, 340, 24, 343),
    (0.00011026181452130398, 0.9999981444478377, 25, 10755, 24, 11188),
    (2.0731387506119485e-06, 0.9998341758972987, 25, 1138, 24, 1162),
    (6.338479454342595e-11, 0.12463047711776853, 25, 10, 24, 9),
    (7.352706051046439e-08, 0.9981723564290927, 25, 343, 24, 346),
    (8.317794489648655e-09, 0.9496382782877225, 25, 65, 24, 65),
    (1.4921092278771117e-08, 0.9826801544542032, 25, 111, 24, 111),
    (7.60045181346722e-05, 0.999998249643777, 25, 11073, 24, 11522),
    (4.756274637669438e-06, 0.9999725875860488, 25, 2799, 24, 2878),
    (6.932946017492066e-05, 0.9999936517318457, 25, 5815, 24, 6018),
    (3.3464132487023335e-06, 0.9998777109679822, 25, 1325, 24, 1355),
    (9.121668337954609e-09, 0.9632988628236816, 25, 76, 24, 76),
    (8.597244698040589e-10, 0.7002515561761276, 25, 25, 24, 24),
    (1.8324211014580036e-06, 0.9998781772505607, 25, 1328, 24, 1356),
]


@pytest.mark.parametrize("t, q, psi_digits, psi_terms, gamma_digits, gamma_terms",
                         Q_ORACLE_FROZEN)
def test_q_oracle_digits_and_terms_frozen(t, q, psi_digits, psi_terms, gamma_digits,
                                          gamma_terms):
    psi, gamma = oracle.psi_q_hp(t, q), oracle.gamma_q_hp(t, q)
    assert (psi.certified_digits, psi.terms_used) == (psi_digits, psi_terms)
    assert (gamma.certified_digits, gamma.terms_used) == (gamma_digits, gamma_terms)


@pytest.mark.parametrize("fn, args, terms", [
    (oracle.psi_hp, (2.5,), 11), (oracle.psi_hp, (1e-300,), 7), (oracle.psi_hp, (1e300,), 11),
    (oracle.psi_k_hp, (12.525, 5.25), 11), (oracle.psi_k_hp, (2.5, 1e-30), 64),
    (oracle.psi_p_hp, (2.5, 10), 11), (oracle.psi_p_hp, (2.5, 900), 11),
    (oracle.psi_p_hp, (15.025, 900), 1), (oracle.psi_p_hp, (0.05, 10**12), 13),
])
def test_psi_head_lengths_frozen(fn, args, terms):
    # the head length follows from the last Bernoulli correction's bound
    # alone (psi_p_hp(2.5, 10) is the definition's eleven terms)
    assert fn(*args).terms_used == terms


def test_trapezoid_node_budget_raises(monkeypatch):
    monkeypatch.setattr(oracle, "_QUAD_MAX_NODES", 5)
    with pytest.raises(oracle.ConvergenceError):
        oracle.gamma_k_quad(2.5, 2.0)
    with pytest.raises(oracle.ConvergenceError):
        oracle.gamma_hp(2.5)


@pytest.mark.parametrize("fn, args, frozen", [
    (oracle.gamma_q_hp, (7.19, 0.9667), "788.60624423327024809666007548341038"),
    (oracle.gamma_q_hp, (2.5, 0.999), "1.3290910909710058140437494339155734"),
    (oracle.psi_q_hp, (3.14, 0.9429), "0.92925280304561877805705026156703053"),
])
def test_q_oracle_truncation_frozen(fn, args, frozen):
    # 35-digit values of the products and sums taken term by term to the
    # truncation; the Lambert-series tails must reproduce them.
    with mp.workdps(40):
        ref = mpf(frozen)
        assert abs(fn(*args).value - ref) <= mpf("1e-25") * max(abs(ref), 1)


def test_oracle_imports_nothing_that_evaluates():
    # The oracle must never share evaluation code with the fast paths: the
    # only names it takes from the package are the argument checks.
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level
                                                 or "gammagen" in (node.module or "")):
            taken |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any("gammagen" in alias.name for alias in node.names)
    assert taken == {("core_special", name)
                     for name in ("_check_p", "_check_q", "_require_positive")}


def test_p_family_cross_validates_at_large_p():
    p = 10**6
    for t in (0.5, 2.5, 11.7):
        for big_p in (p, 10**12, 10**300):
            assert oracle.cross_validate(psi_p(t, big_p), oracle.psi_p_hp(t, big_p), 1e-12)
        assert oracle.cross_validate(gamma_p(t, p), oracle.gamma_p_hp(t, p), 1e-12)


NEAR_ONE = [1 - 1e-5, 1 - 1e-6]


@pytest.mark.parametrize("t, q", [(0.3, 0.99), (2.5, 0.99), (17.9, 0.99), (2.5, 0.999),
                                  (2.5, 0.9999)]
                         + [(t, q) for q in NEAR_ONE for t in (0.25, 2.5)])
def test_q_family_cross_validates_near_q_one(t, q):
    # The oracles take about 2 sqrt(ln(1/T) / (1-q)) terms: some 1,500 at
    # q = 0.9999 and 15,000 (10-30 ms) at q = 1 - 1e-6.
    assert oracle.cross_validate(psi_q(t, q).value, oracle.psi_q_hp(t, q), 1e-12)
    assert oracle.cross_validate(gamma_q(t, q).value, oracle.gamma_q_hp(t, q), 1e-12)


def _certified_error(hp):
    return mpf(10) ** -hp.certified_digits * max(abs(hp.value), 1)


@pytest.mark.parametrize("q", NEAR_ONE)
@pytest.mark.parametrize("t", [0.25, 2.5])
def test_q_oracles_meet_their_functional_equations_near_q_one(t, q):
    # No mpmath qgamma here: two oracle calls, at t and at t + 1 (exact at
    # these t), checked against each other to their certified digits.
    with mp.workdps(50):
        q_, qt = mpf(q), mpf(q) ** t
        g0, g1 = oracle.gamma_q_hp(t, q), oracle.gamma_q_hp(t + 1, q)
        # Gamma_q(t+1) = (1 - q^t) / (1 - q) Gamma_q(t)
        factor = (1 - qt) / (1 - q_)
        assert (abs(g1.value - factor * g0.value)
                <= _certified_error(g1) + factor * _certified_error(g0))
        p0, p1 = oracle.psi_q_hp(t, q), oracle.psi_q_hp(t + 1, q)
        # psi_q(t+1) = psi_q(t) - ln q q^t / (1 - q^t)
        step = mp.log(q_) * qt / (1 - qt)
        assert (abs(p1.value - (p0.value - step))
                <= _certified_error(p1) + _certified_error(p0))


def test_q_oracle_cost_grows_like_the_root_of_one_over_one_minus_q():
    # Either definition summed term by term to the truncation takes over
    # 500,000 terms here; head and Lambert-series tail take about 1,500.
    assert oracle.psi_q_hp(2.5, 0.9999).terms_used < 2000
    assert oracle.gamma_q_hp(2.5, 0.9999).terms_used < 2000


@pytest.mark.parametrize("t, q", [(5.0, 0.02), (30.0, 0.02), (0.3, 1e-30), (2.5, 1e-30)])
def test_q_oracles_where_the_tail_carries_the_value(t, q):
    # The heads are empty or nearly so: psi_q sums no term one by one at
    # q = 0.02 (q^t is already below the split point; Gamma_q takes three
    # factors there), and at q = 1e-30 either routine takes at most one, so
    # the Lambert series carries the value.
    _meets_its_certified_digits(
        oracle.psi_q_hp(t, q),
        lambda: mp.diff(lambda x: mp.log(mp.qgamma(x, mpf(q))), mpf(t)))
    _meets_its_certified_digits(oracle.gamma_q_hp(t, q),
                                lambda: mp.qgamma(mpf(t), mpf(q)))


ROUTINES_OF_T = [
    oracle.psi_hp, oracle.gamma_hp,
    lambda t: oracle.psi_p_hp(t, 3), lambda t: oracle.psi_q_hp(t, 0.5),
    lambda t: oracle.psi_k_hp(t, 2.0), lambda t: oracle.gamma_p_hp(t, 3),
    lambda t: oracle.gamma_q_hp(t, 0.5), lambda t: oracle.gamma_k_quad(t, 2.0),
]


@pytest.mark.parametrize("fn", ROUTINES_OF_T)
def test_oracle_domain_errors(fn):
    with pytest.raises(DomainError):
        fn(0.0)


@pytest.mark.parametrize("fn", ROUTINES_OF_T + [
    lambda k: oracle.psi_k_hp(2.0, k), lambda k: oracle.gamma_k_quad(2.0, k)])
def test_oracle_rejects_infinity(fn):
    with pytest.raises(DomainError, match=r"must be finite \(got inf\)"):
        fn(math.inf)


@pytest.mark.parametrize("p", [2.5, 0.5, math.inf, math.nan])
@pytest.mark.parametrize("fn", [oracle.psi_p_hp, oracle.gamma_p_hp])
def test_oracle_p_must_be_an_integer(fn, p):
    # 2.5 was once taken as p = 2, where the fast path rejects it
    with pytest.raises(DomainError, match="p must be an integer >= 1"):
        fn(2.0, p)


def test_every_fast_path_cross_validates():
    """200 random admissible points per fast-path operation at 1e-10."""
    rng = np.random.default_rng(7)
    n = 200

    for _ in range(n):
        t = float(rng.uniform(0.05, 40.0))
        assert oracle.cross_validate(gamma(t), oracle.gamma_hp(t), 1e-10)

    for _ in range(n):
        t = float(rng.uniform(0.01, 60.0))
        assert oracle.cross_validate(psi(t), oracle.psi_hp(t), 1e-10)

    for _ in range(n):
        t = float(rng.uniform(0.05, 30.0))
        p = int(rng.integers(1, 800))
        assert oracle.cross_validate(psi_p(t, p), oracle.psi_p_hp(t, p), 1e-10)
        assert oracle.cross_validate(gamma_p(t, p), oracle.gamma_p_hp(t, p), 1e-10)

    for _ in range(n):
        t = float(rng.uniform(0.05, 30.0))
        q = float(rng.uniform(0.02, 0.97))
        assert oracle.cross_validate(psi_q(t, q).value, oracle.psi_q_hp(t, q), 1e-10)
        assert oracle.cross_validate(gamma_q(t, q).value, oracle.gamma_q_hp(t, q), 1e-10)

    for _ in range(n):
        t = float(rng.uniform(0.05, 25.0))
        k = float(rng.uniform(0.5, 10.0))
        assert oracle.cross_validate(psi_k(t, k).value, oracle.psi_k_hp(t, k), 1e-10)
        assert oracle.cross_validate(gamma_k(t, k), oracle.gamma_k_quad(t, k), 1e-10)
