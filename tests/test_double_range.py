"""Every evaluator across the whole double range.

Arguments are drawn log-uniformly: t on [1e-300, 1e308], k on
[1e-300, 1e300], p on [1, 1e15] plus a few p beyond 2^1024, and 1 - q on
[1e-16, 1).  Each result must be one of two things:

- a finite value within err_bound + C u M of the reference, where M is the
  summed magnitude of the terms the evaluator combines.  The allowance is
  scaled by the terms, not by the result: psi_p at t >> p cancels ln t
  against ln(t/p), and ln Gamma_p there cancels t ln t;
- an OverflowError, only where |reference| + that allowance reaches 2^1024.

The mpmath references of the classical and p-families carry 40 digits
beyond those of t and of p, since a cancellation such as
ln Gamma(t) - ln Gamma(t+2) at t = 5.9e64 leaves nothing at a fixed 40.
The k-family's cancel nothing of size t, only ln k against psi(t/k), and
carry 40 digits beyond those of 1/k.  The q-family's references are the
package oracle's, down to 1 - q = 1e-6; closer to 1 only the outcome is
checked, a finite value or an OverflowError that names what overflowed.
t is drawn once in each of DRAWS equal slices of its log range, so the
ends of the double range are always drawn.
"""

import math
import random

import pytest
from mpmath import mp, mpf

from gammagen import oracle
from gammagen.core_special import EvalResult, log_gamma, psi_series
from gammagen.gen_gamma import (
    log_gamma_k,
    log_gamma_p,
    log_gamma_q,
    psi_k,
    psi_p,
    psi_q,
)

U = 2.0**-53
C = 8  # fixed: never widened to make a draw pass
SEED = 20261019
DRAWS = 300
Q_REFERENCE_FROM = 1e-6  # the smallest 1 - q the oracle references here


def _draw_t(rng, i):
    return 10.0 ** (-300.0 + 608.0 * (i + rng.random()) / DRAWS)


def _draw_p(rng):
    if rng.random() < 0.03:  # a few p beyond the double range
        return int(mpf(10) ** rng.uniform(309.0, 400.0))
    return int(10.0 ** rng.uniform(0.0, 15.0))


def _draw_k(rng):
    return 10.0 ** rng.uniform(-300.0, 300.0)


def _draw_q(rng):
    return 1.0 - 10.0 ** rng.uniform(-16.0, 0.0)


def _lgamma_terms(x):
    """(x - 1/2) ln x, x and the constant of Stirling's ln Gamma(x)."""
    return abs(x * mp.log(x)) + abs(mp.log(x)) + x + 1


def _psi_terms(t, n, k=1):
    """ln(y)/k, 1/(2y), the asymptotic series over k and the n shift terms
    1/(t + jk) of (ln k + psi(t/k))/k, y = t + nk."""
    t = mpf(t)
    y = t + n * k
    return (abs(mp.log(y)) / k + 1 / (2 * y) + k / (12 * y * y)
            + mp.fsum(1 / (t + j * k) for j in range(n)))


def _psi_shift(t):
    """The shift psi(t) takes at the default tolerance: up to x = t + n >= 10."""
    return max(0, math.ceil(10 - t))


def _terms_used(r):
    """The shift terms a psi routine summed, or 0 where it raised."""
    return 0 if r is None else r.terms_used


# Each reference takes the arguments and the fast result (None where it
# raised) and returns the reference, the magnitude of the terms and,
# for the oracle's references, their error bound.
def _ref_log_gamma(t, r):
    t = mpf(t)
    return mp.loggamma(t), _lgamma_terms(t)


def _ref_psi(t, r):
    return mp.digamma(mpf(t)), _psi_terms(t, _terms_used(r))


def _ref_psi_p(t, p, r):
    t = mpf(t)
    ref = mp.log(p) + mp.digamma(t) - mp.digamma(t + p + 1)
    if p < 10:
        return ref, mp.log(p) + mp.fsum(1 / (t + n) for n in range(p + 1))
    return ref, _psi_terms(t, _psi_shift(t)) + mp.log1p((t + 1) / p) + 1


def _ref_log_gamma_p(t, p, r):
    t = mpf(t)
    ref = mp.loggamma(p + 1) + t * mp.log(p) + mp.loggamma(t) - mp.loggamma(t + p + 1)
    if p < 10:
        return ref, (mp.loggamma(p + 1) + t * mp.log(p)
                     + mp.fsum(abs(mp.log(t + j)) for j in range(p + 1)))
    return ref, (_lgamma_terms(t) + (p + mpf(1) / 2) * mp.log1p(mpf(1) / p)
                 + (p + t + mpf(1) / 2) * mp.log1p((t + 1) / p) + t + 1)


def _ref_log_gamma_k(t, k, r):
    t = mpf(t)
    u = t / k
    ref = (u - 1) * mp.log(k) + mp.loggamma(u)
    # the terms of its three branches: (u - 1) ln k + ln Gamma(u), Stirling's
    # u (ln t - 1) - (ln t + ln k)/2 and, at a tiny u, u ln k - ln t
    return ref, (abs((u - 1) * mp.log(k)) + _lgamma_terms(u) + u * abs(mp.log(t))
                 + abs(mp.log(t)) + abs(mp.log(k)))


def _ref_psi_k(t, k, r):
    return (mp.log(k) + mp.digamma(mpf(t) / k)) / k, _psi_terms(t, _terms_used(r), k)


def _hp_error(hp):
    return mpf(10) ** -hp.certified_digits * max(abs(hp.value), 1)


def _ref_log_gamma_q(t, q, r):
    hp = oracle.gamma_q_hp(t, q)
    ref = mp.log(hp.value)
    # the prefactor (1 - t) ln(1 - q) and the log of the product
    prefactor = (1 - t) * mp.log1p(-mpf(q))
    return ref, abs(prefactor) + abs(ref - prefactor), mpf(10) ** -hp.certified_digits


def _ref_psi_q(t, q, r):
    hp = oracle.psi_q_hp(t, q)
    # -ln(1 - q) and ln q times the sum
    head = -mp.log1p(-mpf(q))
    return hp.value, abs(head) + abs(hp.value - head), _hp_error(hp)


def _digits_of_t(t, *x):
    return max(0.0, math.log10(t))


def _digits_of_t_and_p(t, p):
    return max(0.0, math.log10(t)) + math.log10(p)


def _digits_of_one_over_k(t, k):
    return max(0.0, -math.log10(k))


# name -> (evaluator, draw of its parameter or None, reference, the digits
# its reference carries beyond 40)
EVALUATORS = {
    "log_gamma": (log_gamma, None, _ref_log_gamma, _digits_of_t),
    "psi_series": (psi_series, None, _ref_psi, _digits_of_t),
    "log_gamma_p": (log_gamma_p, _draw_p, _ref_log_gamma_p, _digits_of_t_and_p),
    "psi_p": (psi_p, _draw_p, _ref_psi_p, _digits_of_t_and_p),
    "log_gamma_k": (log_gamma_k, _draw_k, _ref_log_gamma_k, _digits_of_one_over_k),
    "psi_k": (psi_k, _draw_k, _ref_psi_k, _digits_of_one_over_k),
    "log_gamma_q": (log_gamma_q, _draw_q, _ref_log_gamma_q, lambda t, q: 0.0),
    "psi_q": (psi_q, _draw_q, _ref_psi_q, lambda t, q: 0.0),
}




@pytest.mark.parametrize("name", EVALUATORS)
def test_every_evaluator_across_the_double_range(name):
    fn, draw_param, reference, extra_digits = EVALUATORS[name]
    rng = random.Random(f"{SEED}-{name}")
    failures = []
    for i in range(DRAWS):
        t = _draw_t(rng, i)
        args = (t,) if draw_param is None else (t, draw_param(rng))
        try:
            result = fn(*args)
        except OverflowError as exc:
            result = exc
        if draw_param is _draw_q and 1 - args[1] < Q_REFERENCE_FROM:
            # no reference here: the outcome alone
            if isinstance(result, OverflowError):
                ok = "exceeds the double range" in str(result)
            else:
                ok = math.isfinite(result.value) and math.isfinite(result.err_bound)
            if not ok:
                failures.append((args, result))
            continue
        with mp.workdps(40 + int(extra_digits(*args))):
            ref, terms, *ref_err = reference(
                *args, None if isinstance(result, OverflowError) else result)
            allowance = C * U * terms + sum(ref_err)
            if isinstance(result, OverflowError):
                ok = abs(ref) + allowance >= mpf(2) ** 1024
            else:
                value, err_bound = ((result.value, result.err_bound)
                                    if isinstance(result, EvalResult) else (result, 0.0))
                ok = math.isfinite(value) and abs(value - ref) <= err_bound + allowance
            if not ok:
                failures.append((args, result, mp.nstr(ref, 17)))
    assert not failures, failures[:5]
