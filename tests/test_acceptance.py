"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the full suite targets well under a minute on desk hardware.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from gammagen import oracle
from gammagen.core_special import gamma, psi
from gammagen.gen_gamma import gamma_k, gamma_p, gamma_q, psi_k, psi_p, psi_q
from gammagen.inequality_engine import (
    GenParams,
    check_sandwich_k,
    check_sandwich_p,
    check_sandwich_q,
    family_callables,
    lemma_expr_k,
    lemma_expr_p,
    lemma_expr_q,
    log_deriv_omega,
    log_deriv_phi,
    log_deriv_theta,
    log_omega,
    log_phi,
    log_theta,
    scan_monotone,
)
from gammagen.selftest import classical_bounds_k, classical_bounds_p, classical_bounds_q

GRID_19 = [0.05 * i for i in range(1, 20)]


def _announce(num, label):
    print(f"ACCEPTANCE {num} ({label}): PASS")


def test_criterion_1_series_correctness():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(200):
        t = float(rng.uniform(0.01, 60.0))
        assert oracle.cross_validate(psi(t), oracle.psi_hp(t), 1e-10)
    for _ in range(200):
        t = float(rng.uniform(0.05, 30.0))
        p = int(rng.integers(1, 800))
        assert oracle.cross_validate(psi_p(t, p), oracle.psi_p_hp(t, p), 1e-10)
    for _ in range(200):
        t = float(rng.uniform(0.05, 30.0))
        q = float(rng.uniform(0.02, 0.97))
        assert oracle.cross_validate(psi_q(t, q).value, oracle.psi_q_hp(t, q), 1e-10)
    for _ in range(200):
        t = float(rng.uniform(0.05, 25.0))
        k = float(rng.uniform(0.5, 10.0))
        assert oracle.cross_validate(psi_k(t, k).value, oracle.psi_k_hp(t, k), 1e-10)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"series cross-validation took {elapsed:.2f}s"
    _announce(1, "series correctness")


def test_criterion_2_k_gamma_identity():
    rng = np.random.default_rng(102)
    for _ in range(50):
        t = float(rng.uniform(0.05, 20.0))
        k = float(rng.uniform(1.0, 10.0))
        assert oracle.cross_validate(gamma_k(t, k), oracle.gamma_k_quad(t, k), 1e-12)
    _announce(2, "k-Gamma identity vs quadrature")


def test_criterion_3_functional_equations():
    rng = np.random.default_rng(103)
    for _ in range(500):
        t = float(rng.uniform(0.1, 25.0))
        p = int(rng.integers(1, 500))
        assert math.isclose(gamma_p(t + 1.0, p), p * t / (t + p + 1.0) * gamma_p(t, p),
                            rel_tol=1e-10)
    for _ in range(500):
        t = float(rng.uniform(0.1, 25.0))
        q = float(rng.uniform(0.05, 0.95))
        assert math.isclose(gamma_q(t + 1.0, q).value,
                            (1.0 - q**t) / (1.0 - q) * gamma_q(t, q).value,
                            rel_tol=1e-10)
    for _ in range(500):
        t = float(rng.uniform(0.1, 25.0))
        k = float(rng.uniform(0.2, 10.0))
        assert math.isclose(gamma_k(t + k, k), t * gamma_k(t, k), rel_tol=1e-10)
    _announce(3, "functional equations")


def test_criterion_4_lemma_positivity():
    rng = np.random.default_rng(104)
    n = 10_000

    for _ in range(n):
        a = float(rng.uniform(0.1, 5.0))
        b = float(rng.uniform(0.1, 5.0))
        t = float(1.0 + rng.uniform(1e-4, 49.0))
        p = int(rng.integers(1, 1000))
        assert lemma_expr_p(a, b, t, p) > 0.0

    for _ in range(n):
        a = float(rng.uniform(0.1, 5.0))
        b = float(rng.uniform(0.1, 5.0))
        t = float(1.0 + rng.uniform(1e-4, 49.0))
        q = float(rng.uniform(0.01, 0.99))
        assert lemma_expr_q(a, b, t, q) > 0.0

    for i in range(n):
        b = float(rng.uniform(0.1, 5.0))
        a = b if i % 20 == 0 else b + float(rng.uniform(0.0, 5.0))
        k = 1.0 if i % 17 == 0 else float(rng.uniform(1.0, 10.0))
        t = float(rng.uniform(1e-3, 50.0))
        assert lemma_expr_k(a, b, t, k) >= -1e-12

    _announce(4, "lemma positivity")


def _random_pq_params(rng):
    return GenParams(a=float(rng.uniform(0.3, 2.5)),
                     b=float(rng.uniform(0.3, 2.5)),
                     alpha=float(rng.uniform(1.05, 2.5)),
                     beta=float(rng.uniform(0.2, 1.5)))


def _random_k_params(rng):
    b = float(rng.uniform(0.3, 2.0))
    return GenParams(a=b + float(rng.uniform(0.0, 2.0)), b=b,
                     alpha=float(rng.uniform(0.3, 2.5)),
                     beta=float(rng.uniform(0.2, 1.5)))


def test_criterion_5_derivative_coherence():
    rng = np.random.default_rng(105)
    h = 1e-5
    for _ in range(100):
        gp = _random_pq_params(rng)
        p = int(rng.integers(1, 50))
        t = float(rng.uniform(0.1, 2.0))
        fd = (log_omega(t + h, gp, p) - log_omega(t - h, gp, p)) / (2 * h)
        assert abs(fd - log_deriv_omega(t, gp, p)) < 1e-6
    for _ in range(100):
        gp = _random_pq_params(rng)
        q = float(rng.uniform(0.1, 0.9))
        t = float(rng.uniform(0.1, 2.0))
        fd = (log_phi(t + h, gp, q) - log_phi(t - h, gp, q)) / (2 * h)
        assert abs(fd - log_deriv_phi(t, gp, q)) < 1e-6
    for _ in range(100):
        gp = _random_k_params(rng)
        k = float(rng.uniform(1.0, 5.0))
        t = float(rng.uniform(0.1, 2.0))
        fd = (log_theta(t + h, gp, k) - log_theta(t - h, gp, k)) / (2 * h)
        assert abs(fd - log_deriv_theta(t, gp, k)) < 1e-6
    _announce(5, "derivative coherence")


def test_criterion_6_monotonicity():
    rng = np.random.default_rng(106)
    grid = [0.01 + i * (4.99 / 499) for i in range(500)]

    for _ in range(20):
        gp = _random_pq_params(rng)
        fn, ld = family_callables("p", gp, int(rng.integers(1, 50)))
        scan = scan_monotone(fn, ld, grid)
        assert scan.min_forward_diff > 0.0
        assert scan.derivative_min > 0.0

    for _ in range(20):
        gp = _random_pq_params(rng)
        fn, ld = family_callables("q", gp, float(rng.uniform(0.1, 0.9)))
        scan = scan_monotone(fn, ld, grid)
        assert scan.min_forward_diff > 0.0
        assert scan.derivative_min > 0.0

    for _ in range(20):
        gp = _random_k_params(rng)
        fn, ld = family_callables("k", gp, float(rng.uniform(1.0, 6.0)))
        scan = scan_monotone(fn, ld, grid)
        assert scan.min_forward_diff >= -1e-12
        assert scan.derivative_min >= -1e-12

    _announce(6, "monotonicity scans")


def test_criterion_7_sandwich_inequalities():
    rng = np.random.default_rng(107)

    for _ in range(20):
        gp = _random_pq_params(rng)
        rows = check_sandwich_p(gp, int(rng.integers(1, 50)), GRID_19)
        assert all(r.passed and r.strict for r in rows)
        assert all(r.lower_margin > 0.0 and r.upper_margin > 0.0 for r in rows)

    for _ in range(20):
        gp = _random_pq_params(rng)
        rows = check_sandwich_q(gp, float(rng.uniform(0.1, 0.9)), GRID_19)
        assert all(r.passed and r.strict for r in rows)
        assert all(r.lower_margin > 0.0 and r.upper_margin > 0.0 for r in rows)

    for _ in range(20):
        gp = _random_k_params(rng)
        rows = check_sandwich_k(gp, float(rng.uniform(1.0, 6.0)), GRID_19)
        assert all(r.passed and not r.strict for r in rows)
        assert all(r.lower_margin >= -1e-12 and r.upper_margin >= -1e-12
                   for r in rows)

    rows = check_sandwich_k(GenParams(1.0, 1.0, 1.7, 0.8), 1.0, GRID_19)
    assert all(abs(r.lower_margin) <= 1e-12 and abs(r.upper_margin) <= 1e-12
               for r in rows)
    assert all(r.passed for r in rows)

    _announce(7, "sandwich inequalities")


def test_criterion_8_reduction_regressions():
    rng = np.random.default_rng(108)

    def close(x, y):
        return math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12)

    for _ in range(10):
        alpha = float(rng.uniform(1.0, 3.0))
        p = int(rng.integers(1, 60))
        t = float(rng.uniform(0.05, 0.95))
        rep = check_sandwich_p(GenParams(1.0, 1.0, alpha, 1.0), p, [t])[0]
        lo, mi, up = classical_bounds_p(alpha, p, t)
        assert close(rep.lower, lo) and close(rep.middle, mi) and close(rep.upper, up)

    for _ in range(10):
        alpha = float(rng.uniform(1.0, 3.0))
        q = float(rng.uniform(0.05, 0.95))
        t = float(rng.uniform(0.05, 0.95))
        rep = check_sandwich_q(GenParams(1.0, 1.0, alpha, 1.0), q, [t])[0]
        lo, mi, up = classical_bounds_q(alpha, q, t)
        assert close(rep.lower, lo) and close(rep.middle, mi) and close(rep.upper, up)

    for _ in range(10):
        alpha = float(rng.uniform(0.2, 3.0))
        k = float(rng.uniform(1.0, 8.0))
        t = float(rng.uniform(0.05, 0.95))
        rep = check_sandwich_k(GenParams(1.0, 1.0, alpha, 1.0), k, [t])[0]
        lo, mi, up = classical_bounds_k(alpha, k, t)
        assert close(rep.lower, lo) and close(rep.middle, mi) and close(rep.upper, up)

    _announce(8, "reduction regressions")


def test_criterion_9_convergence_sanity():
    g = gamma(2.5)
    p_errs = [abs(gamma_p(2.5, p) - g) for p in (10, 100, 1000)]
    assert p_errs[0] > p_errs[1] > p_errs[2]
    q_errs = [abs(gamma_q(2.5, q).value - g) for q in (0.5, 0.9, 0.99)]
    assert q_errs[0] > q_errs[1] > q_errs[2]
    _announce(9, "convergence sanity")


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "gammagen", *args],
                          capture_output=True, text=True, env=dict(os.environ))


def test_criterion_10_cli_contract(tmp_path):
    r = _run_cli("selftest")
    assert r.returncode == 0, r.stdout + r.stderr

    args = ("verify", "--family", "p", "--a", "1", "--b", "1", "--alpha", "1.5",
            "--beta", "1", "--p", "5", "--grid", "0.05:0.95:0.05",
            "--format", "json")
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert _run_cli(*args, "--out", str(out1)).returncode == 0
    assert _run_cli(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["summary"]["all_pass"] is True

    bad_q = _run_cli("eval", "gamma_q", "--t", "1", "--q", "1.5")
    assert bad_q.returncode == 2 and "(0, 1)" in bad_q.stderr
    bad_k = _run_cli("verify", "--family", "k", "--a", "1", "--b", "2",
                     "--alpha", "1", "--beta", "1", "--k", "2", "--grid", "0.5")
    assert bad_k.returncode == 2 and "a >= b" in bad_k.stderr
    bad_t = _run_cli("eval", "psi", "--t", "-3")
    assert bad_t.returncode == 2 and "t must be > 0" in bad_t.stderr

    _announce(10, "CLI contract")
