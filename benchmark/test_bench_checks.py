"""The benchmark's own tests: every checker accepts gammagen's genuine output
and rejects a tampered copy; the q-family reference agrees with mpmath's
qgamma; the tracer restores what it wraps; BENCHMARK.json lists exactly
the metrics the benchmark prints.

Run with ``PYTHONPATH=src python -m pytest benchmark``.
"""

import contextlib
import dataclasses
import io
import json
import os
import random

import pytest
from mpmath import mp, mpf

import gammagen
import gammagen.cli
import gammagen.oracle

import bench_checks as chk
import bench_reference as ref
import bench_trace
import bench_workloads as bw

GP_PQ = (1.3, 0.8, 1.6, 0.7)
GP_K = (2.1, 1.2, 0.9, 1.1)


def _cli_report(tmp_path, *args):
    out = tmp_path / "report"
    with contextlib.redirect_stdout(io.StringIO()):
        code = gammagen.cli.main([*args, "--out", str(out)])
    return code, out.read_text()


def _verify_args(family, gp, x, grid, fmt):
    a, b, alpha, beta = gp
    return ["verify", "--family", family, "--a", repr(a), "--b", repr(b),
            "--alpha", repr(alpha), "--beta", repr(beta), f"--{family}", repr(x),
            "--grid", grid, "--format", fmt]


# ---------------------------------------------------------------------------
# sandwich rows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,gp,x", [("p", GP_PQ, 40), ("q", GP_PQ, 0.8),
                                         ("k", GP_K, 3.5)])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_genuine_verify_report_passes(tmp_path, family, gp, x, fmt):
    code, text = _cli_report(tmp_path, *_verify_args(family, gp, x, "0.1:0.9:0.2", fmt))
    assert code == 0
    rows = chk.parse_verify_output(text, fmt)
    assert chk.check_sandwich_rows(family, gp, x, bw.grid_points("0.1:0.9:0.2"), rows) == []


def test_perturbed_sandwich_row_is_rejected(tmp_path):
    grid = bw.grid_points("0.1:0.9:0.2")
    _, text = _cli_report(tmp_path, *_verify_args("p", GP_PQ, 40, "0.1:0.9:0.2", "csv"))
    lines = text.splitlines()
    cells = lines[3].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-9))          # middle of one row
    tampered = "\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n"
    problems = chk.check_sandwich_rows("p", GP_PQ, 40, grid,
                                       chk.parse_verify_output(tampered, "csv"))
    assert len(problems) >= 1 and "middle" in problems[0]


def test_failed_verdict_is_rejected(tmp_path):
    grid = bw.grid_points("0.5")
    _, text = _cli_report(tmp_path, *_verify_args("q", GP_PQ, 0.8, "0.5", "json"))
    obj = json.loads(text)
    obj["rows"][0]["pass"] = False
    obj["summary"]["passed"] = 0
    rows = chk.parse_verify_output(json.dumps(obj), "json")
    assert any("verdict" in p for p in chk.check_sandwich_rows("q", GP_PQ, 0.8, grid, rows))


# ---------------------------------------------------------------------------
# scans and lemma values
# ---------------------------------------------------------------------------

def _scan(tmp_path, family, gp, x, grid, fmt):
    a, b, alpha, beta = gp
    code, text = _cli_report(
        tmp_path, "scan", "--family", family, "--a", repr(a), "--b", repr(b),
        "--alpha", repr(alpha), "--beta", repr(beta), f"--{family}", repr(x),
        "--grid", grid, "--format", fmt)
    assert code == 0
    return chk.parse_scan_output(text, fmt)


def test_scan_checks_have_teeth(tmp_path):
    grid_spec = "0.25:2:0.25"
    grid = bw.grid_points(grid_spec)
    scan = _scan(tmp_path, "q", GP_PQ, 0.7, grid_spec, "json")
    assert chk.check_scan("q", GP_PQ, 0.7, grid, scan) == []
    g, values, fwd, deriv = scan
    bumped = list(values)
    bumped[3] *= 1 + 1e-9
    assert chk.check_scan("q", GP_PQ, 0.7, grid, (g, bumped, fwd, deriv))
    swapped = list(values)
    swapped[2], swapped[3] = swapped[3], swapped[2]
    assert any("increase" in p for p in chk.check_scan("q", GP_PQ, 0.7, grid,
                                                       (g, swapped, None, None)))
    assert chk.check_scan("q", GP_PQ, 0.7, grid, (g, values, fwd, deriv * 1.001))


def test_lemma_checks_have_teeth():
    rng = random.Random(5)
    for family, draw in (("p", lambda: rng.randint(1, 500)),
                         ("q", lambda: rng.uniform(0.05, 0.95)),
                         ("k", lambda: rng.uniform(1.0, 10.0))):
        samples = bw._lemma_samples(rng, family, 6, draw)
        fn = getattr(gammagen, "lemma_expr_" + family)
        values = [fn(*s) for s in samples]
        assert chk.check_lemma_values(family, samples, values) == []
        tampered = list(values)
        tampered[1] += 1e-9 * max(1.0, abs(tampered[1]))
        assert chk.check_lemma_values(family, samples, tampered)


# ---------------------------------------------------------------------------
# evaluators and the q-family reference
# ---------------------------------------------------------------------------

def test_perturbed_log_gamma_p_is_rejected():
    for t, p in ((2.5, 100), (0.7, 10 ** 4)):
        value = gammagen.log_gamma_p(t, p)
        assert chk.check_evaluation("log_gamma_p", (t, p), value) == []
        assert chk.check_evaluation("log_gamma_p", (t, p), value + 1e-9)
        assert chk.check_evaluation("psi_p", (t, p), gammagen.psi_p(t, p)) == []


def test_q_functional_equation_checker_has_teeth():
    t, q = 1.75, 1 - 1e-3
    lg, lg1 = gammagen.log_gamma_q(t, q), gammagen.log_gamma_q(t + 1, q)
    ps, ps1 = gammagen.psi_q(t, q), gammagen.psi_q(t + 1, q)
    pairs = [(r.value, r.err_bound) for r in (lg, lg1, ps, ps1)]
    assert chk.check_q_functional_equations(t, q, *pairs) == []
    pairs[1] = (pairs[1][0] + 1e-8, pairs[1][1])
    assert chk.check_q_functional_equations(t, q, *pairs)


@pytest.mark.parametrize("q", [0.02, 0.5, 0.9, 0.97])
def test_q_reference_matches_mpmath_qgamma(q):
    for t in (0.05, 0.6, 2.37, 17.2):
        value, err = ref.log_gamma_q(t, q)
        with mp.workdps(ref.DPS):
            assert abs(value - mp.log(mp.qgamma(mpf(t), mpf(q)))) <= err
            diff = mp.diff(lambda x: mp.log(mp.qgamma(x, mpf(q))), mpf(t))
        psi_value, psi_err = ref.psi_q(t, q)
        assert abs(psi_value - diff) <= psi_err + mpf(10) ** -20


@pytest.mark.parametrize("q", [1 - 1e-5, 1 - 1e-9])
def test_q_reference_functional_equations_near_one(q):
    t = 1.75  # t + 1 exact in binary
    with mp.workdps(ref.DPS):
        qt = mpf(q) ** mpf(t)
        d_lg = ref.log_gamma_q(t + 1, q)[0] - ref.log_gamma_q(t, q)[0]
        assert abs(d_lg - mp.log((1 - qt) / (1 - mpf(q)))) < mpf(10) ** -20
        d_ps = ref.psi_q(t + 1, q)[0] - ref.psi_q(t, q)[0]
        assert abs(d_ps + mp.log(mpf(q)) * qt / (1 - qt)) < mpf(10) ** -20


# ---------------------------------------------------------------------------
# oracle cross-validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("routine,args", [("psi_hp", (3.3,)), ("psi_q_hp", (2.2, 0.6)),
                                          ("gamma_p_hp", (1.9, 30)),
                                          ("gamma_k_quad", (2.4, 3.0))])
def test_perturbed_oracle_value_is_rejected(routine, args):
    task = bw.CrossvalTask(routine, args, 1e-12 if routine == "gamma_k_quad" else 1e-10)
    task.run(first=True)
    fast, hp, digits, verdict = task.result
    assert chk.check_crossval(routine, args, fast, hp, digits, verdict) == []
    with mp.workdps(ref.DPS):
        tampered = hp * (1 + mpf(10) ** -15)
    assert chk.check_crossval(routine, args, fast, tampered, digits, verdict)
    assert chk.check_crossval(routine, args, fast * (1 + 1e-8), hp, digits, verdict)


# ---------------------------------------------------------------------------
# workloads, tracer and BENCHMARK.json
# ---------------------------------------------------------------------------

def _signature(wl):
    return [dataclasses.astuple(t)[:6] if isinstance(t, bw.CliTask) else
            (getattr(t, "samples", None), getattr(t, "args", None)) for t in wl.tasks]


@pytest.mark.parametrize("name", sorted(bw.WORKLOADS))
def test_inputs_depend_only_on_the_seed(tmp_path, name):
    first = bw.build(name, 7, str(tmp_path))
    again = bw.build(name, 7, str(tmp_path))
    other = bw.build(name, 8, str(tmp_path))
    assert _signature(first) == _signature(again) != _signature(other)


def test_paper_battery_keeps_the_known_overflow_once_per_round(tmp_path):
    wl = bw.build("paper_battery", 1, str(tmp_path))
    known = [t for t in wl.tasks if getattr(t, "expected_failure", None)]
    assert len(known) == 1
    assert known[0].describe().startswith(
        "verify --family p --a 200.0 --b 1.0 --alpha 50.0 --beta 1.0 --p 5 --grid 0.5")


def test_tracer_counts_and_restores(tmp_path):
    original = gammagen.gen_gamma.psi_p
    tracer = bench_trace.Tracer(max_spans=1000)
    tracer.install()
    try:
        assert gammagen.psi_p is not original
        tracer.task(0)
        gammagen.lemma_expr_p(1.0, 1.0, 2.5, 30)
        tracer.leave()
    finally:
        tracer.uninstall()
    assert gammagen.psi_p is original and gammagen.inequality_engine.psi_p is original
    m = tracer.metrics()
    assert m["gen_gamma.psi_p.calls"] == 1
    assert m["inequality_engine.lemma.calls"] == 1    # checked -> unchecked counts once
    assert m["core_special.psi_series.terms"] > 0
    names = {s[2] for s in tracer.spans}
    assert {"bench.task", "inequality_engine.lemma", "gen_gamma.psi_p"} <= names
    by_id = {s[0]: s for s in tracer.spans}
    for span_id, parent, _, start, end, _ in tracer.spans:
        if parent >= 0:
            assert by_id[parent][3] <= start <= end <= by_id[parent][4]


def test_benchmark_json_lists_the_printed_metrics():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench_trace.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(bw.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "points_per_s", "task_p50_ms", "task_tail_ms", "setup_s", "peak_rss_mb"]
