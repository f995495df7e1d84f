#!/usr/bin/env python3
"""gammagen benchmark: one workload, one process, one thread.

    python3 benchmark/run.py --workload paper_battery --seed 1 --seconds 30 --trace 0

Set-up (import, input generation from the seed, one warm-up call per layer)
is timed three times: twice in fresh interpreters, once in this process.
The timed phase then repeats the workload's round of tasks until
``--seconds`` have passed, finishing the round it is in.  Between tasks,
outside the timed region, the C heap is reset and the workload's
calibration kernels are timed now and then; every task time is rescaled to
the kernels' reference speed (bench_calibration).  After the timed phase, every output of the
first round is checked against bench_reference, untimed.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (operations are tasks) and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Each run writes its details (raw times, per-task medians,
problems) or, traced, its spans and layer totals to ``benchmark/out/``.
Progress and problems go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("paper_battery", "deformation_limits", "oracle_crossval")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120
MAX_SPANS = 200_000
MAX_REPORTED_PROBLEMS = 20


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _setup(workload, seed, workdir):
    """Import gammagen, build the inputs and warm each layer.

    Returns (seconds rescaled to the calibration's reference speed, raw
    seconds, workload)."""
    start = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import gammagen  # noqa: F401
    import bench_workloads
    wl = bench_workloads.build(workload, seed, workdir)
    bench_workloads.warm_up(wl, workdir)
    raw = time.perf_counter() - start
    import bench_calibration
    return raw * bench_calibration.setup_speed(wl.calibration), raw, wl


def _setup_in_fresh_interpreter(args):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    scaled, raw = proc.stdout.strip().splitlines()[-1].split()
    return float(scaled), float(raw)


# ---------------------------------------------------------------------------
# timed phase
# ---------------------------------------------------------------------------

def _percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _timed_phase(wl, seconds, tracer):
    """Run whole rounds until ``seconds`` have passed; calibrate between
    tasks (bench_calibration) and report times at the reference speed."""
    import bench_calibration as cal
    tasks = wl.tasks
    records, failures = [], {}     # records: (task index, ok, raw ns, epoch)
    attempted = failed = points = rounds = 0
    gc.collect()
    speeds = [cal.speed(wl.calibration)]
    since_ns = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        first = rounds == 0
        for i, task in enumerate(tasks):
            if since_ns >= cal.INTERVAL_NS:
                speeds.append(cal.speed(wl.calibration))
                since_ns = 0
            cal.reset_heap()
            if tracer is not None:
                tracer.task(i)
            t0 = time.perf_counter_ns()
            try:
                ok = task.run(first)
            except Exception as exc:  # any fault of the program: count it, go on
                ok = False
                failures.setdefault(i, f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.leave()
            records.append((i, ok, dt, len(speeds) - 1))
            since_ns += dt
            attempted += 1
            if ok:
                points += task.points
            else:
                failed += 1
                failures.setdefault(i, f"exit {getattr(task, 'code', None)}: "
                                       f"{getattr(task, 'stderr', '').strip()}")
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - start
    speeds.append(cal.speed(wl.calibration))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    scaled = cal.rescale([(dt, e) for _, _, dt, e in records], speeds)
    ok_per_round = (attempted - failed) / rounds
    tail_pct = 100.0 * (1.0 - (wl.tail_slot - 0.5) / ok_per_round)
    ok_scaled = sorted(s for s, (_, ok, _, _) in zip(scaled, records) if ok)
    ok_raw = sorted(dt for _, ok, dt, _ in records if ok)
    per_task = [[] for _ in tasks]
    for s, (i, ok, _, _) in zip(scaled, records):
        if ok:
            per_task[i].append(s)
    return {
        "elapsed_s": elapsed, "rounds": rounds, "attempted": attempted,
        "failed": failed, "points": points, "failures": failures,
        "points_per_s": points / (sum(scaled) / 1e9),
        "task_p50_ms": statistics.median(ok_scaled) / 1e6,
        "task_tail_ms": _percentile(ok_scaled, tail_pct) / 1e6,
        "tail_percentile": tail_pct,
        "tasks_beyond_tail": len(ok_scaled) - math.ceil(tail_pct / 100.0 * len(ok_scaled)),
        "raw_points_per_s": points / (sum(dt for _, _, dt, _ in records) / 1e9),
        "raw_task_p50_ms": statistics.median(ok_raw) / 1e6,
        "raw_task_tail_ms": _percentile(ok_raw, tail_pct) / 1e6,
        "speed": {"kernels": wl.calibration, "count": len(speeds),
                  "median": statistics.median(speeds), "min": min(speeds),
                  "max": max(speeds)},
        "tasks_timed": len(ok_scaled),
        "peak_rss_mb": peak_rss_mb,
        "task_medians_ms": [
            [task.describe(), statistics.median(ts) / 1e6 if ts else None]
            for task, ts in zip(tasks, per_task)],
    }


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _check_cli_task(task, rounds):
    import bench_checks as chk
    if task.code not in (0, 1):
        return []  # counted in `failed`; nothing to check
    with open(task.path_first, newline="") as fh:
        text = fh.read()
    problems = []
    if rounds > 1:
        with open(task.path_last, newline="") as fh:
            if fh.read() != text:
                problems.append(f"{task.describe()}: report differs between rounds")
    try:
        if task.kind == "verify":
            rows = chk.parse_verify_output(text, task.fmt)
            problems += chk.check_sandwich_rows(task.family, task.gp, task.x,
                                                task.grid, rows)
        else:
            scan = chk.parse_scan_output(text, task.fmt)
            problems += chk.check_scan(task.family, task.gp, task.x, task.grid, scan)
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"{task.describe()}: unreadable report ({exc})")
    if task.code != 0:
        problems.append(f"{task.describe()}: exit {task.code}, the theorem holds")
    return problems


def _check_probes(probes):
    """Evaluators at the deformation workload's parameters: p- and k-families
    against exact identities, the q-family by its functional equations and
    the Euler-Maclaurin reference."""
    import gammagen
    import bench_checks as chk
    problems = []
    for fam, alpha, x in probes:
        t = math.ldexp(round(math.ldexp(alpha, 20)), -20)  # so t + 1 is exact
        if fam == "p":
            for name in ("log_gamma_p", "psi_p"):
                problems += chk.check_evaluation(name, (t, x), getattr(gammagen, name)(t, x))
        elif fam == "k":
            problems += chk.check_evaluation("log_gamma_k", (t, x),
                                             gammagen.log_gamma_k(t, x))
            r = gammagen.psi_k(t, x)
            problems += chk.check_evaluation("psi_k", (t, x), r.value, r.err_bound)
        else:
            lg, lg1 = gammagen.log_gamma_q(t, x), gammagen.log_gamma_q(t + 1, x)
            ps, ps1 = gammagen.psi_q(t, x), gammagen.psi_q(t + 1, x)
            problems += chk.check_q_functional_equations(
                t, x, (lg.value, lg.err_bound), (lg1.value, lg1.err_bound),
                (ps.value, ps.err_bound), (ps1.value, ps1.err_bound))
            problems += chk.check_evaluation("log_gamma_q", (t, x), lg.value, lg.err_bound)
            problems += chk.check_evaluation("psi_q", (t, x), ps.value, ps.err_bound)
    return problems


def _check_outputs(wl, rounds):
    import bench_checks as chk
    import bench_workloads as bw
    problems = []
    for task in wl.tasks:
        if isinstance(task, bw.CliTask):
            problems += _check_cli_task(task, rounds)
        elif isinstance(task, bw.LemmaTask):
            if task.values is not None:
                problems += chk.check_lemma_values(task.family, task.samples, task.values)
        elif task.result is not None:
            problems += chk.check_crossval(task.routine, task.args, *task.result)
    problems += _check_probes(wl.evaluator_probes)
    return problems


def _known_failure(task, message):
    expected = getattr(task, "expected_failure", None)
    return expected is not None and expected in message


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gammagen", "__init__.py")):
        _log(f"error: gammagen sources not found at {SRC}")
        return 2
    if args.seconds <= 0:
        _log("error: --seconds must be > 0")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    try:
        if args.setup_only:
            scaled, raw, _ = _setup(args.workload, args.seed, workdir)
            print(repr(scaled), repr(raw))
            return 0
        setup_samples = [_setup_in_fresh_interpreter(args)
                         for _ in range(SETUP_SAMPLES - 1)]
        scaled, raw, wl = _setup(args.workload, args.seed, workdir)
        setup_samples.append((scaled, raw))

        tracer = None
        if args.trace:
            import bench_trace
            tracer = bench_trace.Tracer(MAX_SPANS)
            tracer.install()
        try:
            res = _timed_phase(wl, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()

        t_check = time.perf_counter()
        problems = _check_outputs(wl, res["rounds"])
        check_s = time.perf_counter() - t_check
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for i, msg in sorted(res["failures"].items()):
        kind = "known fault" if _known_failure(wl.tasks[i], msg) else "UNEXPECTED"
        _log(f"failed ({kind}) every round: {wl.tasks[i].describe()}: {msg}")
    for msg in problems[:MAX_REPORTED_PROBLEMS]:
        _log(f"INCORRECT: {msg}")
    if len(problems) > MAX_REPORTED_PROBLEMS:
        _log(f"... and {len(problems) - MAX_REPORTED_PROBLEMS} more problems")
    _log(f"{args.workload} seed={args.seed}: {res['rounds']} rounds of "
         f"{len(wl.tasks)} tasks in {res['elapsed_s']:.2f} s, "
         f"{res['tasks_timed']} tasks timed, tail = p{res['tail_percentile']:.2f} "
         f"({res['tasks_beyond_tail']} beyond), "
         f"set-up samples {[round(s, 3) for s, _ in setup_samples]}, "
         f"checks {check_s:.1f} s")

    if args.trace:
        import bench_trace
        layer = tracer.metrics()
        layer["bench.run.points_per_s"] = res["points_per_s"]
        stem = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}")
        tracer.write_spans(stem + ".spans.jsonl")
        with open(stem + ".json", "w") as fh:
            json.dump({"metrics": layer, "dropped_spans": tracer.dropped}, fh,
                      indent=1, sort_keys=True)
        metrics = {name: _metric(layer.get(name, 0), unit)
                   for name, unit in bench_trace.PER_LAYER}
    else:
        metrics = {
            "points_per_s": _metric(res["points_per_s"], "points/s"),
            "task_p50_ms": _metric(res["task_p50_ms"], "ms"),
            "task_tail_ms": _metric(res["task_tail_ms"], "ms"),
            "setup_s": _metric(statistics.median(s for s, _ in setup_samples), "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        }
        with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}.json"),
                  "w") as fh:
            json.dump({k: v for k, v in res.items() if k != "failures"}
                      | {"setup_samples": setup_samples, "check_s": check_s,
                         "problems": problems}, fh, indent=1)
    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
