#!/usr/bin/env python3
"""Time the layers built on the series of psi, psi_p, psi_q and psi_k: the
fast-path evaluators with the engine's lemma layer on top of them, the
engine's sweeps, the CLI, and the oracle.

The workloads are the benchmark's (benchmark/bench_workloads.py, imported
and only read): its verify and scan grids, the centres of its
``oracle_crossval`` slots, and the centres of the bands its
``paper_battery`` workload draws a, b, alpha, beta and p, q or k from
(PAPER, the one table the benchmark holds only inside its draws).  Each
time is the median of the table's REPEATS passes, after one untimed pass.
Four tables, in order:

1. Evaluators: psi_series, psi_p, log_gamma_p, psi_q, log_gamma_q, psi_k
   and log_gamma_k, and lemma_expr_p/_q/_k(a, b, s, x) at a = 2, b = 1,
   each at s = alpha + beta t over the verify grid.  Columns: one-shot,
   microseconds per call when every call takes a new s and a new p, q or
   k, drawn at a fixed seed from the grid's range of s and the
   parameter's band, as a lemma batch does; sweep, the same when the
   band's centre runs over the grid's s, as verify does; terms, the
   median terms_used of the sweep, "-" for a bare float.
2. Sweeps: check_sandwich over the verify grid and
   scan_monotone(*family_callables(...)) over the scan grid, for each
   family at its PAPER centres, in microseconds per grid point.
3. CLI: build_parser(), parse_args and a whole in-process cli.main call,
   in milliseconds, for verify and scan in CSV and JSON for each family.
   Reports go to a temporary file.
4. Oracle: each routine at the centre of each oracle_crossval slot, then
   at EXTREMES: a tiny t, which the functional equation lifts by 64
   integer factors of about 1,050 bits; t/k = 1500, which widens the
   trapezoid's working precision, and t/k = 1e325, where u, the strip
   angle and the step leave the double range; psi at t = 1e100, whose
   series head is sized free of t; psi_p at p = 10**6 and 10**12, where
   the Euler-Maclaurin closure keeps the head at about a dozen terms
   whatever p is; psi_k at k = 1e-30 and at (t, k) = (1e300, 1e-100),
   where the head takes 64 terms; and the q oracles at q = 0.999, 0.9999
   and 1 - 1e-6, where the head and the Lambert-series tail take about
   2 sqrt(ln(1/T) / (1-q)) terms.  The last row times ``cross_validate``
   on psi_hp's value at t = 15.025 and that value rounded to a double.
   Columns: milliseconds per call, the terms, factors or quadrature nodes
   the call took (1 for cross_validate), microseconds per term, and the
   digits it certifies ("-" for cross_validate).

The rows describe one tree; they cannot compare two commits run in
separate processes.  On a shared 2-CPU host such processes drift by 30-40%
between runs: psi_q_hp(2.5, 0.999) alone read 0.57-0.83 ms across nine
back-to-back processes.  To compare two trees, import both in one process
(one copy of the package under another name) and interleave their calls
case by case; that put every unchanged oracle row within 5%.

Usage:
    python scripts/layer_cost.py
"""

import io
import os
import pathlib
import random
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stdout

import gammagen
from gammagen import cli, oracle

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "benchmark"))
import bench_workloads as bw  # noqa: E402

# family -> ((a, b, alpha, beta) at the centres of paper_battery's bands,
#            the band of p, q or k)
PAPER = {
    "p": ((1.4, 1.4, 1.775, 0.85), (2, 500)),
    "q": ((1.4, 1.4, 1.775, 0.85), (0.05, 0.95)),
    "k": ((2.155, 1.15, 1.4, 0.85), (1.0, 10.0)),
}
EVALUATORS = ("psi_series", "psi_p", "log_gamma_p", "psi_q", "log_gamma_q", "psi_k",
              "log_gamma_k", "lemma_expr_p", "lemma_expr_q", "lemma_expr_k")
LEMMA_AB = (2.0, 1.0)  # the lemma rows' a and b, ahead of s and the parameter
SEED = 27
# routine -> the argument sets timed after the workload's centres
EXTREMES = {
    "psi_hp": [(1e100,)],
    "psi_p_hp": [(2.5, 10**6), (2.5, 10**12)],
    "psi_q_hp": [(2.5, 0.999), (2.5, 0.9999), (2.5, 1 - 1e-6)],
    "psi_k_hp": [(2.5, 1e-30), (1e300, 1e-100)],
    "gamma_hp": [(1e-300,)],
    "gamma_q_hp": [(2.5, 0.999), (2.5, 0.9999), (2.5, 1 - 1e-6)],
    "gamma_k_quad": [(300.0, 0.2), (1e5, 1e-320)],
}
REPEATS = {"evaluator": 201, "sweep": 101, "cli": 101, "oracle": 5}


def _centre(low, high):
    """The centre of a band; of a band of integers, rounded down."""
    return (low + high) // 2 if isinstance(low, int) else (low + high) / 2


def _median_s(call, repeats) -> float:
    """Median wall time in seconds of repeats calls, after one untimed call."""
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _us_per_call(fn, calls) -> float:
    def each():
        for args in calls:
            fn(*args)
    return 1e6 * _median_s(each, REPEATS["evaluator"]) / len(calls)


def evaluator_table() -> None:
    print(f"{'evaluator':<12} {'one-shot':>9} {'sweep':>9} {'terms':>6}   (us/call)")
    rng = random.Random(SEED)
    ts = cli.parse_grid_spec(bw.PAPER_VERIFY_GRID)
    for name in EVALUATORS:
        fn = getattr(gammagen, name)
        family = name[-1] if name[-1] in PAPER else None
        # psi_series takes the s of the p and q families
        (_, _, alpha, beta), band = PAPER[family or "p"]
        lead = LEMMA_AB if name.startswith("lemma_") else ()
        grid = [alpha + beta * t for t in ts]
        draw_s = [rng.uniform(grid[0], grid[-1]) for _ in ts]
        if family is None:
            one_shot, sweep = [(s,) for s in draw_s], [(s,) for s in grid]
        else:
            draw = rng.randint if isinstance(band[0], int) else rng.uniform
            one_shot = [(*lead, s, draw(*band)) for s in draw_s]
            sweep = [(*lead, s, _centre(*band)) for s in grid]
        terms = [getattr(fn(*args), "terms_used", None) for args in sweep]
        shown = "-" if terms[0] is None else f"{statistics.median(terms):g}"
        print(f"{name:<12} {_us_per_call(fn, one_shot):>9.2f} "
              f"{_us_per_call(fn, sweep):>9.2f} {shown:>6}")


def _scan(family, gp, x, grid):
    return gammagen.scan_monotone(*gammagen.family_callables(family, gp, x), grid)


def sweep_table() -> None:
    print(f"{'sweep':<8} {'family':<6} {'points':>6} {'us/point':>9}")
    for sweep, spec, run in (("sandwich", bw.PAPER_VERIFY_GRID, gammagen.check_sandwich),
                             ("scan", bw.PAPER_SCAN_GRID, _scan)):
        grid = cli.parse_grid_spec(spec)
        for family, (params, band) in PAPER.items():
            args = (family, gammagen.GenParams(*params), _centre(*band), grid)
            us = 1e6 * _median_s(lambda: run(*args), REPEATS["sweep"]) / len(grid)
            print(f"{sweep:<8} {family:<6} {len(grid):>6} {us:>9.2f}")


def cli_table() -> None:
    print(f"{'command':<8} {'family':<6} {'format':<6} {'build_parser':>12} "
          f"{'parse_args':>10} {'main':>8}   (ms)")
    total_ms = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for command, grid in (("verify", bw.PAPER_VERIFY_GRID), ("scan", bw.PAPER_SCAN_GRID)):
            for fmt in ("csv", "json"):
                for family, ((a, b, alpha, beta), band) in PAPER.items():
                    argv = [command, "--family", family, "--a", repr(a),
                            "--b", repr(b), "--alpha", repr(alpha),
                            "--beta", repr(beta), f"--{family}", repr(_centre(*band)),
                            "--grid", grid, "--format", fmt,
                            "--out", os.path.join(tmp, f"report.{fmt}")]
                    parser = cli.build_parser()
                    build_ms, parse_ms = (
                        1e3 * _median_s(call, REPEATS["cli"])
                        for call in (cli.build_parser, lambda: parser.parse_args(argv)))
                    with redirect_stdout(io.StringIO()):
                        main_ms = 1e3 * _median_s(lambda: cli.main(argv), REPEATS["cli"])
                    total_ms += main_ms
                    print(f"{command:<8} {family:<6} {fmt:<6} {build_ms:>12.3f} "
                          f"{parse_ms:>10.3f} {main_ms:>8.3f}")
    print(f"total {total_ms:.1f} ms for one main call per row")


def oracle_cases() -> list:
    """(routine, arguments) per oracle row but the last: routine by routine,
    the centres of its oracle_crossval slots, each once (p as an integer),
    then its EXTREMES."""
    cases = []
    for routine, slots in bw._CROSSVAL_SLOTS.items():
        for t_band, x_band in slots:
            args = (_centre(*t_band),) + (() if x_band is None else (_centre(*x_band),))
            if (routine, args) not in cases:
                cases.append((routine, args))
        cases += [(routine, args) for args in EXTREMES.get(routine, ())]
    return cases


def oracle_table() -> None:
    print(f"{'routine':<14} {'arguments':<16} {'ms/call':>9} {'terms':>7} {'us/term':>8} "
          f"{'digits':>6}")
    total_ms = 0.0
    reference = oracle.psi_hp(15.025)
    crossval = ("cross_validate", (float(reference.value), reference, 1e-10))
    for name, args in oracle_cases() + [crossval]:
        routine = getattr(oracle, name)
        ms = 1e3 * _median_s(lambda: routine(*args), REPEATS["oracle"])
        total_ms += ms
        if name == "cross_validate":
            shown, terms, digits = "psi_hp(15.025)", 1, "-"
        else:
            hp = routine(*args)
            shown = ", ".join(f"{a:g}" for a in args)
            terms, digits = hp.terms_used, hp.certified_digits
        print(f"{name:<14} {shown:<16} {ms:>9.3f} {terms:>7} {1e3 * ms / terms:>8.2f} "
              f"{digits:>6}")
    print(f"total {total_ms:.1f} ms for one call per row")


def main() -> int:
    evaluator_table()
    print()
    sweep_table()
    print()
    cli_table()
    print()
    oracle_table()
    return 0


if __name__ == "__main__":
    sys.exit(main())
