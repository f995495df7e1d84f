#!/usr/bin/env python3
"""Time the fast-path evaluators, the layer under the inequality engine,
and the engine's lemma layer on top of them.

One row per evaluator, at the centres of the bands the benchmark's
``paper_battery`` workload draws from (benchmark/bench_workloads.py):
p = 251, q = 0.5, k = 5.5, and s = alpha + beta t over the verify grid
0.05:0.95:0.05, with beta = 0.85 and alpha = 1.775 (1.4 for the
k-family), the arguments at which the engine calls them.  The three
lemma rows, lemma_expr_p/_q/_k(a, b, s, x) at a = 2, b = 1, take the
same s and parameters; each is the engine's combination of psi(s) and
the family's psi_X(s).  Columns:

- one-shot: microseconds per call when every call takes a new s and a new
  p, q or k, drawn at a fixed seed from the grid's range of s and the
  parameter's band, as a batch of lemma samples does;
- sweep: microseconds per call when one parameter, the band's centre,
  runs over the grid's s values, as a verify or scan command does;
- terms: the median terms_used of the sweep's calls, "-" for an
  evaluator that returns a bare float.

Each time is the median of REPEATS passes over the calls, after one
untimed pass.  Like scripts/oracle_cost.py, the rows describe one tree:
separate processes on a shared host drift too far to compare two commits.

Usage:
    python scripts/evaluator_cost.py
"""

import random
import statistics
import sys
import time

from gammagen import core_special, gen_gamma, inequality_engine

P_BAND = ((2, 500), 251)
Q_BAND = ((0.05, 0.95), 0.5)
K_BAND = ((1.0, 10.0), 5.5)
# evaluator -> (module, alpha, the parameter's band and centre, or None)
ROWS = {
    "psi_series": (core_special, 1.775, None),
    "psi_p": (gen_gamma, 1.775, P_BAND),
    "log_gamma_p": (gen_gamma, 1.775, P_BAND),
    "psi_q": (gen_gamma, 1.775, Q_BAND),
    "log_gamma_q": (gen_gamma, 1.775, Q_BAND),
    "psi_k": (gen_gamma, 1.4, K_BAND),
    "log_gamma_k": (gen_gamma, 1.4, K_BAND),
    "lemma_expr_p": (inequality_engine, 1.775, P_BAND),
    "lemma_expr_q": (inequality_engine, 1.775, Q_BAND),
    "lemma_expr_k": (inequality_engine, 1.4, K_BAND),
}
LEMMA_AB = (2.0, 1.0)  # the lemma rows' a and b, ahead of s and the parameter
BETA = 0.85
GRID = [0.05 * i for i in range(1, 20)]
SEED = 27
REPEATS = 201


def _us_per_call(fn, calls) -> float:
    for args in calls:
        fn(*args)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for args in calls:
            fn(*args)
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times) / len(calls)


def main() -> int:
    print(f"{'evaluator':<12} {'one-shot':>9} {'sweep':>9} {'terms':>6}   (us/call)")
    rng = random.Random(SEED)
    for name, (module, alpha, param) in ROWS.items():
        fn = getattr(module, name)
        lead = LEMMA_AB if module is inequality_engine else ()
        grid = [alpha + BETA * t for t in GRID]
        draw_s = [rng.uniform(grid[0], grid[-1]) for _ in GRID]
        if param is None:
            one_shot, sweep = [(s,) for s in draw_s], [(s,) for s in grid]
        else:
            (low, high), centre = param
            draw = rng.randint if isinstance(low, int) else rng.uniform
            one_shot = [(*lead, s, draw(low, high)) for s in draw_s]
            sweep = [(*lead, s, centre) for s in grid]
        terms = [getattr(fn(*args), "terms_used", None) for args in sweep]
        shown = "-" if terms[0] is None else f"{statistics.median(terms):g}"
        print(f"{name:<12} {_us_per_call(fn, one_shot):>9.2f} "
              f"{_us_per_call(fn, sweep):>9.2f} {shown:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
