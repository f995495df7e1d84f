#!/usr/bin/env python3
"""Time the eight oracle routines and show the work each call does.

One row per routine and argument set: the arguments are the centres of the
bands the benchmark's ``oracle_crossval`` workload draws from
(benchmark/bench_workloads.py); three extremes of the trapezoid rule: a
tiny t, which the functional equation lifts by 32 integer factors of
about 1,050 bits, t/k = 1500, which widens the working precision, and
t/k = 1e325, where u, the strip angle and the step leave the double range;
psi at t = 1e100, whose series head is sized free of t; psi_p at
p = 10**6 and 10**12, where the Euler-Maclaurin closure keeps the head at
about a dozen terms whatever p is; psi_k at k = 1e-30 and at
(t, k) = (1e300, 1e-100), where the target k T lies below the head floor
2^-(W+4) and the head takes 64 terms; and the q oracles at q = 0.999,
0.9999 and 1 - 1e-6, where the head and the Lambert-series tail take about
2 sqrt(ln(1/T) / (1-q)) terms.
Each row gives the median wall time of five calls (after one untimed
call), the terms, factors or quadrature nodes the call took, the
microseconds per term (the time over the terms, so the cost of a series
term, a product factor or a quadrature node shows directly) and the digits
it certifies.  The last row times ``cross_validate`` itself, on psi_hp's
value at t = 15.025 and that value rounded to a double; it takes no terms
and certifies nothing, so those columns read 1 and "-".

The rows describe one tree; they cannot compare two commits run in
separate processes.  On a shared 2-CPU host such processes drift by 30-40%
between runs: psi_q_hp(2.5, 0.999) alone read 0.57-0.83 ms across nine
back-to-back processes.  To compare two trees, import both in one process
(one copy of the package under another name) and interleave their calls
case by case; that put every unchanged row within 5%.

Usage:
    python scripts/oracle_cost.py
"""

import statistics
import sys
import time

from gammagen import oracle

CASES = [
    ("psi_hp", (15.025,)),
    ("psi_hp", (1e100,)),
    ("psi_p_hp", (15.025, 900)),
    ("psi_p_hp", (2.5, 10**6)),
    ("psi_p_hp", (2.5, 10**12)),
    ("psi_q_hp", (15.025, 0.6)),
    ("psi_q_hp", (15.025, 0.905)),
    ("psi_q_hp", (15.025, 0.9275)),
    ("psi_q_hp", (15.025, 0.9425)),
    ("psi_q_hp", (2.5, 0.999)),
    ("psi_q_hp", (2.5, 0.9999)),
    ("psi_q_hp", (2.5, 1 - 1e-6)),
    ("psi_k_hp", (12.525, 5.25)),
    ("psi_k_hp", (2.5, 1e-30)),
    ("psi_k_hp", (1e300, 1e-100)),
    ("gamma_hp", (2.5,)),
    ("gamma_hp", (6.0,)),
    ("gamma_hp", (11.5,)),
    ("gamma_hp", (22.5,)),
    ("gamma_hp", (1e-300,)),
    ("gamma_p_hp", (12.55, 900)),
    ("gamma_q_hp", (12.55, 0.6)),
    ("gamma_q_hp", (12.55, 0.905)),
    ("gamma_q_hp", (8.0, 0.9665)),
    ("gamma_q_hp", (2.5, 0.999)),
    ("gamma_q_hp", (2.5, 0.9999)),
    ("gamma_q_hp", (2.5, 1 - 1e-6)),
    ("gamma_k_quad", (3.0, 5.5)),
    ("gamma_k_quad", (5.5, 5.5)),
    ("gamma_k_quad", (9.0, 5.5)),
    ("gamma_k_quad", (13.0, 5.5)),
    ("gamma_k_quad", (300.0, 0.2)),
    ("gamma_k_quad", (1e5, 1e-320)),
    ("cross_validate", ()),
]
REPEATS = 5


def main() -> int:
    print(f"{'routine':<14} {'arguments':<16} {'ms/call':>9} {'terms':>7} {'us/term':>8} "
          f"{'digits':>6}")
    total_ms = 0.0
    reference = oracle.psi_hp(15.025)
    for name, args in CASES:
        if name == "cross_validate":
            args = (float(reference.value), reference, 1e-10)
        routine = getattr(oracle, name)
        hp = routine(*args)
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            routine(*args)
            times.append(time.perf_counter() - start)
        ms = 1e3 * statistics.median(times)
        total_ms += ms
        if name == "cross_validate":
            shown, terms, digits = "psi_hp(15.025)", 1, "-"
        else:
            shown = ", ".join(f"{a:g}" for a in args)
            terms, digits = hp.terms_used, hp.certified_digits
        print(f"{name:<14} {shown:<16} {ms:>9.3f} {terms:>7} {1e3 * ms / terms:>8.2f} "
              f"{digits:>6}")
    print(f"total {total_ms:.1f} ms for one call per row")
    return 0


if __name__ == "__main__":
    sys.exit(main())
