#!/usr/bin/env python3
"""Time the CLI layer: building the parser, parsing one command line, and a
whole in-process ``gammagen.cli.main`` call.

One row per command: ``verify`` and ``scan``, CSV and JSON, for each family,
with the parameters at the centres of the bands the benchmark's
``paper_battery`` workload draws from (benchmark/bench_workloads.py) and its
grids.  Reports go to a temporary file.  Each column is the median wall time
of REPEATS calls, after one untimed call.

Usage:
    python scripts/cli_cost.py
"""

import io
import os
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stdout

from gammagen import cli

# family -> (a, b, alpha, beta, family parameter)
CENTRES = {
    "p": (1.4, 1.4, 1.775, 0.85, 251),
    "q": (1.4, 1.4, 1.775, 0.85, 0.5),
    "k": (2.155, 1.15, 1.4, 0.85, 5.5),
}
GRIDS = {"verify": "0.05:0.95:0.05", "scan": "0.05:5:0.05"}
REPEATS = 101


def _median_ms(call) -> float:
    call()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main() -> int:
    print(f"{'command':<8} {'family':<6} {'format':<6} {'build_parser':>12} "
          f"{'parse_args':>10} {'main':>8}   (ms)")
    total_ms = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for command, grid in GRIDS.items():
            for fmt in ("csv", "json"):
                for family, (a, b, alpha, beta, x) in CENTRES.items():
                    argv = [command, "--family", family, "--a", repr(a),
                            "--b", repr(b), "--alpha", repr(alpha),
                            "--beta", repr(beta), f"--{family}", repr(x),
                            "--grid", grid, "--format", fmt,
                            "--out", os.path.join(tmp, f"report.{fmt}")]
                    parser = cli.build_parser()
                    build_ms = _median_ms(cli.build_parser)
                    parse_ms = _median_ms(lambda: parser.parse_args(argv))
                    with redirect_stdout(io.StringIO()):
                        main_ms = _median_ms(lambda: cli.main(argv))
                    total_ms += main_ms
                    print(f"{command:<8} {family:<6} {fmt:<6} {build_ms:>12.3f} "
                          f"{parse_ms:>10.3f} {main_ms:>8.3f}")
    print(f"total {total_ms:.1f} ms for one main call per row")
    return 0


if __name__ == "__main__":
    sys.exit(main())
