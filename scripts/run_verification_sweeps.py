#!/usr/bin/env python3
"""Run sandwich verifications and monotonicity scans for a battery of
parameter sets across all three Gamma deformations, writing one report
file per sweep and printing a summary table.

Usage:
    python scripts/run_verification_sweeps.py --outdir results [--format json]
"""

import argparse
import pathlib
import sys

from gammagen.cli import (parse_grid_spec, render_reports_csv,
                          render_reports_json, report_config)
from gammagen.core_special import DEFAULT_TOL
from gammagen.inequality_engine import (
    DEFAULT_TOL_REPORT,
    GenParams,
    check_sandwich,
    family_callables,
    scan_monotone,
    scan_passes,
)

# The grid is built from its spec, so `gammagen verify --grid SPEC` reproduces
# every report.
SANDWICH_GRID_SPEC = "0.05:0.95:0.05"
SANDWICH_GRID = parse_grid_spec(SANDWICH_GRID_SPEC)
SCAN_GRID = tuple(0.01 + 0.01 * i for i in range(500))

BATTERY = [
    ("p", GenParams(1.0, 1.0, 1.5, 1.0), 5),
    ("p", GenParams(2.0, 0.5, 1.0, 0.7), 50),
    ("p", GenParams(0.4, 1.8, 2.2, 1.3), 1),
    ("q", GenParams(1.0, 1.0, 1.5, 1.0), 0.5),
    ("q", GenParams(1.2, 0.7, 1.0, 0.9), 0.9),
    ("q", GenParams(0.5, 2.0, 3.0, 1.0), 0.1),
    ("k", GenParams(1.0, 1.0, 1.5, 1.0), 1.0),
    ("k", GenParams(2.0, 1.0, 1.5, 0.5), 3.0),
    ("k", GenParams(3.0, 0.3, 0.8, 1.1), 8.0),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    all_ok = True
    print(f"{'sweep':<28} {'sandwich':>12} {'min margin':>12} {'scan fwd':>12}")
    for i, (family, gp, param) in enumerate(BATTERY):
        rows = check_sandwich(family, gp, param, SANDWICH_GRID, DEFAULT_TOL_REPORT)
        name = f"sweep{i:02d}_{family}"
        path = outdir / f"{name}.{args.format}"
        content = (render_reports_csv(rows) if args.format == "csv"
                   else render_reports_json(report_config(
                       family, gp, param, SANDWICH_GRID_SPEC, SANDWICH_GRID, seed=0,
                       tol=DEFAULT_TOL, tol_report=DEFAULT_TOL_REPORT,
                       fmt=args.format), rows))
        path.write_text(content)

        fn, ld = family_callables(family, gp, param)
        scan = scan_monotone(fn, ld, SCAN_GRID)

        n_pass = sum(r.passed for r in rows)
        margin = min(min(r.lower_margin for r in rows),
                     min(r.upper_margin for r in rows))
        ok = n_pass == len(rows) and scan_passes(scan, DEFAULT_TOL_REPORT)
        all_ok = all_ok and ok
        print(f"{name:<28} {n_pass:>9}/{len(rows)} {margin:>12.3e} "
              f"{scan.min_forward_diff:>12.3e}")

    print("all sweeps passed" if all_ok else "SOME SWEEPS FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
