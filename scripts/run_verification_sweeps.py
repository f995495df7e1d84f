#!/usr/bin/env python3
"""Run sandwich verifications and monotonicity scans for a battery of
parameter sets across all three Gamma deformations, writing one report
file per command, each through `gammagen verify` or `gammagen scan`.

Usage:
    python scripts/run_verification_sweeps.py --outdir results [--format json]
"""

import argparse
import pathlib
import sys

from gammagen import cli
from gammagen.inequality_engine import GenParams

SANDWICH_GRID_SPEC = "0.05:0.95:0.05"
SCAN_GRID_SPEC = "0.01:5:0.01"

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
    for i, (family, gp, param) in enumerate(BATTERY):
        flags = ["--family", family, "--a", repr(gp.a), "--b", repr(gp.b),
                 "--alpha", repr(gp.alpha), "--beta", repr(gp.beta),
                 f"--{family}", repr(param), "--format", args.format]
        for command, report, grid in (("verify", "sweep", SANDWICH_GRID_SPEC),
                                      ("scan", "scan", SCAN_GRID_SPEC)):
            out = outdir / f"{report}{i:02d}_{family}.{args.format}"
            print(f"{out.name:<16}", end=" ")
            code = cli.main([command, *flags, "--grid", grid, "--out", str(out)])
            if code > cli.EXIT_NUMERIC_FAIL:  # the command printed nothing to stdout
                print(f"exit {code}")
            all_ok = all_ok and code == 0

    print("all sweeps passed" if all_ok else "SOME SWEEPS FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
