#!/usr/bin/env python3
"""Tabulate how the deformed Gamma functions approach the classical one:
Gamma_p as p grows, Gamma_q as q -> 1- (with the direct terms each q takes),
and the k-family reduction at k = 1.

Usage:
    python scripts/convergence_study.py [--t 1.5 2.5 4.0]
"""

import argparse
import sys

from gammagen.core_special import gamma, psi
from gammagen.gen_gamma import gamma_p, gamma_q, gamma_k, psi_k


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t", type=float, nargs="+", default=[1.5, 2.5])
    args = parser.parse_args(argv)

    for t in args.t:
        g = gamma(t)
        print(f"\nt = {t}   Gamma(t) = {g:.15g}")
        print(f"  {'p':>10} {'Gamma_p(t)':>20} {'|gap|':>12}")
        for p in (10, 100, 1000, 10**4, 10**6, 10**9):
            v = gamma_p(t, p)
            print(f"  {p:>10} {v:>20.15g} {abs(v - g):>12.3e}")
        print(f"  {'q':>11} {'Gamma_q(t)':>20} {'|gap|':>12} {'terms':>8}")
        for q in (0.5, 0.9, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9):
            r = gamma_q(t, q)
            print(f"  {q:>11} {r.value:>20.15g} {abs(r.value - g):>12.3e} "
                  f"{r.terms_used:>8}")
        print(f"  k-reduction: |Gamma_k(t,1) - Gamma(t)| = "
              f"{abs(gamma_k(t, 1.0) - g):.3e}, "
              f"|psi_k(t,1) - psi(t)| = {abs(psi_k(t, 1.0).value - psi(t)):.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
