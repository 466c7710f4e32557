#!/usr/bin/env python3
"""Empirical brackets for the equivalence between the coefficient norm and
the shell-expansion norm, across weights.

The equivalence constants for a finite-dimensional model space are not
quantified anywhere; this samples the ratio ||f||_B^2 / ||f||_alpha^2 over
random polynomials and prints the observed bracket per weight.

Usage: python scripts/equivalence_constants.py [--degree D] [--samples N]
"""

import argparse

import numpy as np

import blaschke_lab as bl


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degree", type=int, default=96)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    B = bl.BlaschkeProduct(0.0, [0.5, -0.3 + 0.2j, 0.1])
    D = args.degree
    M = bl.wold.shell_count(B, D)  # the count every battery derives from (B, D)

    print(f"B: degree {B.degree}; D = {D}, M = {M}, {args.samples} samples\n")
    print(f"{'alpha':>6}  {'bracket low':>12}  {'bracket high':>12}  {'spread':>8}")
    for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0):
        rng = np.random.default_rng(args.seed)
        vals = []
        for _ in range(args.samples):
            deg = int(rng.integers(0, 31))
            f = bl.TaylorPoly(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
            vals.append(bl.norm_equivalence_ratio(f, B, alpha, M, D))
        lo, hi = min(vals), max(vals)
        print(f"{alpha:>6}  {lo:>12.6f}  {hi:>12.6f}  {hi / lo:>8.3f}")


if __name__ == "__main__":
    main()
