#!/usr/bin/env python3
"""Round-trip residual as a function of the shell count M.

No convergence rate is asserted anywhere in the library for general
products; this script reports the measured residual curve so the decay can
be judged empirically for a given configuration. The sweep ends at the shell
count the library derives from (B, D), wold.shell_count, marked in the table.

Usage: python scripts/residual_vs_shells.py [--degree D] [--fdeg N] [--seed S]
"""

import argparse

import numpy as np

import blaschke_lab as bl


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degree", type=int, default=96)
    ap.add_argument("--fdeg", type=int, default=20, help="degree of the sample polynomials")
    ap.add_argument("--samples", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    B = bl.BlaschkeProduct(0.0, [0.5, -0.3 + 0.2j, 0.1])
    D = args.degree
    rng = np.random.default_rng(args.seed)
    polys = [
        bl.TaylorPoly(rng.standard_normal(args.fdeg + 1) + 1j * rng.standard_normal(args.fdeg + 1))
        for _ in range(args.samples)
    ]
    half = bl.safe_degree(D)

    print(f"B: degree {B.degree}, zeros {[z for z, _ in B.zeros]}")
    print(f"D = {D}, {args.samples} random polynomials of degree {args.fdeg}\n")
    print(f"{'M':>4}  {'max residual (H2, deg <= ' + str(half) + ')':>34}  {'max residual (alpha = -1)':>26}")
    derived = bl.wold.shell_count(B, D)
    for M in sorted({*range(2, derived, 2), derived}):
        worst0 = worst1 = 0.0
        for f in polys:
            g = bl.synthesize(bl.analyze(f, B, M, D), D)
            diff = bl.TaylorPoly((g - f.pad(D)).coeffs[: half + 1])
            worst0 = max(worst0, bl.weighted_norm(diff, 0.0))
            worst1 = max(worst1, bl.weighted_norm(diff, -1.0))
        mark = "  <- shell_count(B, D)" if M == derived else ""
        print(f"{M:>4}  {worst0:>34.3e}  {worst1:>26.3e}{mark}")


if __name__ == "__main__":
    main()
