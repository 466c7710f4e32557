#!/usr/bin/env python3
"""Per-layer timings against the window D: the shell counts
wold.shell_count and wold.power_count, the model basis, x_spaces, the
shell cells (wold.cell_matrix), analyze plus synthesize of one function of
degree D//4 and norm_equivalence_ratio of the same function at the derived
shell count M = wold.shell_count(B, D), warm and as the first call at its
key, which builds the ratio's Gram form; at that M, build
(the cell images alone), commutation_residual of the built element (its
safe rows formed from the factors) and the dense realization Z E^H, formed
only on request; the safe-block norm spaces.operator_norm_safe of D//2 + 1
rows on the dense realization (an SVD), on the rank-one section u u^H with u
the first model-space basis vector (certified without an SVD) and on an
exactly zero section, and the Mobius-power projection of class 0 for b_a^N,
a = 0.5, N = 2, its reducing_residual against b_a^N, and the same residual
read from the section commutators shared by its classes,
mobius_power_reducing_residual (all three the same for every product), and
the sections C_r of b_0.8^2 that the mobius-d256 workload reads,
reducing._mobius_frame(0.8, 2, D), built anew on every call.

Each layer is called once untimed, to warm the memos a battery shares (the
shell frame of (B, D), T_B), then --repeats times under a timer; the medians
are written to a JSON file and printed as a table. The two shell counts are
not memoized, so every call searches anew. Four layers are timed
cold: cell_matrix builds the cells of shells 0..M anew, outside the frame
memo; the model basis is built by the function under the (B, D) memo
(blaschke._model_basis.__wrapped__);
mobius_power_reducing_residual computes the residuals of every class of
(a, N, D, B) through reducing._mobius_commutators.__wrapped__, outside the
memo that holds them; and the first ratio call runs with the Gram-form memo
(wold._FORMS) cleared, untimed, before each call, the frame staying warm.
The Mobius-power projection builds its sections on every call.
BLAS is pinned to one thread before numpy loads.

Usage: python scripts/layer_timings.py [--degrees 64 128 256 512]
                                       [--repeats R] [--out BENCH_layers.json]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import time

import numpy as np

import blaschke_lab as bl
from blaschke_lab import blaschke, reducing, spaces, wold

#: a mild product and one with both zeros near rho_max = 0.8, where the
#: derived shell count is largest
PRODUCTS = {"B2": [0.5, -0.3], "(0.8, -0.79i)": [0.8, -0.79j]}
ALPHA, KMAX, SYMBOL_DEGREE = -1.0, 3, 4
#: the zero and power of the Mobius-power projection
MOBIUS_A, MOBIUS_N = 0.5, 2
#: the zero of the timed Mobius-power sections, that of the mobius-d256 benchmark workload
SECTIONS_A = 0.8


def median_s(fn, repeats: int, reset=None) -> float:
    fn()
    times = []
    for _ in range(repeats):
        if reset is not None:
            reset()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def random_poly(rng: np.random.Generator, degree: int) -> bl.TaylorPoly:
    return bl.TaylorPoly(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))


def cold_mobius_s(fn, repeats: int) -> float:
    """Median seconds of fn with the residuals of every Mobius-power class
    computed on every call, outside their memo."""
    memo = reducing._mobius_commutators
    reducing._mobius_commutators = memo.__wrapped__
    try:
        return median_s(fn, repeats)
    finally:
        reducing._mobius_commutators = memo


def time_layers(B: bl.BlaschkeProduct, D: int, repeats: int, rng: np.random.Generator) -> dict:
    M = wold.shell_count(B, D)
    phi = bl.MultiplierMatrix.from_polys(
        [[random_poly(rng, SYMBOL_DEGREE) for _ in range(B.degree)] for _ in range(B.degree)]
    )
    f = random_poly(rng, D // 4)
    op = bl.build(phi, B, ALPHA, M, D)
    basis, W, D_safe = bl.model_basis(B, D), op.realization.entries, bl.safe_degree(D)
    u = basis.U[:, 0]
    rank_one, zero = np.outer(u, u.conj()), np.zeros_like(W)
    B_mobius = bl.BlaschkeProduct(0.0, [(MOBIUS_A, MOBIUS_N)])
    P = bl.mobius_power_reducing_projection(MOBIUS_A, MOBIUS_N, 0, D)
    return {
        "D": D,
        "M": M,
        "shell_count_s": median_s(lambda: wold.shell_count(B, D), repeats),
        "power_count_s": median_s(lambda: wold.power_count(B, D), repeats),
        "model_basis_s": median_s(lambda: blaschke._model_basis.__wrapped__(B, D), repeats),
        "x_spaces_s": median_s(lambda: bl.x_spaces(B, ALPHA, KMAX, D), repeats),
        "cell_matrix_s": median_s(lambda: wold.cell_matrix(basis, B, M, D), repeats),
        "analyze_synthesize_s": median_s(lambda: bl.synthesize(bl.analyze(f, B, M, D)), repeats),
        "norm_equivalence_ratio_s": median_s(lambda: bl.norm_equivalence_ratio(f, B, ALPHA, M, D), repeats),
        "norm_equivalence_ratio_first_s": median_s(
            lambda: bl.norm_equivalence_ratio(f, B, ALPHA, M, D), repeats, reset=wold._FORMS.clear
        ),
        "build_s": median_s(lambda: bl.build(phi, B, ALPHA, M, D), repeats),
        "commutation_residual_s": median_s(lambda: bl.commutation_residual(op, B), repeats),
        "realization_s": median_s(lambda: bl.CommutantOperator.realization.func(op), repeats),
        "operator_norm_safe_s": median_s(lambda: spaces.operator_norm_safe(W, ALPHA, D_safe), repeats),
        "operator_norm_safe_rank_one_s": median_s(lambda: spaces.operator_norm_safe(rank_one, ALPHA, D_safe), repeats),
        "operator_norm_safe_zero_s": median_s(lambda: spaces.operator_norm_safe(zero, ALPHA, D_safe), repeats),
        "mobius_projection_s": median_s(lambda: bl.mobius_power_reducing_projection(MOBIUS_A, MOBIUS_N, 0, D), repeats),
        "reducing_residual_s": median_s(lambda: bl.reducing_residual(P, B_mobius), repeats),
        "mobius_residual_s": cold_mobius_s(
            lambda: bl.mobius_power_reducing_residual(MOBIUS_A, MOBIUS_N, 0, D, B_mobius), repeats
        ),
        "mobius_sections_s": median_s(lambda: reducing._mobius_frame(SECTIONS_A, MOBIUS_N, D), repeats),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--degrees", type=int, nargs="+", default=[64, 128, 256, 512])
    ap.add_argument("--repeats", type=int, default=15)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="BENCH_layers.json")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")

    rng = np.random.default_rng(args.seed)
    rows = []
    columns = {
        "shells": "shell_count_s",
        "powers": "power_count_s",
        "basis": "model_basis_s",
        "x_spaces": "x_spaces_s",
        "cells": "cell_matrix_s",
        "ana+syn": "analyze_synthesize_s",
        "ratio": "norm_equivalence_ratio_s",
        "ratio first": "norm_equivalence_ratio_first_s",
        "build": "build_s",
        "residual": "commutation_residual_s",
        "dense": "realization_s",
        "norm": "operator_norm_safe_s",
        "rank-1 norm": "operator_norm_safe_rank_one_s",
        "zero norm": "operator_norm_safe_zero_s",
        "mobius": "mobius_projection_s",
        "reducing": "reducing_residual_s",
        "mobius residual": "mobius_residual_s",
        "mobius sections": "mobius_sections_s",
    }
    print(f"{'product':>14} {'D':>4} {'M':>5} " + " ".join(f"{c + ' ms':>12}" for c in columns))
    for name, zeros in PRODUCTS.items():
        B = bl.BlaschkeProduct(0.0, zeros)
        for D in args.degrees:
            row = {"product": name, **time_layers(B, D, args.repeats, rng)}
            rows.append(row)
            print(f"{name:>14} {D:>4} {row['M']:>5} " + " ".join(f"{row[k] * 1e3:>12.3f}" for k in columns.values()))

    result = {
        "statistic": f"median of {args.repeats} warm calls, seconds",
        "blas_threads": 1,
        "machine": {
            "cpus": os.cpu_count(),
            "arch": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "alpha": ALPHA,
        "kmax": KMAX,
        "symbol_degree": SYMBOL_DEGREE,
        "mobius": {"a": MOBIUS_A, "N": MOBIUS_N, "sections_a": SECTIONS_A},
        "seed": args.seed,
        "products": {name: [[complex(a).real, complex(a).imag] for a in zeros] for name, zeros in PRODUCTS.items()},
        "rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"written to {args.out}")


if __name__ == "__main__":
    main()
