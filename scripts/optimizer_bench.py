#!/usr/bin/env python3
"""Compare scalar minimizers against exhaustive grid search.

Runs every requested method on the same frozen per-cell objectives
(one simulated path per (exponent, repetition) cell), writes the raw
rows to CSV, and prints an agreement table: how often each method
lands within a tolerance of the grid argmin, and at what evaluation
cost.

Example
-------
    python scripts/optimizer_bench.py --reps 25 --seed 901 --out bench.csv
"""

import argparse
import math
import sys
from collections import defaultdict

from hurstks.minimize import OptimizerConfig, bench_optimizers, write_bench_csv


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--h-list", default="0.2,0.4,0.6,0.8",
                   help="comma-separated true exponents")
    p.add_argument("--reps", type=int, default=25, help="repetitions per exponent")
    p.add_argument("--methods", default="grid,brent,nelder_mead,simulated_annealing")
    p.add_argument("--length", type=int, default=4097, help="simulated path length")
    p.add_argument("--amax", type=int, default=50, help="coarse increment lag")
    p.add_argument("--subseq", type=int, default=500, help="subsample size per side")
    p.add_argument("--tolerance", type=float, default=2e-3,
                   help="|h - h_grid| agreement tolerance")
    p.add_argument("--seed", type=int, default=901, help="master seed")
    p.add_argument("--out", default="bench.csv", help="raw rows go here")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    h_values = [float(tok) for tok in args.h_list.split(",") if tok.strip()]
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    if "grid" not in methods:
        methods.insert(0, "grid")
    configs = [OptimizerConfig(method=m) for m in methods]

    with open(args.out, "w", newline="") as fh:
        rows = bench_optimizers(
            h_values, args.reps, configs,
            length=args.length, a_max=args.amax, subsample=args.subseq,
            base_seed=args.seed,
        )
        write_bench_csv(rows, fh)

    cells = defaultdict(dict)
    for r in rows:
        cells[(r.h_true, r.rep)][r.method] = r
    total = len(cells)
    print(f"{total} cells x {len(methods)} methods -> {args.out}")
    print(f"{'method':<22}{'agree':>8}{'mean evals':>12}{'max evals':>11}{'mean s':>11}")
    left_out = 0
    for method in methods:
        if method == "grid":
            continue
        # A cell counts only when both the method and the grid ran to
        # convergence: a truncated run is not an estimate to compare.
        kept = [
            (cell["grid"], cell[method]) for cell in cells.values()
            if cell["grid"].converged and cell[method].converged
        ]
        left_out += total - len(kept)
        used = len(kept) or math.nan
        agree = sum(int(abs(me.h_hat - gr.h_hat) <= args.tolerance) for gr, me in kept)
        evals = [me.evaluations for _, me in kept]
        time_s = sum(me.wall_time_s for _, me in kept)
        print(
            f"{method:<22}{agree:>5}/{len(kept):<4}{sum(evals) / used:>10.0f}"
            f"{max(evals, default=0):>11}{time_s / used:>11.4f}"
        )
    print(f"(grid reference: 10^4 evaluations per cell, step 1e-4)")
    print(f"left out {left_out} method cells that failed or did not converge (or whose grid did not)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
