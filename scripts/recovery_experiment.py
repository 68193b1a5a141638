#!/usr/bin/env python3
"""Exponent recovery on simulated paths across the (0, 1) range.

For each true exponent, simulates independent paths, estimates the
exponent from decorrelated increment subsamples, and prints the bias,
the empirical spread against the closed-form dispersion bound, and the
fraction of runs where the fitted model clears the 5% distance test.

Example
-------
    python scripts/recovery_experiment.py --h-list 0.2,0.5,0.8 --reps 100
"""

import argparse
import sys

import numpy as np

from hurstks.fgn import FgnSpec, increments, simulate_fbm
from hurstks.ksdist import RescaledPair
from hurstks.minimize import OptimizerConfig, estimate_hurst
from hurstks.permute import PermutationPlan
from hurstks.stats import VarianceInputs, estimator_sd


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--h-list", default="0.2,0.4,0.6,0.8")
    p.add_argument("--reps", type=int, default=100, help="paths per exponent")
    p.add_argument("--length", type=int, default=4097, help="path length")
    p.add_argument("--amax", type=int, default=50, help="coarse increment lag")
    p.add_argument("--subseq", type=int, default=500, help="subsample size per side")
    p.add_argument("--optimizer", default="brent")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    args = p.parse_args(argv)
    if args.reps < 2:
        p.error("--reps must be at least 2: the spread needs two paths per exponent")
    return args


def main(argv=None):
    args = parse_args(argv)
    h_values = [float(tok) for tok in args.h_list.split(",") if tok.strip()]
    config = OptimizerConfig(method=args.optimizer)
    predicted = estimator_sd(
        VarianceInputs(a_max=args.amax, n=args.subseq, m=args.subseq)
    )

    print(
        f"{args.reps} paths per exponent, N={args.length - 1} increments, "
        f"a_max={args.amax}, T={args.subseq}, optimizer={args.optimizer}"
    )
    print(f"predicted dispersion bound: {predicted:.4f}")
    print(f"{'H_true':>7}{'mean':>9}{'bias':>9}{'sd':>8}{'sd/pred':>9}{'fits 5%':>9}")
    for hi, h0 in enumerate(h_values):
        seeds = np.random.SeedSequence(args.seed, spawn_key=(hi,)).generate_state(
            2 * args.reps
        )
        hats, fits = [], 0
        for i in range(args.reps):
            path = simulate_fbm(
                FgnSpec(hurst=h0, length=args.length, seed=int(seeds[2 * i]))
            )
            pair = RescaledPair(
                fine=increments(path, 1),
                coarse=increments(path, args.amax),
                a_max=args.amax,
            )
            plan = PermutationPlan(
                scheme="uniform_sample",
                subsample_size=args.subseq,
                seed=int(seeds[2 * i + 1]),
            )
            result = estimate_hurst(pair, plan, config)
            hats.append(result.h_hat)
            fits += int(result.significant)
        hats = np.asarray(hats)
        sd = float(hats.std(ddof=1))
        print(
            f"{h0:>7.2f}{hats.mean():>9.4f}{hats.mean() - h0:>+9.4f}"
            f"{sd:>8.4f}{sd / predicted:>9.3f}{fits:>6}/{args.reps}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
