"""Scaling-exponent estimation for rough volatility series.

The package estimates the self-similarity exponent of a signal by
comparing the empirical distributions of its increments at two time
scales: increments taken at the finest lag and increments taken at a
coarse lag are rescaled by a candidate exponent, and the exponent that
makes the two distributions closest (in Kolmogorov-Smirnov distance)
is the estimate.  Supporting modules provide fractional Gaussian noise
simulation, decorrelating permutations, scalar minimizers, inference
helpers, and a windowed analysis pipeline with a CLI.
"""

from hurstks.fgn import FgnSpec, Path, IncrementSample, simulate_fbm, increments
from hurstks.permute import PermutationPlan, block_permute, uniform_sample_permute
from hurstks.ksdist import (
    EmpiricalCdf,
    RescaledPair,
    ks_two_sample,
    ks_critical,
    gaussian_diameter,
)
from hurstks.minimize import OptimizerConfig, OptimizerReport, EstimationResult, estimate_hurst
from hurstks.stats import estimator_sd, confidence_interval

__all__ = [
    "FgnSpec",
    "Path",
    "IncrementSample",
    "simulate_fbm",
    "increments",
    "PermutationPlan",
    "block_permute",
    "uniform_sample_permute",
    "EmpiricalCdf",
    "RescaledPair",
    "ks_two_sample",
    "ks_critical",
    "gaussian_diameter",
    "OptimizerConfig",
    "OptimizerReport",
    "EstimationResult",
    "estimate_hurst",
    "estimator_sd",
    "confidence_interval",
]

__version__ = "0.1.0"
