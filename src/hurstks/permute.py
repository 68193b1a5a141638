"""Decorrelating permutations of increment samples.

Estimation compares the increments' empirical distributions, which
sort each sample, so the order of the values reaches no KS value: a
permutation of a whole sample leaves the estimate as it is, and only
the choice of subsample changes it.  Two schemes are provided: a block
permutation with a random phase (shuffles positions inside consecutive
blocks), a tool for the autocorrelation diagnostic, and a plain
uniform subsample without replacement in random order.  Both preserve
the marginal distribution of the values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hurstks.fgn import IncrementSample

__all__ = [
    "PermutationPlan",
    "DegenerateSampleError",
    "block_indices",
    "block_permute",
    "uniform_sample_permute",
    "sample_acf",
]

SCHEMES = ("block", "uniform_sample")


class DegenerateSampleError(ValueError):
    """Sample is constant, so normalized statistics are undefined."""


@dataclass(frozen=True)
class PermutationPlan:
    """How to decorrelate a sample before distribution comparison.

    Parameters
    ----------
    scheme : str, optional
        Either ``"block"`` or ``"uniform_sample"`` (the default).
    block_length : int, optional
        Block size for the block scheme.
    subsample_size : int, optional
        Output size for the uniform scheme; defaults to the full
        sample.
    seed : int, optional
        Non-negative master seed; every draw the plan makes derives
        from it.
    """

    scheme: str = "uniform_sample"
    block_length: int = 128
    subsample_size: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.block_length < 1:
            raise ValueError("block_length must be positive")
        if self.subsample_size is not None and self.subsample_size < 1:
            raise ValueError("subsample_size must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def block_indices(n: int, block_length: int, perm: np.ndarray, phase: int) -> np.ndarray:
    """Source index for each output position of a block permutation.

    Output position ``l`` with block decomposition ``l = k*L + s``
    reads input position ``(k*L + perm[s] + phase) mod n``.  In a final
    partial block of ``r = n mod L`` positions, ``perm[s]`` is replaced
    by the ``s``-th entry of ``perm`` below ``r``, so the indices are a
    permutation of ``range(n)`` for every ``n``.  Exposed separately so
    the mapping can be exercised with a fixed permutation and phase.
    """
    if block_length > n:
        raise ValueError("block_length exceeds sample size")
    perm = np.asarray(perm, dtype=np.intp)
    if perm.size != block_length or np.any(np.sort(perm) != np.arange(block_length)):
        raise ValueError("perm must be a permutation of range(block_length)")
    l = np.arange(n, dtype=np.intp)
    offset = perm[l % block_length]
    tail = n % block_length
    if tail:
        offset[n - tail :] = perm[perm < tail]
    return (l - l % block_length + offset + phase) % n


def block_permute(sample: IncrementSample, plan: PermutationPlan) -> IncrementSample:
    """Permute a sample inside consecutive blocks with a random phase.

    One uniform permutation of ``{0, ..., L-1}`` is drawn per call and
    applied inside every length-``L`` block, after a circular shift by
    a phase drawn uniformly from the same range; a final partial block
    is shuffled by the same permutation restricted to its length.  The
    output is a rearrangement of the input values.

    Parameters
    ----------
    sample : IncrementSample
        Input values in time order.
    plan : PermutationPlan
        Supplies ``block_length`` and the seed.

    Returns
    -------
    IncrementSample
        Same length and lag as the input.
    """
    rng = np.random.default_rng(plan.seed)
    perm = rng.permutation(plan.block_length)
    phase = int(rng.integers(plan.block_length))
    idx = block_indices(len(sample), plan.block_length, perm, phase)
    return IncrementSample(values=sample.values[idx], lag=sample.lag)


def uniform_sample_permute(sample: IncrementSample, plan: PermutationPlan) -> IncrementSample:
    """Draw values without replacement, in uniform random order.

    Parameters
    ----------
    sample : IncrementSample
        Input values.
    plan : PermutationPlan
        ``subsample_size`` values are kept (all of them when the field
        is None); the seed fixes the draw.

    Returns
    -------
    IncrementSample
        Subsample whose multiset is contained in the input's; with
        ``subsample_size == len(sample)`` this is a uniform random
        permutation of the input.
    """
    n = len(sample)
    size = n if plan.subsample_size is None else plan.subsample_size
    if size > n:
        raise ValueError(f"subsample_size {size} exceeds sample size {n}")
    rng = np.random.default_rng(plan.seed)
    idx = rng.permutation(n)[:size]
    return IncrementSample(values=sample.values[idx], lag=sample.lag)


def sample_acf(sample: IncrementSample, max_lag: int) -> np.ndarray:
    """Sample autocorrelation at lags ``1..max_lag``.

    Uses the biased normalization (denominator ``n``), which keeps the
    sequence a valid autocorrelation.

    Parameters
    ----------
    sample : IncrementSample
        At least ``max_lag + 1`` values.
    max_lag : int
        Largest lag to report.

    Returns
    -------
    ndarray
        ``max_lag`` correlations, each in ``[-1, 1]``.

    Raises
    ------
    DegenerateSampleError
        If the sample variance is zero.
    """
    x = sample.values
    n = x.size
    if not 1 <= max_lag < n:
        raise ValueError(f"max_lag must be in [1, {n - 1}]")
    centered = x - x.mean()
    denom = float(centered @ centered)
    if denom == 0.0:
        raise DegenerateSampleError("constant sample has no autocorrelation")
    out = np.empty(max_lag)
    for q in range(1, max_lag + 1):
        out[q - 1] = float(centered[:-q] @ centered[q:]) / denom
    return out
