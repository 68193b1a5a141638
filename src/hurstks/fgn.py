"""Fractional Gaussian noise: covariance and path simulation.

Paths of fractional Brownian motion are generated by circulant
embedding of the increment covariance (exact in distribution, FFT
cost).  The same covariance function doubles as the ground truth for
validating simulated output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Path",
    "IncrementSample",
    "FgnSpec",
    "EmbeddingError",
    "fgn_autocov",
    "embedding_eigenvalues",
    "simulate_fbm",
    "increments",
]

# Eigenvalues of the circulant embedding more negative than this abort
# the simulation; values within [-_EIG_TOL, 0) are rounding noise and
# are clipped to zero.  Applied to the unit-variance covariance row.
_EIG_TOL = 1e-8


class EmbeddingError(RuntimeError):
    """Circulant embedding produced a materially negative eigenvalue."""


@dataclass(frozen=True)
class Path:
    """A sampled self-similar path on a unit-step time grid.

    Parameters
    ----------
    values : ndarray
        Path levels, at least two points, all finite.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("path needs at least two points")
        if not np.all(np.isfinite(vals)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class IncrementSample:
    """Increments of a path at a fixed positive lag."""

    values: np.ndarray
    lag: int

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("increment sample must be non-empty")
        if not np.all(np.isfinite(vals)):
            raise ValueError("increment values must be finite")
        if self.lag < 1:
            raise ValueError("lag must be a positive integer")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class FgnSpec:
    """Simulation request for a fractional Brownian path.

    Parameters
    ----------
    hurst : float
        Self-similarity exponent, in (0, 1).
    length : int
        Number of path points returned (the path starts at zero).
    scale : float, optional
        Standard deviation of a unit-lag increment.
    seed : int, optional
        Non-negative seed for the generator; equal seeds give equal
        paths.
    """

    hurst: float
    length: int
    scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.hurst < 1.0:
            raise ValueError("hurst must lie in (0, 1)")
        if self.length < 2:
            raise ValueError("length must be at least 2")
        if not self.scale > 0.0:
            raise ValueError("scale must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def fgn_autocov(hurst: float, scale: float, lag: int) -> float:
    """Autocovariance of fractional Gaussian noise at an integer lag.

    Parameters
    ----------
    hurst : float
        Exponent in (0, 1).
    scale : float
        Standard deviation of one increment.
    lag : int
        Lag; the function is even in this argument.

    Returns
    -------
    float
        ``scale**2 / 2 * (|q+1|^{2H} - 2|q|^{2H} + |q-1|^{2H})`` with
        ``q`` the lag.  Equals ``scale**2`` at lag zero, and is
        negative for all nonzero lags when ``hurst < 1/2``.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie in (0, 1)")
    q = abs(int(lag))
    two_h = 2.0 * hurst
    return 0.5 * scale**2 * (
        (q + 1.0) ** two_h - 2.0 * q**two_h + abs(q - 1.0) ** two_h
    )


def embedding_eigenvalues(hurst: float, n_increments: int) -> tuple[np.ndarray, np.ndarray]:
    """Covariance row and eigenvalues of the circulant embedding.

    The embedding circulant has size equal to the smallest power of
    two that is at least twice ``n_increments``; its first row holds
    the unit-scale noise autocovariance folded symmetrically.
    ``hurst`` must lie in (0, 1).

    Returns
    -------
    row, eigs : ndarray
        First row of the circulant and its (real) eigenvalue vector,
        i.e. the discrete Fourier transform of the row.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie in (0, 1)")
    if n_increments < 1:
        raise ValueError("need at least one increment")
    size = 1
    while size < 2 * n_increments:
        size *= 2
    half = size // 2
    q = np.arange(half + 1, dtype=float)
    two_h = 2.0 * hurst
    cov = 0.5 * ((q + 1.0) ** two_h - 2.0 * q**two_h + np.abs(q - 1.0) ** two_h)
    row = np.concatenate([cov, cov[-2:0:-1]])
    spectrum = row.astype(complex)
    eigs = np.fft.fft(spectrum, out=spectrum).real
    return row, eigs


@lru_cache(maxsize=8)
def _embedding_weights(hurst: float, n_increments: int) -> np.ndarray:
    # sqrt(eigs / size) of the embedding, shared by every path of one
    # (hurst, n_increments), hence read-only.  A Monte Carlo run
    # simulates many paths of one shape; a raised EmbeddingError is
    # not cached.  At 2**18 increments one entry holds 4 MiB, so the
    # worst case is eight such entries, 32 MiB.
    _, eigs = embedding_eigenvalues(hurst, n_increments)
    if eigs.min() < -_EIG_TOL:
        raise EmbeddingError(
            f"embedding eigenvalue {eigs.min():.3e} below -{_EIG_TOL:.0e}"
        )
    weights = np.clip(eigs, 0.0, None)
    weights /= weights.size
    np.sqrt(weights, out=weights)
    weights.flags.writeable = False
    return weights


def simulate_fbm(spec: FgnSpec) -> Path:
    """Simulate a fractional Brownian path by circulant embedding.

    Two independent standard normal arrays are combined in the
    frequency domain; the embedding yields two independent noise
    sequences of which the first is kept.  The path is the cumulative
    sum of the noise, prefixed with a zero.  The frequency-domain
    weights depend only on the exponent and the length; they are
    computed once per pair and kept for the last eight pairs, so
    repeated shapes draw the same paths at less cost.  The weighted
    normals are formed in one complex array, which the FFT transforms
    in place: besides the normals and the path, a call holds one
    complex spectrum and the FFT's own scratch.

    Parameters
    ----------
    spec : FgnSpec
        Exponent, length, scale and seed.

    Returns
    -------
    Path
        ``spec.length`` points starting at exactly ``0.0``.

    Raises
    ------
    EmbeddingError
        If an embedding eigenvalue is negative beyond rounding
        tolerance (does not occur for this covariance family at
        power-of-two sizes; the guard protects against regressions).
    """
    n_inc = spec.length - 1
    weights = _embedding_weights(spec.hurst, n_inc)
    rng = np.random.default_rng(spec.seed)
    # Draw order is part of the reproducibility contract: first the
    # real array, then the imaginary one.
    z = rng.standard_normal((2, weights.size))
    # weights * (z[0] + 1j * z[1]) bit for bit (no weight is 0), built
    # without the product's complex temporaries.
    freq = np.empty(weights.size, dtype=complex)
    np.multiply(weights, z[0], out=freq.real)
    np.multiply(weights, z[1], out=freq.imag)
    del z
    noise = spec.scale * np.fft.fft(freq, out=freq).real[:n_inc]
    path = np.empty(spec.length)
    path[0] = 0.0
    np.cumsum(noise, out=path[1:])
    return Path(path)


def increments(path: Path, lag: int) -> IncrementSample:
    """Increments of a path at the given lag.

    Parameters
    ----------
    path : Path
        Source path of ``n`` points.
    lag : int
        Positive lag strictly smaller than ``n``.

    Returns
    -------
    IncrementSample
        The ``n - lag`` differences ``x[t + lag] - x[t]`` in time
        order.
    """
    n = len(path)
    if not 1 <= lag < n:
        raise ValueError(f"lag must be in [1, {n - 1}], got {lag}")
    vals = path.values[lag:] - path.values[:-lag]
    return IncrementSample(values=vals, lag=lag)
