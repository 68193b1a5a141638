"""Kolmogorov-Smirnov machinery and the rescaled-increment objective.

The estimator works by rescaling coarse-lag increments with a
candidate exponent and measuring how far their empirical distribution
sits from the fine-lag one; the relevant distance is the exact
two-sample Kolmogorov-Smirnov statistic.  A Gaussian closed form of
the same distance doubles as the population-level objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from hurstks.fgn import IncrementSample
from hurstks.permute import DegenerateSampleError

__all__ = [
    "EmpiricalCdf",
    "RescaledPair",
    "ks_two_sample",
    "ks_critical",
    "diameter_objective",
    "scaled_diameter_fn",
    "gaussian_diameter",
]


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous empirical distribution function of a sample."""

    sorted_values: np.ndarray
    size: int

    @classmethod
    def from_sample(cls, values: np.ndarray | Sequence[float]) -> "EmpiricalCdf":
        vals = np.sort(np.asarray(values, dtype=float))
        if vals.size == 0:
            raise ValueError("empty sample has no distribution function")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sample values must be finite")
        return cls(sorted_values=vals, size=vals.size)


@dataclass(frozen=True)
class RescaledPair:
    """Increment samples of one path at the two endpoint lags.

    ``fine`` holds lag-1 increments, ``coarse`` lag-``a_max``
    increments; ``a_max`` must exceed 1 for the rescaling to carry any
    information.
    """

    fine: IncrementSample
    coarse: IncrementSample
    a_max: int

    def __post_init__(self) -> None:
        if self.a_max <= 1:
            raise ValueError("a_max must exceed 1")
        if self.fine.lag != 1:
            raise ValueError("fine sample must have lag 1")
        if self.coarse.lag != self.a_max:
            raise ValueError("coarse sample lag must equal a_max")


def _ks_sorted(
    a: np.ndarray, b: np.ndarray, up_base: np.ndarray, dn_base: np.ndarray
) -> float:
    # The sup of |F - G| is attained at a jump of G, the ECDF of b.
    # Between two jumps of G, G - F is largest just after the left one
    # and F - G just before the right one; G - F <= 0 before the first
    # jump and F - G <= 0 after the last.  So rank the m points of b
    # into a and take G - F at right limits, (j+1)/m - #{a <= b_j}/n,
    # and F - G at left limits, #{a < b_j}/n - j/m.  Inside a run of
    # tied b values these index-based terms never exceed the true step,
    # and the run's outer ends attain it.  Each candidate is formed by
    # the same two float divisions and one subtraction as in the pooled
    # evaluation over all n + m points, and both operations are
    # monotone, so the maximum is bit-identical to the pooled one.
    # The two bases come from ``_jump_bases(m)``.
    n = a.size
    up = up_base - np.searchsorted(a, b, side="right") / n
    dn = np.searchsorted(a, b, side="left") / n - dn_base
    return float(max(up.max(), dn.max()))


# Most (row, window point) pairs one block may compare; it also bounds
# every temporary of the block.  Above ~256 KB per array, page faults
# eat what the vectorisation saves.
_BLOCK_ELEMENTS = 1 << 14

# Fewest rows a block may have: below this, a block's own rank searches
# and set-up cost more than they save, and the rows are evaluated one
# by one (at 500 x 500 the break-even lay near 8-10 rows).
_BLOCK_MIN_ROWS = 8


def _ks_block(
    a: np.ndarray, b: np.ndarray, scales: np.ndarray, up_base: np.ndarray, dn_base: np.ndarray
) -> np.ndarray:
    # _ks_sorted(a, b * s, ...) for every s in scales, bit for bit.
    # Over the block, the product b_j * s lies between b_j * min(s)
    # and b_j * max(s) (rounding is monotone), so fine points below
    # base_j rank under every product and points from top_j = base_j +
    # width_j on above it: only the window [base_j, top_j) needs
    # comparing row by row.
    # An empty window fixes both ranks at base_j for the whole block.
    # The ranks are then the same integers searchsorted returns, and
    # they go through _ks_sorted's own float expressions.
    k = scales.size
    n = a.size
    ends = b * scales.min(), b * scales.max()
    base = np.searchsorted(a, np.minimum(*ends), side="left")
    width = np.searchsorted(a, np.maximum(*ends), side="right") - base
    # Window widths grow with the block's span, so the pair count grows
    # about as k**2: split into this many pieces to fit the budget.
    pieces = max(1, math.ceil(math.sqrt(k * int(width.sum()) / _BLOCK_ELEMENTS)))
    if k < pieces * _BLOCK_MIN_ROWS:
        # Too few rows per piece to repay a block's fixed costs.
        return np.array([_ks_sorted(a, b * s, up_base, dn_base) for s in scales])
    if pieces > 1:
        return np.concatenate(
            [_ks_block(a, b, part, up_base, dn_base) for part in np.array_split(scales, pieces)]
        )
    out = np.full(k, -np.inf)
    fixed = width == 0
    if fixed.any():
        rank = base[fixed] / n
        out[:] = max((up_base[fixed] - rank).max(), (rank - dn_base[fixed]).max())
    # Widest windows first, so the columns whose window reaches offset
    # t are a prefix; count, offset by offset, the window points at or
    # below and strictly below each product.
    cols = np.flatnonzero(~fixed)
    cols = cols[np.argsort(-width[cols])]
    if cols.size:
        start = base[cols]
        prod = b[cols] * scales[:, None]
        right = np.zeros(prod.shape, dtype=np.intp)
        left = np.zeros(prod.shape, dtype=np.intp)
        reach = np.searchsorted(-width[cols], -np.arange(width[cols[0]]), side="left")
        for t, c in enumerate(reach.tolist()):
            points = a[start[:c] + t]
            right[:, :c] += points <= prod[:, :c]
            left[:, :c] += points < prod[:, :c]
        up = up_base[cols] - (start + right) / n
        dn = (start + left) / n - dn_base[cols]
        np.maximum(out, np.maximum(up.max(axis=1), dn.max(axis=1)), out=out)
    return out


def _jump_bases(m: int) -> tuple[np.ndarray, np.ndarray]:
    # G at the right and left limit of its j-th jump, j = 0 .. m-1.
    return np.arange(1, m + 1) / m, np.arange(m) / m


def ks_two_sample(first: EmpiricalCdf, second: EmpiricalCdf) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, computed exactly.

    The supremum over the real line is attained at a jump of the
    second distribution function, at its left or right limit, so only
    the points of ``second`` are ranked into ``first``.  The result is
    bit-identical to evaluating both step functions at every pooled
    point and immediately to its left.

    Parameters
    ----------
    first, second : EmpiricalCdf
        The two empirical distribution functions.

    Returns
    -------
    float
        ``sup_x |F(x) - G(x)|``, a value in ``[0, 1]``.  Symmetric in
        its arguments, to the last bit, and invariant under any
        strictly increasing transform applied to both samples.
    """
    b = second.sorted_values
    return _ks_sorted(first.sorted_values, b, *_jump_bases(b.size))


def ks_critical(n: int, m: int, alpha: float) -> float:
    """Asymptotic two-sample rejection threshold at level ``alpha``.

    Returns ``c(alpha) * sqrt((n + m) / (n * m))`` with
    ``c(alpha) = sqrt(-ln(alpha / 2) / 2)``, the Smirnov large-sample
    constant (1.3581 at the 5% level).
    """
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n + m) / (n * m))


def scaled_diameter_fn(pair: RescaledPair) -> Callable[[float], float]:
    """Build the frozen objective ``H -> KS(fine, a^{-H} * coarse)``.

    Sorting and the coarse sample's jump heights are computed once
    here; each evaluation then only rescales the coarse sample (a
    positive factor, so order is preserved) and ranks it into the fine
    sample.  Use this closure, not repeated calls to
    :func:`diameter_objective`, inside optimization loops.

    The closure's ``many(hursts)`` method returns the values at a
    sequence of exponents as an array, equal bit for bit to calling
    the closure on each.  It evaluates them in blocks, which pays off
    for a run of nearby exponents such as consecutive mesh points.
    """
    fine = np.sort(pair.fine.values)
    coarse = np.sort(pair.coarse.values)
    if fine[0] == fine[-1] or coarse[0] == coarse[-1]:
        raise DegenerateSampleError("constant increment sample")
    a_max = float(pair.a_max)
    up_base, dn_base = _jump_bases(coarse.size)

    def objective(hurst: float) -> float:
        if not 0.0 < hurst <= 1.0:
            raise ValueError("hurst must lie in (0, 1]")
        return _ks_sorted(fine, coarse * a_max ** (-hurst), up_base, dn_base)

    def many(hursts: Sequence[float]) -> np.ndarray:
        hs = [float(h) for h in hursts]
        if not all(0.0 < h <= 1.0 for h in hs):
            raise ValueError("hurst must lie in (0, 1]")
        if not hs:
            return np.empty(0)
        # The scalar path's own power: np.power may round differently.
        scales = np.array([a_max ** (-h) for h in hs])
        return _ks_block(fine, coarse, scales, up_base, dn_base)

    objective.many = many
    return objective


def diameter_objective(pair: RescaledPair, hurst: float) -> float:
    """Empirical distance between rescaled increment distributions.

    The fine sample is left at its natural scale (the unit lag raised
    to any exponent is 1) while the coarse sample is multiplied by
    ``a_max ** (-hurst)``; the value is the exact two-sample KS
    statistic between the two rescaled samples.  At the true exponent
    of a self-similar path with decorrelated increments both samples
    share one distribution and the value is small.

    Parameters
    ----------
    pair : RescaledPair
        Fine and coarse increment samples.
    hurst : float
        Candidate exponent in ``(0, 1]``.

    Returns
    -------
    float
        Value in ``[0, 1]``.

    Raises
    ------
    DegenerateSampleError
        If either sample is constant.
    """
    return scaled_diameter_fn(pair)(hurst)


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def gaussian_diameter(variance_ratio: float) -> float:
    """KS distance between centered normals with variances 1 and ``v``.

    The two distribution functions cross where the densities are
    equal, at ``x* = +/- sqrt(ln v / (1 - 1/v))``; by symmetry the
    distance is ``|Phi(x*) - Phi(x*/sqrt(v))|``.  Satisfies
    ``D(v) = D(1/v)``, vanishes only at ``v = 1``, and grows like
    ``|v - 1| / (2 sqrt(2 pi e))`` near 1.

    Parameters
    ----------
    variance_ratio : float
        Positive ratio of the two variances.

    Returns
    -------
    float
        Value in ``[0, 1)``.
    """
    v = float(variance_ratio)
    if not v > 0.0:
        raise ValueError("variance ratio must be positive")
    if v == 1.0:
        return 0.0
    x = math.sqrt(math.log(v) / (1.0 - 1.0 / v))
    return abs(_norm_cdf(x) - _norm_cdf(x / math.sqrt(v)))
