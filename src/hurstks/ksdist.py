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
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from hurstks.fgn import IncrementSample
from hurstks.permute import DegenerateSampleError
from hurstks.stats import _norm_sf

__all__ = [
    "EmpiricalCdf",
    "RescaledPair",
    "ks_two_sample",
    "ks_critical",
    "scaled_diameter_fn",
    "gaussian_diameter",
]


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous empirical distribution function of a sample."""

    sorted_values: np.ndarray

    @classmethod
    def from_sample(cls, values: np.ndarray | Sequence[float]) -> "EmpiricalCdf":
        vals = np.sort(np.asarray(values, dtype=float))
        if vals.size == 0:
            raise ValueError("empty sample has no distribution function")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sample values must be finite")
        return cls(sorted_values=vals)


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


# Most crossing events one sweep piece, counted as it expands them, or
# products one ranked piece, may hold; it also bounds every temporary of
# the piece, about a hundred bytes per event.  The package's own runs,
# the grid's and the plateau sweep's leaves of at most 16 cells, hold at
# most ~2,000 events, so it bounds only the memory of longer runs from
# outside callers, sparse runs with wide windows too, and of the ranked
# pieces of least.
_SWEEP_EVENTS = 1 << 13


class _SortedPair:
    # The KS kernel: sorted samples a (n points, the fine sample of the
    # frozen objective) and b (m points, the coarse one), and the tables
    # every statistic of a against b, or against rows of rescaled copies
    # of b, looks its quotients up in.  F at rank r is
    # frac[r] = r / n; G at the right and left limit of its j-th jump,
    # j = 0 .. m-1, is up_base[j] = (j+1) / m and dn_base[j] = j / m.
    # negative counts the points of b below zero.

    def __init__(self, a: np.ndarray, b: np.ndarray) -> None:
        self.a, self.b = a, b
        self.negative = int(b.searchsorted(0.0))
        self.frac = np.arange(a.size + 1) / a.size
        bases = np.arange(b.size + 1) / b.size
        self.up_base, self.dn_base = bases[1:], bases[:-1]

    def statistic(self, right, left, up=slice(None), dn=slice(None)):
        # The KS statistic from the ranks right = #{a <= b_j} and left =
        # #{a < b_j} of the jumps of G: the largest, over the last axis, of
        # G - F at right limits and F - G at left limits.  up and dn pick
        # the jumps that right and left rank, all of them by default.
        f_up = self.frac[right]
        f_dn = f_up if left is right else self.frac[left]
        g_up, g_dn = self.up_base[up], self.dn_base[dn]
        return np.maximum((g_up - f_up).max(axis=-1), (f_dn - g_dn).max(axis=-1))

    def ranks(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # right = #{a <= b_j} and left = #{a < b_j} for every entry of b.
        # The two differ only where some b_j equals a fine point, so the
        # "left" search runs only then (a[right - 1] with right = 0 reads
        # a[-1] > b_j, never equal).
        a = self.a
        right = a.searchsorted(b, side="right")
        left = a.searchsorted(b, side="left") if (a[right - 1] == b).any() else right
        return right, left

    def ks(self, b: np.ndarray):
        # The KS statistic of a and each row of b, m points sorted along
        # the last axis: a scalar for a 1-D b, one value per row for a
        # 2-D b.  The sup of |F - G| is attained at a jump of G, the ECDF
        # of b.  Between two jumps of G, G - F is largest just after the
        # left one and F - G just before the right one; G - F <= 0 before
        # the first jump and F - G <= 0 after the last.  So rank the m
        # points of b into a and take G - F at right limits, (j+1)/m -
        # #{a <= b_j}/n, and F - G at left limits, #{a < b_j}/n - j/m.
        # Inside a run of tied b values these index-based terms never
        # exceed the true step, and the run's outer ends attain it.  Each
        # candidate is formed from the same two quotients as in the
        # pooled evaluation over all n + m points, rank / n and j / m,
        # looked up from the tables rather than divided again, and one
        # subtraction; both operations are monotone, so the maximum is
        # bit-identical to the pooled one.
        return self.statistic(*self.ranks(b))

    def outer_ranks(self, first: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # For every product b_j * s between the end products first_j and
        # last_j (either may be the smaller, as b_j may be negative), right
        # = #{a <= the larger} >= #{a <= b_j s} and left = #{a < the
        # smaller} <= #{a < b_j s}; both are exact when first_j = last_j.
        return (
            self.a.searchsorted(np.maximum(first, last), side="right"),
            self.a.searchsorted(np.minimum(first, last), side="left"),
        )

    def kept(self, left: np.ndarray, end: np.ndarray, floor: float) -> tuple[np.ndarray, ...]:
        # Of the events [left_j, end_j) of each column j (see sweep), those
        # whose up or dn term may exceed floor: a head [left_j, head_j) and
        # a tail [tail_j, end_j), as two segments per column, column by
        # column, given by their starts and widths.  up_base_j - i/n falls
        # as i grows and (i + 1)/n - dn_base_j rises; in exact arithmetic
        # the first exceeds floor only for i < x = n (up_base_j - floor)
        # and the second only for i + 1 > y = n (dn_base_j + floor).  Each
        # float term and x and y are within a few ulps of 1, times n, of
        # the exact ones, far below a rank, so head_j = floor(x) + 2 and
        # tail_j = floor(y) - 1 keep one rank of margin.  (Truncating x to
        # an integer only raises head_j where x < 0; y is never negative.)
        n = self.a.size
        head = (n * (self.up_base - floor)).astype(np.intp) + 2
        tail = (n * (self.dn_base + floor)).astype(np.intp) - 1
        np.minimum(np.maximum(head, left, out=head), end, out=head)
        np.minimum(np.maximum(tail, head, out=tail), end, out=tail)
        starts = np.stack((left, tail), axis=1).ravel()
        return starts, np.stack((head - left, end - tail), axis=1).ravel()

    def sweep(self, scales: np.ndarray) -> np.ndarray:
        # ks(b * s) for every s in scales, which must be sorted and
        # distinct, bit for bit.
        # Rounding is monotone, so over the run b_j * s moves one way
        # between the end products: fine points below the smaller one rank
        # under every product, points above the larger one over it, and
        # only the window [left_j, right_j) of outer_ranks can change rank.
        # Ranked at those outer ranks, every column gives a term that holds
        # at every cell.  Then each window point a_i is one event: before
        # b_j * s passes it, #{a <= b_j s} <= i, so up_base_j - i/n is at
        # most the "right" term; once b_j * s is past it, #{a < b_j s} >= i
        # + 1, so (i + 1)/n - dn_base_j is at most the "left" term.  The
        # first point above the product attains the first, the last one
        # below it the second (the outer-rank terms do where the window has
        # no such point), so the statistic at a cell is the largest term in
        # force there, formed as statistic forms it: the rank's entry of
        # frac less a base, or the other way round.
        # The outer-rank statistic, floor, is thus a lower bound at every
        # cell, and out starts there.  An event whose up and dn terms are
        # both at most floor never sets a cell's maximum, whichever of
        # them is in force, and max is exact; so only the events kept,
        # those whose terms may beat floor, are expanded, and every value
        # stays bit for bit.  The budget below counts kept events, so that
        # each piece of a split run bounds its own, narrower run by its
        # own, higher floor.
        a, b, k = self.a, self.b, scales.size
        first, last = b * scales[0], b * scales[-1]
        right, left = self.outer_ranks(first, last)
        floor = float(self.statistic(right, left))
        # A product that never moves crosses no fine point.
        starts, width = self.kept(left, left + (right - left) * (first != last), floor)
        events = int(width.sum())
        if events > _SWEEP_EVENTS:
            pieces = min(math.ceil(events / _SWEEP_EVENTS), k)
            return np.concatenate([self.sweep(part) for part in np.array_split(scales, pieces)])
        out = np.full(k, floor)
        if not events:
            return out
        # Segment s holds events of column s // 2, from starts[s] on; the
        # columns stay in order, so those of b < 0 still come first.
        segs = width.nonzero()[0]
        w = width[segs]
        col = np.repeat(segs // 2, w)
        i = np.arange(events) + np.repeat(starts[segs] - (np.cumsum(w) - w), w)
        # With b_j < 0 the product falls as s grows: -(b_j s) = |b_j| s
        # exactly, so both signs ask for the first cell where |b_j| s
        # reaches target = +-a_i, "cell" with >= and "past" with >.  The
        # columns of b < 0 come first, so their events are the first down.
        down = int(width[: 2 * self.negative].sum())
        target, mult = a[i], b[col]
        np.negative(target[:down], out=target[:down])
        np.negative(mult[:down], out=mult[:down])
        # An event's window point has the sign of b_j, or is zero, so its
        # cell is about the first whose scale reaches target / mult.  The
        # window keeps that quotient within rounding of the run's largest
        # scale, or a half above it where the product is subnormal, so it
        # never overflows.  The loops then step each guess to the exact
        # cell, however far off rounding leaves it.
        cell = scales.searchsorted(target / mult)
        # fenced[c + 1] is the scale of cell c, between -inf and +inf, so
        # that the cells on either side of any c in 0 .. k read unclamped.
        fenced = np.concatenate(([-np.inf], scales, [np.inf]))
        while (behind := mult * fenced[cell] >= target).any():
            cell -= behind
        while True:
            prod = mult * fenced[cell + 1]
            if not (ahead := prod < target).any():
                break
            cell += ahead
        past = cell
        tie = prod == target
        while tie.any():
            past = past + tie
            tie = mult * fenced[past + 1] == target
        # With b_j > 0 the "right" term holds until the product reaches
        # a_i and the "left" term since it is past; with b_j < 0 it is
        # the other way round.  A term that holds before cell c stands in
        # every cell below c, one that holds from c in every cell from c on.
        up = self.up_base[col] - self.frac[i]
        dn = self.frac[i + 1] - self.dn_base[col]
        until = np.concatenate([dn[:down], up[down:]])
        since = np.concatenate([up[:down], dn[down:]])
        before, after = np.full((2, k + 1), -np.inf)
        np.maximum.at(before, cell, until)
        np.maximum.at(after, past, since)
        np.maximum(out, np.maximum.accumulate(before[::-1])[::-1][1:], out=out)
        np.maximum(out, np.maximum.accumulate(after)[:k], out=out)
        return out

    def rows(self, scales: np.ndarray) -> np.ndarray:
        # ks(b * s) for every s in scales, the rows b * s ranked in
        # pieces of at most _SWEEP_EVENTS products.
        b = self.b
        per_piece = max(1, _SWEEP_EVENTS // b.size)
        pieces = (scales[i : i + per_piece, None] * b for i in range(0, scales.size, per_piece))
        return np.concatenate([self.ks(piece) for piece in pieces])

    def least(self, scales: np.ndarray) -> np.ndarray:
        # ks(b * s) for every s in scales that may hold the least of
        # them, +inf for the others.  Each row's products are ranked at
        # the columns cols, every floor(sqrt(m))-th and the last, all rows
        # at once.  The terms at those columns are the statistic's own,
        # so their largest is a lower bound.  Between two sampled columns
        # c < c', b_j * s lies between the end products, as in
        # outer_ranks, so right_j >= right_c and left_j <= left_c'; with
        # up_base_j <= up_base_c', dn_base_j >= dn_base_c and monotone
        # float steps, every term of the block [c, c'] is at most
        # up_base_c' - right_c / n or left_c' / n - dn_base_c, an upper
        # bound.  A row that holds the least value has its lower bound at
        # most the least upper bound; only such rows are ranked in full.
        m = self.b.size
        cols = np.unique(np.r_[0 : m : math.isqrt(m), m - 1])
        right, left = self.ranks(scales[:, None] * self.b[cols])
        lower = self.statistic(right, left, cols, cols)
        upper = self.statistic(right[:, :-1], left[:, 1:], cols[1:], cols[:-1])
        keep = np.flatnonzero(lower <= upper.min())
        out = np.full(scales.size, np.inf)
        out[keep] = self.rows(scales[keep])
        return out


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
    pair = _SortedPair(first.sorted_values, second.sorted_values)
    return float(pair.ks(pair.b))


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


class _ScaledDiameter:
    # The frozen objective of scaled_diameter_fn, with the fine sample
    # as a and the coarse one as b of its kernel.

    def __init__(self, pair: _SortedPair, a_max: float) -> None:
        self._pair, self._a_max = pair, a_max

    def _scale(self, hurst: float) -> float:
        if not 0.0 < hurst <= 1.0:
            raise ValueError("hurst must lie in (0, 1]")
        return math.pow(self._a_max, -hurst)

    def __call__(self, hurst: float) -> float:
        return float(self._pair.ks(self._pair.b * self._scale(hurst)))

    def _run(self, kernel, hursts: Sequence[float]) -> np.ndarray:
        # kernel's values at the exponents' distinct scales, in
        # increasing order, returned in the exponents' order.  Scales
        # already strictly monotone, such as a mesh run's, need no
        # np.unique: the index is then a slice, backwards for falling
        # scales.
        hs = np.asarray(hursts, dtype=float)
        if not ((0.0 < hs) & (hs <= 1.0)).all():
            raise ValueError("hurst must lie in (0, 1]")
        if not hs.size:
            return np.empty(0)
        # _scale's libm power, checked once above, mapped over the run:
        # np.power may round differently.
        powers = map(math.pow, repeat(self._a_max), (-hs).tolist())
        scales = np.fromiter(powers, float, hs.size)
        where = slice(None, None, -1) if scales[0] > scales[-1] else slice(None)
        ordered = scales[where]
        if not (ordered[1:] > ordered[:-1]).all():
            ordered, where = np.unique(scales, return_inverse=True)
        return kernel(ordered)[where]

    def many(self, hursts: Sequence[float]) -> np.ndarray:
        return self._run(self._pair.sweep, hursts)

    def least(self, hursts: Sequence[float]) -> np.ndarray:
        return self._run(self._pair.least, hursts)

    def bound(self, h_first: float, h_last: float) -> float:
        # For h between h_first and h_last, the scalar path's scale
        # a_max ** -h lies between the two end scales, and rounding a
        # product is monotone in the scale, so b_j * s lies between
        # the end products and outer_ranks bounds its ranks.
        # statistic falls as right grows and rises with left, by
        # monotone float steps, so its value is at most self(h).
        b = self._pair.b
        ranks = self._pair.outer_ranks(b * self._scale(h_first), b * self._scale(h_last))
        return float(self._pair.statistic(*ranks))


def scaled_diameter_fn(pair: RescaledPair) -> Callable[[float], float]:
    """Build the frozen objective ``H -> KS(fine, a^{-H} * coarse)``.

    The fine sample is left at its natural scale (the unit lag raised
    to any exponent is 1) while the coarse sample is multiplied by
    ``a_max ** (-H)``; the value, in ``[0, 1]``, is the exact
    two-sample KS statistic between the two rescaled samples.  At the
    true exponent of a self-similar path both samples share one
    distribution and the value is small.  Both samples are sorted, so
    the order of their values never matters.  The closure accepts
    exponents in ``(0, 1]``.

    Sorting and the coarse sample's jump heights are computed once
    here; each evaluation then only rescales the coarse sample (a
    positive factor, so order is preserved) and ranks it into the fine
    sample.

    The closure's ``many(hursts)`` method returns the values at a
    sequence of exponents as an array, equal bit for bit to calling
    the closure on each.  It sweeps the exponents in order, paying
    for each time a rescaled coarse point crosses a fine one rather
    than for each (exponent, point) pair, so a run of nearby exponents
    such as consecutive mesh points costs little more than one call.
    The value at every exponent of the run is at least the run's
    floor, the statistic of the coarse points ranked at their outer
    ranks over the run, so it skips the crossings that cannot beat
    that floor.  The package's own searches hand it leaves of at most
    16 exponents, of ~100 to ~2,000 crossings, and pass over the rest
    on ``bound``.  It places each crossing it keeps by searching the
    run's scales for the quotient of the two points, then checks the
    place against the rescaled point itself.
    Its ``least(hursts)`` method returns an array like ``many``'s for
    a run of which only the least value is wanted: ``many``'s value,
    bit for bit, at every exponent that may hold the least, and
    ``+inf`` at the others, whose values lie strictly above it.  So
    the least (value, exponent) pair of the two arrays is the same.
    It ranks every ``floor(sqrt(m))``-th rescaled coarse point and
    the last at each exponent, which bounds that exponent's value
    from below and from above, and ranks in full only the exponents
    whose lower bound is at most the least upper bound.  Its
    ``bound(h_first, h_last)`` method returns, from one rank pass, a
    lower bound on the closure's value at every exponent between the
    two, equal to the value itself when they coincide.

    Raises
    ------
    DegenerateSampleError
        If either sample is constant.
    """
    fine = np.sort(pair.fine.values)
    coarse = np.sort(pair.coarse.values)
    if fine[0] == fine[-1] or coarse[0] == coarse[-1]:
        raise DegenerateSampleError("constant increment sample")
    return _ScaledDiameter(_SortedPair(fine, coarse), float(pair.a_max))


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
        Positive, finite ratio of the two variances.

    Returns
    -------
    float
        Value in ``[0, 1/2]``.
    """
    v = float(variance_ratio)
    if not 0.0 < v < math.inf:
        raise ValueError("variance ratio must be positive and finite")
    if v == 1.0:
        return 0.0
    # Below 1 the equal form v ln v / (v - 1) keeps 1/v, which
    # overflows for a subnormal v, out of the crossing point.
    x = math.sqrt(math.log(v) / (1.0 - 1.0 / v) if v > 1.0 else v * math.log(v) / (v - 1.0))
    return abs(_norm_sf(-x) - _norm_sf(-x / math.sqrt(v)))
