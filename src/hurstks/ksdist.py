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


# Most crossing events one sweep piece, or products one ranked piece,
# may hold; it also bounds every temporary of the piece, about a
# hundred bytes per event.  Of 2**11 .. 2**15, 2**13 was fastest on the
# full mesh at 500 x 500 and 1491 x 1491.
_SWEEP_EVENTS = 1 << 13

# How far a flat piece's ends are pulled in from the exponents its
# quotient bounds map to.  The quotient, the logarithm and the power
# each round by about an ulp of the scale, a few 1e-16 in the exponent
# for any a_max >= 2; a pull too small only makes the piece's check
# fail more often.
_PIECE_PULL = 2.0**-48


class _SortedPair:
    # The KS kernel: sorted samples a (n points, the fine sample of the
    # frozen objective) and b (m points, the coarse one), and the tables
    # every statistic of a against b, or against rows of rescaled copies
    # of b, looks its quotients up in.  F at rank r is
    # frac[r] = r / n; G at the right and left limit of its j-th jump,
    # j = 0 .. m-1, is up_base[j] = (j+1) / m and dn_base[j] = j / m.
    # padded is a between -inf and +inf, so that padded[r] and
    # padded[r + 1] are the fine points on either side of a point of
    # rank r = #{a <= point}; negative and positive slice the points of
    # b below and above zero.

    def __init__(self, a: np.ndarray, b: np.ndarray) -> None:
        self.a, self.b = a, b
        self.padded = np.r_[-np.inf, a, np.inf]
        self.negative = slice(0, int(b.searchsorted(0.0)))
        self.positive = slice(int(b.searchsorted(0.0, side="right")), b.size)
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
        a, b, k = self.a, self.b, scales.size
        first, last = b * scales[0], b * scales[-1]
        right, left = self.outer_ranks(first, last)
        # A product that never moves crosses no fine point.
        width = (right - left) * (first != last)
        events = int(width.sum())
        if events > k * b.size:
            # Windows so wide that ranking every product costs less.
            return self.rows(scales)
        if events > _SWEEP_EVENTS:
            pieces = min(math.ceil(events / _SWEEP_EVENTS), k)
            return np.concatenate([self.sweep(part) for part in np.array_split(scales, pieces)])
        out = np.full(k, float(self.statistic(right, left)))
        if not events:
            return out
        cols = np.flatnonzero(width)
        w = width[cols]
        col = np.repeat(cols, w)
        i = np.arange(events) + np.repeat(left[cols] - (np.cumsum(w) - w), w)
        ai, bj = a[i], b[col]
        # With b_j < 0 the product falls as s grows: -(b_j s) = |b_j| s
        # exactly, so both signs ask for the first cell where |b_j| s
        # reaches target = +-a_i, "cell" with >= and "past" with >.  The
        # search uses the quotient a_i / b_j, which may round the other way
        # from the product: then step each cell to the exact one.
        mult = np.abs(bj)
        target = np.where(bj < 0, -ai, ai)
        cell = np.searchsorted(scales, ai / bj, side="left")
        while (behind := (cell > 0) & (mult * scales[cell - 1] >= target)).any():
            cell -= behind
        while True:
            prod = mult * scales[np.minimum(cell, k - 1)]
            if not (ahead := (cell < k) & (prod < target)).any():
                break
            cell += ahead
        past = cell
        tie = (cell < k) & (prod == target)
        while tie.any():
            past = past + tie
            tie = (past < k) & (mult * scales[np.minimum(past, k - 1)] == target)
        # With b_j > 0 the "right" term holds before the product reaches a_i
        # and the "left" term once it is past; with b_j < 0 it is the other
        # way round.  A term that holds before cell c stands in every cell
        # below c, one that holds from c in every cell from c on.
        up = self.up_base[col] - self.frac[i]
        dn = self.frac[i + 1] - self.dn_base[col]
        rising = bj > 0
        before = np.full(k + 1, -np.inf)
        np.maximum.at(before, cell, np.where(rising, up, dn))
        after = np.full(k + 1, -np.inf)
        np.maximum.at(after, past, np.where(rising, dn, up))
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

    def __call__(self, hurst: float) -> float:
        if not 0.0 < hurst <= 1.0:
            raise ValueError("hurst must lie in (0, 1]")
        return float(self._pair.ks(self._pair.b * self._a_max ** (-hurst)))

    def _scales(self, hursts: Sequence[float]) -> tuple[list[float], np.ndarray, np.ndarray]:
        # The exponents as floats, their distinct scales in increasing
        # order, and the index of each exponent's scale.
        hs = [float(h) for h in hursts]
        if not all(0.0 < h <= 1.0 for h in hs):
            raise ValueError("hurst must lie in (0, 1]")
        # The scalar path's own power: np.power may round differently.
        scales, where = np.unique([self._a_max ** (-h) for h in hs], return_inverse=True)
        return hs, scales, where

    def many(self, hursts: Sequence[float]) -> np.ndarray:
        hs, scales, where = self._scales(hursts)
        if not hs:
            return np.empty(0)
        return self._pair.sweep(scales)[where]

    def least(self, hursts: Sequence[float]) -> tuple[float, int]:
        hs, scales, where = self._scales(hursts)
        if not hs:
            raise ValueError("no exponents to compare")
        values = self._pair.least(scales)[where].tolist()
        f, _, j = min(zip(values, hs, range(len(hs))))
        return f, j

    def bound(self, h_first: float, h_last: float) -> float:
        # For h between h_first and h_last, the scalar path's scale
        # a_max ** -h lies between the two end scales, and rounding a
        # product is monotone in the scale, so b_j * s lies between
        # the end products and outer_ranks bounds its ranks.
        # statistic falls as right grows and rises with left, by
        # monotone float steps, so its value is at most self(h).
        if not (0.0 < h_first <= 1.0 and 0.0 < h_last <= 1.0):
            raise ValueError("hurst must lie in (0, 1]")
        b, a_max = self._pair.b, self._a_max
        ranks = self._pair.outer_ranks(b * a_max ** (-h_first), b * a_max ** (-h_last))
        return float(self._pair.statistic(*ranks))

    def piece(self, hurst: float) -> tuple[float, float, float]:
        # self(hurst) and exponents lo <= hurst <= hi in (0, 1] at which,
        # and between which, the value is the same bit for bit.  A
        # nonzero coarse point b_j of rank r keeps it while b_j * s stays
        # strictly between the fine points padded[r] and padded[r + 1]:
        # for s between the two quotients of those points by b_j.  Zeros
        # never move.  The tightest scale interval, mapped to exponents
        # and pulled in by _PIECE_PULL, is then checked at its ends: if
        # every product there still lies strictly between its two fine
        # points, then, rounding being monotone in the scale as bound
        # uses, so does every product between, and no rank moves.  A
        # nonzero product that ties a fine point may move either way,
        # and a check that fails leaves only hurst itself.
        if not 0.0 < hurst <= 1.0:
            raise ValueError("hurst must lie in (0, 1]")
        pair, a_max = self._pair, self._a_max
        b, pad, neg, pos = pair.b, pair.padded, pair.negative, pair.positive
        right, left = pair.ranks(b * a_max ** (-hurst))
        value = float(pair.statistic(right, left))
        if left is not right and ((left != right) & (b != 0.0)).any():
            return value, hurst, hurst
        bn, bp, rn, rp = b[neg], b[pos], right[neg], right[pos]
        below_n, above_n, below_p, above_p = pad[rn], pad[rn + 1], pad[rp], pad[rp + 1]
        # A quotient past the float range is the infinity it rounds to.
        with np.errstate(over="ignore"):
            s_lo = max(np.max(below_p / bp, initial=0.0), np.max(above_n / bn, initial=0.0))
            s_hi = min(np.min(above_p / bp, initial=np.inf), np.min(below_n / bn, initial=np.inf))
        ln_a = math.log(a_max)
        lo = -math.log(s_hi) / ln_a + _PIECE_PULL if s_hi > 0.0 else math.inf
        hi = -math.log(s_lo) / ln_a - _PIECE_PULL if s_lo > 0.0 else math.inf
        lo = min(max(lo, math.ulp(0.0)), hurst)
        hi = max(min(hi, 1.0), hurst)
        if lo < hi:
            big, small = a_max ** (-lo), a_max ** (-hi)
            inside = (
                (below_p < bp * small).all()
                and (bp * big < above_p).all()
                and (below_n < bn * big).all()
                and (bn * small < above_n).all()
            )
            if not inside:
                return value, hurst, hurst
        return value, lo, hi


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
    Its ``least(hursts)`` method returns ``(value, index)``: the least
    value of the run and the first index of the least (value,
    exponent) pair, the pair that ``min(zip(many(hursts), hursts))``
    gives.  It ranks every ``floor(sqrt(m))``-th rescaled coarse point
    and the last at each exponent, which bounds that exponent's value
    from below and from above, and ranks in full only the exponents
    whose lower bound is at most the least upper bound; an empty run
    is a ``ValueError``.  Its ``bound(h_first, h_last)`` method
    returns, from one rank pass, a lower bound on the closure's value
    at every exponent between the two, equal to the value itself when
    they coincide.  Its ``piece(hurst)`` method returns ``(value, lo,
    hi)``: the closure's value and exponents ``lo <= hurst <= hi`` in
    ``(0, 1]`` at every one of which, and between which, the value is
    the same bit for bit.  The interval is the flat piece of the
    stepwise objective around ``hurst``, trimmed by a few ulps, or
    ``hurst`` alone where a rescaled nonzero coarse point equals a
    fine one; it costs two to three calls.

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
