"""Inference around the exponent estimator.

Large-sample standard deviation of the estimate, confidence intervals,
a chi-square test for constancy of the exponent across windows, a
z-test for comparing two series, a Monte Carlo check of the variance
ordering used to justify coarse-graining, and the lag-one scaling
constant of rescaled fractional noise.

The runtime needs numpy only: the normal quantile is a port of Cephes
``ndtri`` and the chi-square tail a closed form, which
``tests/test_stats.py`` checks against SciPy and mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "AggregateReport",
    "VarianceOrderingSpec",
    "VarianceOrderingReport",
    "estimator_sd",
    "confidence_interval",
    "chi2_constancy",
    "z_test_means",
    "aggregate_windows",
    "check_variance_ordering",
    "a_function",
    "normal_quantile",
]


@dataclass(frozen=True)
class AggregateReport:
    """Window-level estimates with their constancy test."""

    window_estimates: tuple[float, ...]
    mean_h: float
    sigma: float
    chi2_stat: float
    chi2_df: int
    chi2_p: float


# Cephes ndtri coefficients, highest power first.  P0/Q0 serve the
# centre, exp(-2) < p < 1 - exp(-2), as a series in (p - 1/2)**2;
# P1/Q1 and P2/Q2 serve the tails as series in 1/x, x = sqrt(-2 ln p),
# for x < 8 (p > exp(-32)) and x >= 8.  Each Q has an implicit
# leading 1.
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: float, coef: tuple[float, ...], monic: bool = False) -> float:
    """Horner's rule in Cephes order; ``monic`` adds a leading 1 (``p1evl``)."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def normal_quantile(p: float) -> float:
    """Standard normal quantile function.

    A port of Cephes ``ndtri`` (Moshier 1989) that keeps every
    operation in Cephes order, so it returns the same double as
    ``scipy.special.ndtri`` for every ``p`` in (0, 1);
    ``tests/test_stats.py`` compares the two with ``==``.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    y = float(p)
    lower = y <= 1.0 - _EXP_M2
    if not lower:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0, monic=True))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p_tab, q_tab = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - z * _polevl(z, p_tab) / _polevl(z, q_tab, monic=True)
    return -x if lower else x


def _norm_sf(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _chi2_sf(stat: float, df: int) -> float:
    """Upper tail of the chi-square law at integer ``df``.

    ``e^-x * sum x^j / Gamma(j+1)``, ``x = stat/2``, over ``j = df/2 - 1,
    df/2 - 2, ... >= 0``, plus ``erfc(sqrt x)`` for odd ``df``.  The terms
    are a running product that takes ``e^-x`` in exact chunks of <= 700 as
    it grows: none underflows past x ~ 745, nor errs by ~1e-12 as in logs.
    """
    x = min(stat / 2.0, df + 1500.0)  # beyond, Chernoff bounds the tail by e^-1195
    j = df % 2 / 2.0
    term, total, owed = (2.0 * math.sqrt(x / math.pi) if j else 1.0), 0.0, x
    while j < df / 2.0:
        if term > 1.0 and owed > 0.0:
            chunk = min(owed, 700.0)
            term, total, owed = term * math.exp(-chunk), total * math.exp(-chunk), owed - chunk
        total += term
        j += 1.0
        term *= x / j
    return (math.erfc(math.sqrt(x)) if df % 2 else 0.0) + total * math.exp(-owed)


def estimator_sd(a_max: int, n: int, m: int) -> float:
    """Large-sample standard deviation of the exponent estimate.

    The estimate behaves like the crossing point of two empirical
    distribution functions whose fluctuation scale is set by the
    sample sizes ``n`` and ``m`` and whose separation rate is set by
    the log of the coarse lag ``a_max``; this gives

    ``sqrt(2 pi e) / ln(a_max) * (1/sqrt(n) + 1/sqrt(m))``.

    Doubling the coarse lag's log halves the standard deviation;
    growing both samples drives it to zero.
    """
    if a_max <= 1:
        raise ValueError("a_max must exceed 1")
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be positive")
    base = math.sqrt(2.0 * math.pi * math.e) / math.log(a_max)
    return base * (1.0 / math.sqrt(n) + 1.0 / math.sqrt(m))


def confidence_interval(
    h_hat: float, a_max: int, n: int, m: int, alpha: float = 0.05
) -> tuple[float, float]:
    """Two-sided normal confidence interval for the exponent.

    The raw interval ``h_hat +/- z_{1-alpha/2} * sd`` is intersected
    with ``(0, 1]``, the admissible exponent range.

    Parameters
    ----------
    h_hat : float
        Point estimate.
    a_max, n, m : int
        Coarse lag and sample sizes for :func:`estimator_sd`.
    alpha : float
        Level in (0, 1), above about 1.1e-16 so that ``1 - alpha/2``
        rounds below 1.

    Returns
    -------
    (float, float)
        Lower and upper endpoint, lower <= upper.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if 1.0 - alpha / 2.0 == 1.0:
        raise ValueError(f"alpha {alpha!r} is too small: 1 - alpha/2 rounds to 1")
    half = normal_quantile(1.0 - alpha / 2.0) * estimator_sd(a_max, n, m)
    return (max(h_hat - half, 0.0), min(h_hat + half, 1.0))


def chi2_constancy(estimates: Sequence[float], sigma: float) -> tuple[float, int, float]:
    """Chi-square test that window estimates share one mean.

    Parameters
    ----------
    estimates : sequence of float
        Per-window exponent estimates, at least two.
    sigma : float
        Common standard deviation of one window estimate.

    Returns
    -------
    (stat, df, p)
        ``stat`` is the sum of squared standardized deviations from
        the window mean, ``df = len(estimates) - 1``, and ``p`` the
        upper-tail probability.  Invariant under shifting all
        estimates; scaling deviations and ``sigma`` together leaves
        the statistic unchanged.
    """
    est = np.asarray(estimates, dtype=float)
    if est.size < 2:
        raise ValueError("need at least two estimates")
    if not (np.isfinite(est).all() and 0.0 < sigma < math.inf):
        raise ValueError("estimates must be finite and sigma positive and finite")
    dev = (est - est.mean()) / sigma
    stat = float(dev @ dev)
    df = est.size - 1
    return stat, df, _chi2_sf(stat, df)


def z_test_means(mean_a: float, mean_b: float, sigma: float) -> tuple[float, float]:
    """One-sided comparison of two mean exponents.

    Both means are treated as carrying the same standard deviation
    ``sigma``, so their difference has standard deviation
    ``sigma * sqrt(2)``.

    Returns
    -------
    (z, p)
        ``z = (mean_a - mean_b) / (sigma * sqrt(2))`` and the
        upper-tail probability ``P(Z > z)``; a large positive ``z``
        (small ``p``) indicates the first mean is larger than
        sampling noise allows.
    """
    if not (math.isfinite(mean_a) and math.isfinite(mean_b) and 0.0 < sigma < math.inf):
        raise ValueError("means must be finite and sigma positive and finite")
    z = (mean_a - mean_b) / (sigma * math.sqrt(2.0))
    return z, _norm_sf(z)


def aggregate_windows(estimates: Sequence[float], sigma: float) -> AggregateReport:
    """Bundle window estimates with their mean and constancy test."""
    est = tuple(float(h) for h in estimates)
    stat, df, p = chi2_constancy(est, sigma)
    return AggregateReport(
        window_estimates=est,
        mean_h=float(np.mean(est)),
        sigma=sigma,
        chi2_stat=stat,
        chi2_df=df,
        chi2_p=p,
    )


@dataclass(frozen=True)
class VarianceOrderingSpec:
    """Monte Carlo design for the coarse-graining variance check.

    The positive process is ``X = exp(G) * E`` with ``G`` standard
    normal and ``E`` an independent unit-mean lognormal noise of
    log-scale ``noise_sigma`` (``noise_sigma = 0`` makes ``E`` the
    constant 1).  ``V`` is the conditional mean of ``X`` on a
    partition of the range of ``G`` into ``n_partition`` equal-rank
    cells; ``n_partition >= n_outer`` degenerates to the level sets
    of ``G``, where ``V = X`` whenever ``E`` is constant.
    """

    n_outer: int = 100_000
    n_partition: int = 16
    noise_sigma: float = 0.5
    seed: int = 0
    n_batches: int = 100

    def __post_init__(self) -> None:
        if self.n_outer < 100:
            raise ValueError("n_outer must be at least 100")
        if self.n_partition < 1:
            raise ValueError("n_partition must be positive")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be nonnegative")
        if not 2 <= self.n_batches <= self.n_outer:
            raise ValueError("n_batches must lie in [2, n_outer]")


@dataclass(frozen=True)
class VarianceOrderingReport:
    """Sample variances of the process and its coarse-graining.

    ``gap`` fields are ``Var(X) - Var(V)`` and
    ``Var(sqrt(X)) - Var(sqrt(V))``; the standard errors come from
    batch means, so ``gap >= -3 * gap_se`` is the Monte Carlo version
    of the ordering ``Var(X) >= Var(V)``.
    """

    var_x: float
    var_v: float
    var_sqrt_x: float
    var_sqrt_v: float
    gap: float
    gap_se: float
    sqrt_gap: float
    sqrt_gap_se: float


def check_variance_ordering(spec: VarianceOrderingSpec) -> VarianceOrderingReport:
    """Estimate both variance orderings by Monte Carlo.

    Returns
    -------
    VarianceOrderingReport
        Conditioning on a coarser sigma-algebra can only remove
        variance, so both gaps should be nonnegative up to Monte
        Carlo error, with exact equality when ``X`` is measurable
        with respect to the partition.
    """
    rng = np.random.default_rng(spec.seed)
    g = rng.standard_normal(spec.n_outer)
    # noise_sigma = 0 makes every noise factor exp(0) = 1 exactly.
    noise = np.exp(
        spec.noise_sigma * rng.standard_normal(spec.n_outer) - 0.5 * spec.noise_sigma**2
    )
    x = np.exp(g) * noise

    order = np.argsort(g, kind="stable")
    cell_of = np.empty(spec.n_outer, dtype=np.intp)
    cell_of[order] = np.arange(spec.n_outer, dtype=np.int64) * spec.n_partition // spec.n_outer
    sums = np.bincount(cell_of, weights=x)
    counts = np.bincount(cell_of)
    # Only occupied cells are divided: with more cells than draws, some
    # are empty, and a draw alone in its cell keeps v = x exactly.
    v = sums[cell_of] / counts[cell_of]

    sx = np.sqrt(x)
    sv = np.sqrt(v)

    def batch_gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        blocks_a = np.array_split(a, spec.n_batches)
        blocks_b = np.array_split(b, spec.n_batches)
        return np.array([pa.var() - pb.var() for pa, pb in zip(blocks_a, blocks_b)])

    gaps = batch_gaps(x, v)
    sgaps = batch_gaps(sx, sv)
    return VarianceOrderingReport(
        var_x=float(x.var()),
        var_v=float(v.var()),
        var_sqrt_x=float(sx.var()),
        var_sqrt_v=float(sv.var()),
        gap=float(x.var() - v.var()),
        gap_se=float(gaps.std(ddof=1) / math.sqrt(spec.n_batches)),
        sqrt_gap=float(sx.var() - sv.var()),
        sqrt_gap_se=float(sgaps.std(ddof=1) / math.sqrt(spec.n_batches)),
    )


def a_function(hurst):
    """Lag-one scaling constant of rescaled fractional noise.

    ``Gamma(H + 1/2)**2 / (2 H sin(pi H) Gamma(2 H))`` for ``H`` in
    (0, 1).  Equals 1 at ``H = 1/2`` and has a single interior
    minimum near 0.673; it diverges at both endpoints.

    Parameters
    ----------
    hurst : float or ndarray
        Exponent(s) strictly inside (0, 1).

    Returns
    -------
    float or ndarray
    """
    h = np.asarray(hurst, dtype=float)
    if np.any(h <= 0.0) or np.any(h >= 1.0):
        raise ValueError("hurst must lie strictly inside (0, 1)")
    gamma = np.vectorize(math.gamma, otypes=[float])
    out = gamma(h + 0.5) ** 2 / (2.0 * h * np.sin(np.pi * h) * gamma(2.0 * h))
    return float(out) if np.isscalar(hurst) else out
