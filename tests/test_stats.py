"""Tests for the dispersion model, window aggregation, and the
conditional-variance ordering check."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurstks.stats import (
    _chi2_sf,
    AggregateReport,
    VarianceOrderingReport,
    VarianceOrderingSpec,
    a_function,
    aggregate_windows,
    check_variance_ordering,
    chi2_constancy,
    confidence_interval,
    estimator_sd,
    normal_quantile,
    z_test_means,
)

REF = (21, 1491, 1491)


class TestVarianceInputs:
    """The sizes a_max, n, m that estimator_sd and confidence_interval take."""

    @pytest.mark.parametrize("kwargs", [
        {"a_max": 1, "n": 5, "m": 5},
        {"a_max": 21, "n": 0, "m": 5},
        {"a_max": 21, "n": 5, "m": 0},
    ])
    def test_validation(self, kwargs):
        message = "a_max must exceed 1" if kwargs["a_max"] <= 1 else "sample sizes must be positive"
        with pytest.raises(ValueError, match=message):
            estimator_sd(**kwargs)
        with pytest.raises(ValueError, match=message):
            confidence_interval(0.5, **kwargs)


class TestEstimatorSd:
    def test_frozen_reference_case(self):
        assert estimator_sd(*REF) == pytest.approx(0.07030871651625799, abs=1e-15)

    def test_half_width_reference_case(self):
        half = 1.96 * estimator_sd(*REF)
        assert half == pytest.approx(0.13780508437186564, abs=1e-15)
        assert half == pytest.approx(0.1378, abs=5e-4)
        exact = normal_quantile(0.975) * estimator_sd(*REF)
        assert exact == pytest.approx(half, abs=5e-6)

    def test_frozen_subsample_case(self):
        got = estimator_sd(50, 500, 500)
        assert got == pytest.approx(0.09448889464852495, abs=1e-15)

    def test_closed_form(self):
        got = estimator_sd(10, 100, 400)
        want = math.sqrt(2.0 * math.pi * math.e) / math.log(10.0) * (0.1 + 0.05)
        assert got == pytest.approx(want, rel=1e-14)

    @given(
        a_max=st.integers(2, 300),
        n=st.integers(1, 10_000),
        m=st.integers(1, 10_000),
        bump=st.integers(1, 500),
    )
    @settings(max_examples=100)
    def test_monotone_in_each_argument(self, a_max, n, m, bump):
        base = estimator_sd(a_max, n, m)
        assert estimator_sd(a_max + bump, n, m) < base
        assert estimator_sd(a_max, n + bump, m) < base
        assert estimator_sd(a_max, n, m + bump) < base


class TestConfidenceInterval:
    def test_reference_interval(self):
        lo, hi = confidence_interval(0.4039, *REF)
        assert lo == pytest.approx(0.2661, abs=5e-4)
        assert hi == pytest.approx(0.5417, abs=5e-4)

    def test_clamped_to_admissible_range(self):
        lo, hi = confidence_interval(0.97, 2, 4, 4)
        assert lo == 0.0
        assert hi == 1.0

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            confidence_interval(0.5, *REF, alpha=alpha)

    def test_tighter_alpha_widens(self):
        narrow = confidence_interval(0.5, *REF, alpha=0.32)
        wide = confidence_interval(0.5, *REF, alpha=0.01)
        assert wide[0] < narrow[0] < narrow[1] < wide[1]


class TestNormalQuantile:
    def test_classic_values(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
        assert normal_quantile(0.841344746068543) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        assert normal_quantile(0.3) == pytest.approx(-normal_quantile(0.7), abs=1e-14)

    # SciPy's ndtri is the reference: the port must return its double.
    def test_bit_equal_to_scipy_on_a_seeded_sample(self):
        from scipy.special import ndtri

        rng = np.random.default_rng(20251)
        p = np.concatenate([
            rng.uniform(0.0, 1.0, 200_000),
            # 1e-300 < p reaches the x >= 8 tail (p < exp(-32)).
            10.0 ** -rng.uniform(0.0, 300.0, 50_000),
            1.0 - 10.0 ** -rng.uniform(1.0, 16.0, 50_000),
        ])
        p = p[(p > 0.0) & (p < 1.0)]
        assert np.sum(p < math.exp(-32.0)) > 10_000
        got = np.array([normal_quantile(float(v)) for v in p])
        want = ndtri(p)
        bad = np.flatnonzero(got != want)
        assert bad.size == 0, [(p[i], got[i], want[i]) for i in bad[:5]]

    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.1, 0.2, 0.32, 0.5])
    def test_bit_equal_to_scipy_at_interval_levels(self, alpha):
        from scipy.special import ndtri

        p = 1.0 - alpha / 2.0
        assert normal_quantile(p) == float(ndtri(p))

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=500, deadline=None)
    def test_bit_equal_to_scipy_anywhere_in_the_open_interval(self, p):
        from scipy.special import ndtri

        assert normal_quantile(p) == float(ndtri(p))

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, math.nan])
    def test_domain(self, p):
        with pytest.raises(ValueError, match="p must lie in"):
            normal_quantile(p)


class TestChi2Constancy:
    def test_equal_estimates_give_zero(self):
        stat, df, p = chi2_constancy([0.4, 0.4, 0.4], 0.1)
        assert stat == pytest.approx(0.0, abs=1e-20)
        assert df == 2
        assert p == 1.0

    def test_two_sigma_split(self):
        # Two estimates one sigma either side of their mean.
        stat, df, p = chi2_constancy([0.3, 0.5], 0.1)
        assert stat == pytest.approx(2.0, rel=1e-12)
        assert df == 1
        assert p == pytest.approx(0.15729920705028105, abs=1e-14)

    @given(
        vals=st.lists(st.floats(-5, 5), min_size=2, max_size=10),
        shift=st.floats(-3, 3),
        c=st.floats(0.5, 4.0),
    )
    @settings(max_examples=60)
    def test_shift_invariant_and_scale_covariant(self, vals, shift, c):
        stat, df, _ = chi2_constancy(vals, 0.2)
        stat_shift, _, _ = chi2_constancy([v + shift for v in vals], 0.2)
        assert stat_shift == pytest.approx(stat, abs=1e-6)
        stat_scaled, _, _ = chi2_constancy(vals, 0.2 * c)
        assert stat_scaled == pytest.approx(stat / c**2, rel=1e-9, abs=1e-12)
        assert df == len(vals) - 1

    def test_needs_two_estimates(self):
        with pytest.raises(ValueError):
            chi2_constancy([0.4], 0.1)

    def test_needs_positive_sigma(self):
        with pytest.raises(ValueError):
            chi2_constancy([0.4, 0.5], 0.0)

    def test_one_sigma_split_is_erfc_one(self):
        # df = 1 and stat = 2: the tail is erfc(sqrt(1)), correctly rounded.
        assert chi2_constancy([0.3, 0.5], 0.1)[2] == math.erfc(1.0)

    @staticmethod
    def _mpmath_tail(stat, df):
        import mpmath

        with mpmath.workdps(40):
            return float(mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(stat) / 2,
                                         mpmath.inf, regularized=True))

    def test_tail_matches_mpmath_for_df_up_to_300(self):
        rng = np.random.default_rng(26)
        worst = 0.0
        for df in range(1, 301):
            for stat in df * 10.0 ** rng.uniform(-2.0, 1.0, size=3):
                want = self._mpmath_tail(float(stat), df)
                got = _chi2_sf(float(stat), df)
                if want < sys.float_info.min:
                    # Below the normal range only absolute closeness holds.
                    assert abs(got - want) < 1e-320
                else:
                    worst = max(worst, abs(got - want) / want)
        assert worst <= 1e-14

    @pytest.mark.parametrize("df", [1, 2, 7, 300])
    def test_zero_stat_has_tail_one(self, df):
        assert _chi2_sf(0.0, df) == 1.0

    @pytest.mark.parametrize("df, stat", [
        (2000, 1999.0), (2000, 2000.0), (2001, 2100.0), (1600, 1850.0), (301, 1600.0),
    ])
    def test_tail_past_exp_underflow_matches_mpmath(self, df, stat):
        # x = stat / 2 is past 745, where exp(-x) alone underflows to 0.
        want = self._mpmath_tail(stat, df)
        assert want > 1e-300
        assert _chi2_sf(stat, df) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("df", [1, 2, 9, 2000])
    def test_tail_vanishes_far_out(self, df):
        assert _chi2_sf(2.0 * (df + 1500.0), df) == 0.0
        assert _chi2_sf(1e300, df) == 0.0


class TestZTest:
    def test_reference_comparison(self):
        z, p = z_test_means(0.4039, 0.1391, 0.07030871651625799)
        assert z == pytest.approx(2.6631388672114427, abs=1e-14)
        assert z == pytest.approx(2.6636, abs=1e-3)
        assert p == pytest.approx(0.0038707729342882143, abs=1e-16)
        # The matching tabulated value 0.0037 reflects extra rounding of
        # z before the tail lookup; the exact tail is ~0.0039.
        assert p == pytest.approx(0.0037, abs=2.5e-4)

    def test_equal_means(self):
        z, p = z_test_means(0.5, 0.5, 0.1)
        assert z == 0.0
        assert p == 0.5

    def test_antisymmetric_in_means(self):
        z1, p1 = z_test_means(0.7, 0.3, 0.1)
        z2, p2 = z_test_means(0.3, 0.7, 0.1)
        assert z1 == -z2
        assert p1 + p2 == pytest.approx(1.0, abs=1e-14)

    @given(
        gap=st.floats(0.01, 1.0),
        sigma=st.floats(0.1, 1.0),
    )
    @settings(max_examples=60)
    def test_p_decreases_as_gap_grows(self, gap, sigma):
        _, p_small = z_test_means(gap, 0.0, sigma)
        _, p_large = z_test_means(2.0 * gap, 0.0, sigma)
        assert 0.0 < p_large < p_small < 0.5


@pytest.mark.parametrize("call, args", [
    (chi2_constancy, ([0.3, 0.5], math.inf)),
    (chi2_constancy, ([0.3, 0.5], math.nan)),
    (chi2_constancy, ([0.3, math.nan], 0.1)),
    (chi2_constancy, ([0.3, -math.inf], 0.1)),
    (z_test_means, (0.4, 0.1, math.inf)),
    (z_test_means, (0.4, 0.1, math.nan)),
    (z_test_means, (math.nan, 0.1, 0.1)),
    (z_test_means, (0.4, math.inf, 0.1)),
])
def test_non_finite_inputs_are_rejected(call, args):
    with pytest.raises(ValueError, match="finite"):
        call(*args)


class TestAggregateWindows:
    def test_report_fields(self):
        rep = aggregate_windows([0.41, 0.38, 0.44], 0.07)
        assert isinstance(rep, AggregateReport)
        assert rep.window_estimates == (0.41, 0.38, 0.44)
        assert rep.mean_h == pytest.approx(np.mean([0.41, 0.38, 0.44]), rel=1e-14)
        assert rep.sigma == 0.07
        stat, df, p = chi2_constancy([0.41, 0.38, 0.44], 0.07)
        assert rep.chi2_stat == stat
        assert rep.chi2_df == df == 2
        assert rep.chi2_p == p


class TestAFunction:
    def test_frozen_values(self):
        assert a_function(0.2) == pytest.approx(3.230836306741985, abs=1e-14)
        assert a_function(0.5) == pytest.approx(1.0, rel=1e-14)
        assert a_function(0.8) == pytest.approx(0.9585171083357531, abs=1e-14)

    def test_accepts_arrays(self):
        h = np.array([0.2, 0.5, 0.8])
        got = a_function(h)
        assert got.shape == (3,)
        assert got[1] == pytest.approx(1.0, rel=1e-14)

    def test_grid_argmin(self):
        h = np.arange(1, 10_000) * 1e-4
        vals = a_function(h)
        assert h[int(np.argmin(vals))] == pytest.approx(0.6729, abs=1e-12)

    def test_interior_minimum(self):
        # The minimiser is interior: values rise on both sides.
        hstar = 0.6729
        assert a_function(hstar) < a_function(hstar - 0.05)
        assert a_function(hstar) < a_function(hstar + 0.05)

    @pytest.mark.parametrize("h", [0.0, 1.0, -0.2, 1.3])
    def test_domain(self, h):
        with pytest.raises(ValueError):
            a_function(h)


class TestVarianceOrderingSpec:
    @pytest.mark.parametrize("kwargs", [
        {"n_outer": 99},
        {"n_partition": 0},
        {"noise_sigma": -0.1},
        {"n_batches": 1},
        {"n_outer": 200, "n_batches": 201},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            VarianceOrderingSpec(**kwargs)


class TestVarianceOrdering:
    def test_coarsening_shrinks_variance(self):
        # Conditional means over a 16-cell partition must carry less
        # variance than the full variable, for both the level and the
        # square root; 1e5 draws leave slack of >= 5 batch-means SEs.
        rep = check_variance_ordering(VarianceOrderingSpec(seed=0))
        assert isinstance(rep, VarianceOrderingReport)
        assert rep.var_x > rep.var_v
        assert rep.gap >= 5.0 * rep.gap_se
        assert rep.var_sqrt_x > rep.var_sqrt_v
        assert rep.sqrt_gap >= 5.0 * rep.sqrt_gap_se

    def test_identity_partition_closes_the_gap(self):
        # One cell per draw and no noise: the conditional mean is the
        # variable itself, so both gaps vanish identically.
        spec = VarianceOrderingSpec(
            n_outer=100_000, n_partition=100_000, noise_sigma=0.0, seed=0
        )
        rep = check_variance_ordering(spec)
        assert rep.gap == 0.0
        assert rep.sqrt_gap == 0.0
        assert abs(rep.gap) <= 3.0 * max(rep.gap_se, 1e-12)

    def test_single_cell_partition_kills_conditional_variance(self):
        rep = check_variance_ordering(VarianceOrderingSpec(n_partition=1, seed=2))
        assert rep.var_v == pytest.approx(0.0, abs=1e-20)
        assert rep.gap == pytest.approx(rep.var_x, rel=1e-12)

    def test_gap_shrinks_as_partition_refines(self):
        gaps = [
            check_variance_ordering(VarianceOrderingSpec(n_partition=p, seed=3)).gap
            for p in (4, 16, 256)
        ]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0
        assert gaps[0] == pytest.approx(4.8168, abs=2e-4)
        assert gaps[1] == pytest.approx(3.5657, abs=2e-4)
        assert gaps[2] == pytest.approx(2.5090, abs=2e-4)

    def test_deterministic_given_seed(self):
        a = check_variance_ordering(VarianceOrderingSpec(seed=7))
        b = check_variance_ordering(VarianceOrderingSpec(seed=7))
        assert a == b


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The closed-form dispersion sqrt(2*pi*e)/ln(a_max) * (1/sqrt(n) + "
        "1/sqrt(m)) treats the two rescaled samples as independent and prices "
        "the whole CDF gap at the central slope, which makes it a guaranteed "
        "upper bound rather than a calibrated standard deviation: with "
        "n = m = 500, a_max = 50 it predicts 0.0945 while 200 independent "
        "replications of the full estimate at H = 0.5 have sample sd 0.0262 "
        "(ratio 0.28, below the 0.5 floor of the factor-of-two band)."
    ),
)
def test_predicted_sd_matches_monte_carlo_within_factor_two():
    from hurstks.fgn import FgnSpec, increments, simulate_fbm
    from hurstks.ksdist import RescaledPair
    from hurstks.minimize import OptimizerConfig, estimate_hurst
    from hurstks.permute import PermutationPlan

    cfg = OptimizerConfig(method="brent")
    hats = []
    for i in range(200):
        path = simulate_fbm(FgnSpec(hurst=0.5, length=4097, seed=80000 + i))
        pair = RescaledPair(
            fine=increments(path, 1), coarse=increments(path, 50), a_max=50
        )
        plan = PermutationPlan(
            scheme="uniform_sample", subsample_size=500, seed=81000 + i
        )
        hats.append(estimate_hurst(pair, plan, cfg).h_hat)
    got = float(np.std(hats, ddof=1))
    want = estimator_sd(50, 500, 500)
    assert 0.5 * want <= got <= 2.0 * want
