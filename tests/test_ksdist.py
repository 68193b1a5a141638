"""Tests for empirical CDFs, the two-sample KS distance, and the
rescaled-increment objective built on it."""

import inspect
import itertools
import math
import sys
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hurstks.fgn import FgnSpec, IncrementSample, increments, simulate_fbm
from hurstks.ksdist import (
    EmpiricalCdf,
    RescaledPair,
    gaussian_diameter,
    ks_critical,
    ks_two_sample,
    scaled_diameter_fn,
)
from hurstks.permute import DegenerateSampleError, PermutationPlan, uniform_sample_permute

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def _sample(values, lag=1):
    return IncrementSample(values=np.asarray(values, dtype=float), lag=lag)


def _ks(x, y):
    return ks_two_sample(
        EmpiricalCdf.from_sample(np.asarray(x, dtype=float)),
        EmpiricalCdf.from_sample(np.asarray(y, dtype=float)),
    )


def _pair(fine, coarse, a_max=50):
    return RescaledPair(fine=_sample(fine, 1), coarse=_sample(coarse, a_max), a_max=a_max)


def _ks_brute(x, y):
    """Sup over all real t of |F_x(t) - F_y(t)|, evaluated on the pooled
    points and just below each of them."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    best = 0.0
    for t in np.concatenate([x, y]):
        fx = np.mean(x <= t)
        fy = np.mean(y <= t)
        best = max(best, abs(fx - fy))
        fx = np.mean(x < t)
        fy = np.mean(y < t)
        best = max(best, abs(fx - fy))
    return float(best)


def _ks_pooled(a, b):
    """The pooled evaluation the kernel must match bit for bit: both
    step functions at every pooled point and immediately to its left,
    four searchsorted calls over all n + m points."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pooled = np.concatenate([a, b])
    n, m = a.size, b.size
    fa_r = np.searchsorted(a, pooled, side="right") / n
    fb_r = np.searchsorted(b, pooled, side="right") / m
    fa_l = np.searchsorted(a, pooled, side="left") / n
    fb_l = np.searchsorted(b, pooled, side="left") / m
    return float(max(np.abs(fa_r - fb_r).max(), np.abs(fa_l - fb_l).max()))


# Small integer alphabets force ties within and across samples.
tied_samples = st.lists(st.integers(-4, 4), min_size=1, max_size=40)


class TestEcdf:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmpiricalCdf.from_sample(np.array([]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            EmpiricalCdf.from_sample(np.array([1.0, np.nan]))


class TestKsTwoSample:
    def test_identical_samples(self):
        assert _ks([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) == 0.0

    def test_disjoint_supports(self):
        assert _ks([0.0, 1.0], [5.0, 6.0]) == 1.0

    def test_interleaved(self):
        assert _ks([1.0, 3.0], [2.0, 4.0]) == 0.5

    def test_point_between(self):
        assert _ks([1.0, 2.0], [1.5]) == 0.5

    @given(
        st.lists(finite_floats, min_size=1, max_size=30),
        st.lists(finite_floats, min_size=1, max_size=30),
    )
    def test_symmetry_and_range(self, xs, ys):
        x, y = np.array(xs), np.array(ys)
        d = _ks(x, y)
        assert d == _ks(y, x)
        assert 0.0 <= d <= 1.0

    @given(
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=30),
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=30),
        st.floats(0.5, 2.0),
        st.integers(-200, 200),
    )
    @settings(max_examples=60)
    def test_invariant_under_increasing_affine_maps(self, xs, ys, a, b):
        # Eighth-integer data keeps the affine map injective in floats,
        # so the tie pattern (hence the statistic) is preserved exactly.
        x, y = np.array(xs) / 8.0, np.array(ys) / 8.0
        assert _ks(a * x + b, a * y + b) == pytest.approx(_ks(x, y), abs=1e-12)

    @given(
        st.lists(finite_floats, min_size=1, max_size=8),
        st.lists(finite_floats, min_size=1, max_size=8),
    )
    @settings(max_examples=250)
    def test_matches_pointwise_brute_force(self, xs, ys):
        x, y = np.array(xs), np.array(ys)
        assert _ks(x, y) == pytest.approx(_ks_brute(x, y), abs=1e-14)

    def test_exhaustive_tiny_instances_with_ties(self):
        # Every pair of samples drawn from a 3-letter alphabet up to
        # size 3 on each side: ties, repeats, unequal sizes and D = 0
        # included.  Both argument orders give the pooled scan's float.
        alphabet = [0.0, 1.0, 2.0]
        pool = [
            list(c)
            for k in (1, 2, 3)
            for c in itertools.product(alphabet, repeat=k)
        ]
        count = zeros = 0
        for xs in pool:
            for ys in pool:
                x, y = np.array(xs), np.array(ys)
                d = _ks(x, y)
                assert d == pytest.approx(_ks_brute(x, y), abs=1e-14)
                assert d == _ks(y, x) == _ks_pooled(x, y)
                count += 1
                zeros += d == 0.0
        assert count == len(pool) ** 2 >= 1000
        assert zeros > 0

    def test_matches_reference_implementation(self):
        import scipy.stats

        rng = np.random.default_rng(17)
        for _ in range(200):
            x = rng.standard_normal(rng.integers(1, 40))
            y = rng.standard_normal(rng.integers(1, 40)) + rng.uniform(-1, 1)
            want = scipy.stats.ks_2samp(x, y, method="exact").statistic
            assert _ks(x, y) == pytest.approx(want, abs=1e-12)


class TestBitIdenticalToPooledScan:
    """The one-sided kernel returns exactly the float of the pooled
    scan, not merely a close one: argmin tie-breaks compare these
    values with ``==``."""

    @given(tied_samples, tied_samples, st.sampled_from([1.0, 3.0, 7.0, 10.0]))
    @settings(max_examples=400)
    def test_ks_two_sample_both_orders(self, xs, ys, scale):
        x, y = np.array(xs) / scale, np.array(ys) / scale
        want = _ks_pooled(x, y)
        assert _ks(x, y) == want
        assert _ks(y, x) == want

    @given(
        st.lists(st.integers(-6, 6), min_size=2, max_size=40),
        st.lists(st.integers(-6, 6), min_size=2, max_size=40),
        st.sampled_from([2, 10, 21, 50]),
        st.floats(1e-3, 1.0),
    )
    @settings(max_examples=400)
    def test_frozen_objective_matches_rescaled_pooled_scan(self, xs, ys, a_max, h):
        assume(len(set(xs)) > 1 and len(set(ys)) > 1)
        fine, coarse = np.array(xs) / 4.0, np.array(ys, dtype=float)
        fn = scaled_diameter_fn(_pair(fine, coarse, a_max=a_max))
        assert fn(h) == _ks_pooled(fine, np.sort(coarse) * float(a_max) ** (-h))

    @given(
        st.integers(1, 2000),
        st.integers(1, 300),
        st.integers(0, 3),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300)
    def test_rank_table_equals_quotients(self, n, m, rows, ties, seed):
        # The kernel's statistic reads r / n from its table of n and the
        # jump bases from slices of its table of m; the values are the
        # quotients formed by division, on 1-D and 2-D ranks, with left
        # either the same array as right (no ties) or a different one.
        import hurstks.ksdist as ksdist

        rng = np.random.default_rng(seed)
        shape = (m,) if rows == 0 else (rows, m)
        right = np.sort(rng.integers(0, n + 1, shape), axis=-1)
        left = np.maximum(right - rng.integers(0, 3, shape), 0) if ties else right
        got = ksdist._SortedPair(np.zeros(n), np.zeros(m)).statistic(right, left)
        up_base, dn_base = np.arange(1, m + 1) / m, np.arange(m) / m
        want = np.maximum((up_base - right / n).max(-1), (left / n - dn_base).max(-1))
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_real_rescaling_on_simulated_increments(self):
        path = simulate_fbm(FgnSpec(hurst=0.3, length=1025, seed=12))
        pair = RescaledPair(fine=increments(path, 1), coarse=increments(path, 21), a_max=21)
        fn = scaled_diameter_fn(pair)
        fine, coarse = pair.fine.values, np.sort(pair.coarse.values)
        for h in np.linspace(0.001, 1.0, 200):
            assert fn(float(h)) == _ks_pooled(fine, coarse * 21.0 ** (-float(h)))


class TestKsCritical:
    def test_frozen_reference_values(self):
        assert ks_critical(1491, 1491, 0.05) == pytest.approx(0.04974030111225421, abs=1e-15)
        assert ks_critical(500, 500, 0.05) == pytest.approx(0.08589388166934751, abs=1e-15)

    def test_alpha_coefficient(self):
        # sqrt(-ln(alpha/2)/2) at alpha = 0.05.
        want = 1.3581015157406195
        got = ks_critical(1, 1, 0.05) / math.sqrt(2.0)
        assert got == pytest.approx(want, abs=1e-14)

    def test_decreases_with_sample_size(self):
        vals = [ks_critical(n, n, 0.05) for n in (10, 100, 1000, 10_000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_decreases_with_alpha_looser(self):
        assert ks_critical(100, 100, 0.10) < ks_critical(100, 100, 0.01)

    @pytest.mark.parametrize("kwargs", [
        {"n": 0, "m": 5, "alpha": 0.05},
        {"n": 5, "m": 0, "alpha": 0.05},
        {"n": 5, "m": 5, "alpha": 0.0},
        {"n": 5, "m": 5, "alpha": 1.0},
    ])
    def test_domain_errors(self, kwargs):
        with pytest.raises(ValueError):
            ks_critical(**kwargs)


class TestGaussianDiameter:
    # Frozen against a 2e6-point brute-force maximisation of
    # |Phi(x) - Phi(x / sqrt(v))|.
    FROZEN = {
        1.1: 0.01152895489250183,
        2.0: 0.08303203749175647,
        4.0: 0.16133728441738426,
        10.0: 0.25164153929461275,
        0.5: 0.08303203749175647,
    }

    @pytest.mark.parametrize("v,want", sorted(FROZEN.items()))
    def test_frozen_values(self, v, want):
        assert gaussian_diameter(v) == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("v", [1.1, 2.0, 4.0, 10.0, 0.5])
    def test_matches_dense_grid_maximum(self, v):
        x = np.linspace(-10.0, 10.0, 2_000_001)
        from scipy.special import ndtr

        brute = float(np.max(np.abs(ndtr(x) - ndtr(x / math.sqrt(v)))))
        assert gaussian_diameter(v) == pytest.approx(brute, abs=1e-6)

    def test_equal_variances_give_zero(self):
        assert gaussian_diameter(1.0) == 0.0

    @given(st.floats(0.05, 20.0))
    @settings(max_examples=80)
    def test_symmetric_under_inversion(self, v):
        assert gaussian_diameter(v) == pytest.approx(gaussian_diameter(1.0 / v), abs=1e-10)

    def test_slope_at_equal_variances(self):
        # d D / d v at v = 1 equals 1 / (2 sqrt(2 pi e)).
        eps = 1e-4
        slope = (gaussian_diameter(1.0 + eps) - gaussian_diameter(1.0)) / eps
        assert slope == pytest.approx(1.0 / (2.0 * math.sqrt(2.0 * math.pi * math.e)), rel=1e-3)
        assert slope == pytest.approx(0.12097931336940704, abs=1e-15)

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError):
            gaussian_diameter(0.0)

    @pytest.mark.parametrize("v", [math.inf, math.nan])
    def test_rejects_non_finite_ratio(self, v):
        with pytest.raises(ValueError):
            gaussian_diameter(v)

    def test_subnormal_ratio_nears_its_limit(self):
        # 1 / v overflows at the least subnormal, where D(v) = D(1/v)
        # sits at its limit 1/2; the other extremes agree to the bit.
        assert gaussian_diameter(5e-324) == pytest.approx(0.5, abs=1e-12)
        assert gaussian_diameter(1e-300) == gaussian_diameter(1e300)


class TestRescaledPair:
    def test_requires_unit_fine_lag(self):
        with pytest.raises(ValueError):
            RescaledPair(fine=_sample([1.0], 2), coarse=_sample([1.0], 50), a_max=50)

    def test_requires_matching_coarse_lag(self):
        with pytest.raises(ValueError):
            RescaledPair(fine=_sample([1.0], 1), coarse=_sample([1.0], 10), a_max=50)

    def test_requires_a_max_above_one(self):
        with pytest.raises(ValueError):
            RescaledPair(fine=_sample([1.0], 1), coarse=_sample([1.0], 1), a_max=1)


class TestDiameterObjective:
    def test_equals_ks_of_rescaled_samples(self):
        rng = np.random.default_rng(3)
        fine = rng.standard_normal(40)
        coarse = rng.standard_normal(30)
        pair = _pair(fine, coarse, a_max=20)
        for h in (0.2, 0.5, 0.9, 1.0):
            want = _ks(fine, coarse * 20.0**-h)
            assert scaled_diameter_fn(pair)(h) == want

    def test_rejects_hurst_outside_half_open_interval(self):
        pair = _pair([1.0, 2.0], [3.0, 4.0])
        for h in (0.0, -0.5, 1.0001):
            with pytest.raises(ValueError):
                scaled_diameter_fn(pair)(h)

    def test_degenerate_constant_samples(self):
        with pytest.raises(DegenerateSampleError):
            scaled_diameter_fn(_pair([1.0, 1.0], [1.0, 1.0]))

    @given(st.floats(0.1, 5.0), st.floats(0.05, 1.0))
    @settings(max_examples=50)
    def test_common_scaling_leaves_objective_unchanged(self, c, h):
        rng = np.random.default_rng(8)
        fine = rng.standard_normal(25)
        coarse = rng.standard_normal(25)
        base = scaled_diameter_fn(_pair(fine, coarse))(h)
        scaled = scaled_diameter_fn(_pair(c * fine, c * coarse))(h)
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_order_of_values_is_irrelevant(self):
        rng = np.random.default_rng(9)
        fine = rng.standard_normal(25)
        coarse = rng.standard_normal(25)
        a = scaled_diameter_fn(_pair(fine, coarse))(0.4)
        b = scaled_diameter_fn(_pair(fine[::-1].copy(), np.sort(coarse)))(0.4)
        assert a == b

    def test_closure_reuses_sorted_samples(self):
        rng = np.random.default_rng(10)
        pair = _pair(rng.standard_normal(30), rng.standard_normal(30))
        fn = scaled_diameter_fn(pair)
        for h in (0.1, 0.5, 0.9):
            # One closure called again and again, against a fresh one.
            assert fn(h) == scaled_diameter_fn(pair)(h)


class TestCalibratedGaussianPairs:
    """Synthetic pairs where the coarse sample is an exactly rescaled
    Gaussian, so the true exponent is known."""

    def test_true_exponent_rarely_rejected(self):
        crit = ks_critical(500, 500, 0.05)
        hits = 0
        for i in range(100):
            rng = np.random.default_rng(31000 + i)
            pair = _pair(
                rng.standard_normal(500), 50.0**0.6 * rng.standard_normal(500), a_max=50
            )
            if scaled_diameter_fn(pair)(0.6) < crit:
                hits += 1
        assert hits >= 95

    def test_distant_exponent_always_rejected(self):
        crit = ks_critical(500, 500, 0.05)
        hits = 0
        for i in range(100):
            rng = np.random.default_rng(31000 + i)
            pair = _pair(
                rng.standard_normal(500), 50.0**0.6 * rng.standard_normal(500), a_max=50
            )
            if scaled_diameter_fn(pair)(0.2) > crit:
                hits += 1
        assert hits >= 99


def _curve_argmin(pair, grid):
    # Smallest grid exponent with the least objective value.
    return grid[int(np.argmin(scaled_diameter_fn(pair).many(grid)))]


class TestDiameterCurve:
    def test_population_curve_dips_at_true_exponent(self):
        # Gaussian population quantiles; curve minimum must sit at the
        # generating exponent on a fine grid.
        q = np.linspace(0.0005, 0.9995, 1000)
        from scipy.special import ndtri

        z = ndtri(q)
        pair = _pair(z, 50.0**0.6 * z, a_max=50)
        grid = np.round(np.arange(0.05, 1.0, 0.01), 4)
        assert _curve_argmin(pair, grid) == pytest.approx(0.6, abs=0.011)

    def test_sampled_curve_argmin_centres_on_true_exponent(self):
        # 100 independent paths at H = 0.5; mean argmin of the curve on
        # a 0.01 grid stays within 0.05 of the truth.
        from numpy.random import SeedSequence

        grid = np.round(np.arange(0.05, 1.0, 0.01), 4)
        argmins = []
        for i in range(100):
            path = simulate_fbm(FgnSpec(hurst=0.5, length=4097, seed=41000 + i))
            sub = SeedSequence(42000 + i).generate_state(2)
            fine = uniform_sample_permute(
                increments(path, 1),
                PermutationPlan(scheme="uniform_sample", subsample_size=500, seed=int(sub[0])),
            )
            coarse = uniform_sample_permute(
                increments(path, 50),
                PermutationPlan(scheme="uniform_sample", subsample_size=500, seed=int(sub[1])),
            )
            pair = RescaledPair(fine=fine, coarse=coarse, a_max=50)
            argmins.append(_curve_argmin(pair, grid))
        assert float(np.mean(argmins)) == pytest.approx(0.5, abs=0.05)


def _mesh_run(step, k0, length):
    return [min(k * step, 1.0) for k in range(k0, k0 + length) if k * step < 1.0 + step]


# Coarse values with zeros of both signs; fine values on a quarter
# lattice, so exact scales such as 16 ** -0.25 = 0.5 land products on
# fine points and the <= and < counts differ.
coarse_with_zeros = st.lists(
    st.one_of(st.integers(-8, 8).map(float), st.just(-0.0)), min_size=2, max_size=60
)

# -9 .. 9 times 1e-320 (subnormal), 1e-300, 1 or 1e300.
extreme_values = st.lists(
    st.builds(
        lambda digit, power: digit * 10.0**power,
        st.integers(-9, 9),
        st.sampled_from([-320, -300, 0, 300]),
    ),
    min_size=2,
    max_size=60,
)


def _simulated_pair(hurst, seed):
    # A 500 x 500 pair as estimate_hurst draws it from a 4097-point path.
    path = simulate_fbm(FgnSpec(hurst=hurst, length=4097, seed=seed))
    plan = PermutationPlan(scheme="uniform_sample", subsample_size=500, seed=seed)
    return RescaledPair(
        fine=uniform_sample_permute(increments(path, 1), plan),
        coarse=uniform_sample_permute(increments(path, 50), plan),
        a_max=50,
    )


# The lines of the sweep's fix-up loops that move guesses, and the
# line that makes the guesses.
_FIX_UP_LINES = ("cell -= behind", "cell += ahead")
_GUESS_LINE = "cell = scales.searchsorted(target / mult)"


def _fix_up_steps(run):
    # run() and the number of steps the sweep's fix-up loops take,
    # one per pass that moves any guess, with the sweep calls made and
    # those of them that placed events.
    import hurstks.ksdist as ksdist

    sweep = ksdist._SortedPair.sweep
    lines, start = inspect.getsourcelines(sweep)
    steps = {start + j for j, line in enumerate(lines) if line.strip() in _FIX_UP_LINES}
    guess = {start + j for j, line in enumerate(lines) if line.strip() == _GUESS_LINE}
    assert len(steps) == len(_FIX_UP_LINES) and len(guess) == 1
    counts = {"steps": 0, "calls": 0, "placed": 0}

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in steps:
            counts["steps"] += 1
        if event == "line" and frame.f_lineno in guess:
            counts["placed"] += 1
        return local

    def tracer(frame, event, arg):
        if frame.f_code is not sweep.__code__:
            return None
        counts["calls"] += 1
        return local

    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        out = run()
    finally:
        sys.settrace(outer)
    return out, counts


def _count_calls(monkeypatch, owner, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(owner, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    return calls


class TestBlockEvaluation:
    """``many`` returns exactly the floats of per-exponent calls."""

    @given(
        st.lists(st.integers(-12, 12), min_size=2, max_size=70),
        coarse_with_zeros,
        st.one_of(st.sampled_from([2, 4, 16]), st.integers(2, 50)),
        st.sampled_from([1e-4, 1e-3, 1e-2, 0.07, 1 / 3]),
        st.integers(1, 10_000),
        st.integers(1, 600),
        st.booleans(),
        st.sets(st.integers(0, 599), max_size=30),
        st.one_of(st.none(), st.floats(1e-6, 1.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_mesh_run_matches_per_exponent_calls(
        self, xs, coarse, a_max, step, k0, length, backwards, removed, stray
    ):
        # Rising or falling mesh runs, with cells taken out or one
        # exponent off the mesh.
        assume(len(set(xs)) > 1 and len(set(coarse)) > 1)
        k0 = min(k0, int(round(1.0 / step)))
        fn = scaled_diameter_fn(_pair(np.array(xs) / 4.0, coarse, a_max=a_max))
        run = _mesh_run(step, k0, length)
        hs = [h for j, h in enumerate(run) if j not in removed] or run
        if stray is not None:
            hs.insert(len(hs) // 2, stray)
        if backwards:
            hs.reverse()
        assert fn.many(hs).tolist() == [fn(h) for h in hs]

    @pytest.mark.parametrize("a_max", [2, 4, 16])
    def test_exact_scales_on_tied_lattice(self, a_max):
        # Runs through h = 0.25, 0.5, 0.75, 1, where a_max ** -h is a
        # power of two and products of integers hit fine points exactly,
        # rising and falling; the 0.07 and 1/3 meshes pass near them.
        rng = np.random.default_rng(a_max)
        fine = rng.integers(-40, 41, 300) / 4.0
        coarse = rng.integers(-30, 31, 200).astype(float)
        coarse[:3] = [0.0, -0.0, 0.0]
        fn = scaled_diameter_fn(_pair(fine, coarse, a_max=a_max))
        for step in (1e-2, 1e-3, 1e-4, 0.07, 1 / 3):
            for centre in (0.25, 0.5, 0.75, 1.0):
                k = int(round(centre / step))
                hs = _mesh_run(step, max(k - 40, 1), 81)
                assert centre in hs or step > 0.05
                for run in (hs, hs[::-1]):
                    assert fn.many(run).tolist() == [fn(h) for h in run]

    @pytest.mark.parametrize("hurst", [0.2, 0.5, 0.8])
    def test_full_mesh_on_simulated_pair(self, hurst):
        # The grid's run, rising and falling, split into pieces, eight or
        # more of which place the events they keep (a piece may keep
        # none): the quotient search puts each guess on its cell up to
        # rounding, which may cost a few fix-up steps.
        fn = scaled_diameter_fn(_simulated_pair(hurst, seed=int(hurst * 10)))
        hs = _mesh_run(1e-4, 1, 10_000)
        assert len(hs) == 10_000
        want = [fn(h) for h in hs]
        for run, values in ((hs, want), (hs[::-1], want[::-1])):
            out, counts = _fix_up_steps(lambda: fn.many(run))
            assert out.tolist() == values
            assert counts["placed"] >= 8 and counts["steps"] <= 2

    @given(
        st.lists(st.integers(-12, 12), min_size=2, max_size=70),
        coarse_with_zeros,
        st.one_of(st.sampled_from([2, 4, 16]), st.integers(2, 50)),
        st.sampled_from([1e-4, 1e-3, 1e-2]),
        st.integers(1, 10_000),
        st.integers(1, 10_000),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_long_shuffled_runs_with_repeats(self, xs, coarse, a_max, step, k0, length, seed):
        assume(len(set(xs)) > 1 and len(set(coarse)) > 1)
        k0 = min(k0, int(round(1.0 / step)))
        fn = scaled_diameter_fn(_pair(np.array(xs) / 4.0, coarse, a_max=a_max))
        run = _mesh_run(step, k0, length)
        rng = np.random.default_rng(seed)
        repeats = rng.integers(0, len(run), len(run) // 4)
        hs = [run[j] for j in rng.permutation(np.concatenate([np.arange(len(run)), repeats]))]
        assert fn.many(hs).tolist() == [fn(h) for h in hs]

    def test_long_runs_split_and_wide_runs_rank_in_2d_pieces(self, monkeypatch):
        import hurstks.ksdist as ksdist

        path = simulate_fbm(FgnSpec(hurst=0.4, length=4097, seed=5))
        fine, coarse = increments(path, 1), increments(path, 50)
        pair = RescaledPair(
            fine=IncrementSample(values=fine.values[:500], lag=1),
            coarse=IncrementSample(values=coarse.values[:400], lag=50),
            a_max=50,
        )
        fn = scaled_diameter_fn(pair)
        runs = {
            "scan": np.linspace(1e-3, 1.0, 50).tolist(),
            "mesh 1e-3": _mesh_run(1e-3, 1, 600),
            "mesh 1e-4": _mesh_run(1e-4, 4000, 600),
        }
        want = {name: [fn(h) for h in hs] for name, hs in runs.items()}
        calls = _count_calls(monkeypatch, ksdist._SortedPair, "sweep", "ks")
        shapes, counted = [], ksdist._SortedPair.ks

        def ranked(self, b):
            shapes.append(b.shape)
            return counted(self, b)

        monkeypatch.setattr(ksdist._SortedPair, "ks", ranked)
        got = {}
        for name, hs in runs.items():
            calls.update(sweep=0, ks=0)
            shapes.clear()
            assert fn.many(hs).tolist() == want[name]
            got[name] = dict(calls, shapes=list(shapes))
        # A 50-point scan of the whole interval crosses more fine points
        # than ranking its 50 rows of products takes, so it ranks them
        # in one 2D pass, in pieces of at most _SWEEP_EVENTS products,
        # and makes no per-exponent kernel call; runs of the mesh go
        # through the sweep, a long one in pieces.
        rows = ksdist._SWEEP_EVENTS // 400
        assert got["scan"]["sweep"] == 1
        assert got["scan"]["shapes"] == [(min(rows, 50 - i), 400) for i in range(0, 50, rows)]
        assert got["mesh 1e-3"]["sweep"] > 2
        assert got["mesh 1e-4"]["ks"] == got["mesh 1e-3"]["ks"] == 0

    def test_run_just_over_the_event_budget_crosses_one_boundary(self, monkeypatch):
        import hurstks.ksdist as ksdist

        pair = _simulated_pair(0.5, seed=3)
        fine, coarse = np.sort(pair.fine.values), np.sort(pair.coarse.values)
        kernel = ksdist._SortedPair(fine, coarse)

        def events(hs):
            # The crossing events of a run, counted as the kernel does:
            # only those that may beat its floor.
            first, last = coarse * 50.0 ** -hs[0], coarse * 50.0 ** -hs[-1]
            right, left = kernel.outer_ranks(first, last)
            end = left + (right - left) * (first != last)
            floor = float(kernel.statistic(right, left))
            return int(kernel.kept(left, end, floor)[1].sum())

        length = 2
        while events(_mesh_run(1e-4, 3000, length)) <= ksdist._SWEEP_EVENTS:
            length += 1
        hs = _mesh_run(1e-4, 3000, length)
        fn = scaled_diameter_fn(pair)
        want = [fn(h) for h in hs]
        calls = _count_calls(monkeypatch, ksdist._SortedPair, "sweep", "ks")
        assert fn.many(hs).tolist() == want
        assert calls == {"sweep": 3, "ks": 0}

    @given(
        extreme_values,
        extreme_values,
        st.integers(2, 50),
        st.sampled_from([(1e-4, 16), (1e-2, 100)]),
        st.integers(1, 10_000),
        st.integers(1, 100),
        st.booleans(),
    )
    # Subnormal products that cross subnormal fine points, both ways.
    @example([-1e-320, 1e-320, 3e-300], [2e-320, -2e-320, 1.0], 4, (1e-2, 100), 45, 10, False)
    @example([-1e-320, 1e-320, 3e-300], [2e-320, -2e-320, 1.0], 4, (1e-2, 100), 45, 10, True)
    @settings(max_examples=300, deadline=None)
    def test_extreme_magnitudes(self, xs, coarse, a_max, mesh, k0, length, backwards):
        # Zeros, negatives and products and quotients near the ends of
        # the float range; leaves of the 1e-4 mesh and runs of the 1e-2
        # one, rising or falling.  The suite turns a float warning, such
        # as an overflow, into an error.
        assume(len(set(xs)) > 1 and len(set(coarse)) > 1)
        step, longest = mesh
        k0 = min(k0, int(round(1.0 / step)))
        fn = scaled_diameter_fn(_pair(xs, coarse, a_max=a_max))
        hs = _mesh_run(step, k0, min(length, longest))
        if backwards:
            hs.reverse()
        assert fn.many(hs).tolist() == [fn(h) for h in hs]

    def test_sweep_on_scales_next_to_quotients(self):
        # Scales one ulp either side of a_i / b_j, where the quotient the
        # guess searches for and the product it stands for round apart.
        import hurstks.ksdist as ksdist

        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = np.sort(rng.standard_normal(40)), np.sort(rng.standard_normal(30))
            q = (a[:, None] / b).ravel()
            q = rng.choice(q[(q > 0.02) & (q < 1.0)], 20)
            scales = np.unique([q, np.nextafter(q, 0.0), np.nextafter(q, 2.0)])
            kernel = ksdist._SortedPair(a, b)
            assert kernel.sweep(scales).tolist() == [kernel.ks(b * s) for s in scales]

    @pytest.mark.parametrize("size", [2, 50, 400])
    @pytest.mark.parametrize("far", [-0.05, 0.05, 0.3])
    def test_clustered_run_with_one_far_exponent(self, size, far):
        # size exponents within 1e-12 around one where a product meets a
        # fine point, and one far off: at size 400 the cluster's scales
        # lie tens of ulps apart, so the quotient search may round a
        # cell off, yet the loops step each guess at most a cell or two.
        # The crossing is the one nearest the median of the quotients in
        # (0.1, 0.5) whose event the run keeps, since an event that
        # cannot beat the run's floor is never placed.
        fn = scaled_diameter_fn(_simulated_pair(0.5, seed=5))
        kernel = fn._pair
        quotients = kernel.a[:, None] / kernel.b
        events = np.argwhere((quotients > 0.1) & (quotients < 0.5))
        events = events[np.argsort(quotients[tuple(events.T)], kind="stable")]
        middle = np.arange(len(events)) - len(events) // 2
        for i, j in events[np.argsort(abs(middle), kind="stable")].tolist():
            centre = -math.log(quotients[i, j]) / math.log(50.0)
            hs = [centre + (k - size // 2) * (1e-12 / size) for k in range(size)]
            hs.insert(size // 3, centre + far)
            scales = np.sort([50.0**-h for h in hs])
            first, last = kernel.b * scales[0], kernel.b * scales[-1]
            right, left = kernel.outer_ranks(first, last)
            end = left + (right - left) * (first != last)
            starts, widths = kernel.kept(left, end, float(kernel.statistic(right, left)))
            segments = zip(starts[2 * j : 2 * j + 2], widths[2 * j : 2 * j + 2])
            if any(s <= i < s + w for s, w in segments):
                break
        out, counts = _fix_up_steps(lambda: fn.many(hs))
        assert out.tolist() == [fn(h) for h in hs]
        assert counts["steps"] <= 2 * counts["calls"]
        if size == 400 and far != 0.3:
            # Swept in one piece, the crossing sits mid-cluster.
            assert counts["calls"] == counts["placed"] == 1 and counts["steps"] <= 2

    def test_full_mesh_memory_stays_small(self):
        fn = scaled_diameter_fn(_simulated_pair(0.5, seed=1))
        hs = _mesh_run(1e-4, 1, 10_000)
        fn.many(hs)
        tracemalloc.start()
        try:
            fn.many(hs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_wide_run_at_1491_ranks_in_small_pieces(self, monkeypatch):
        import hurstks.ksdist as ksdist

        # A 1491 x 1491 pair as analyze draws it from a 1512-point window.
        path = simulate_fbm(FgnSpec(hurst=0.5, length=1512, seed=1))
        plan = PermutationPlan(subsample_size=1491, seed=1)
        fn = scaled_diameter_fn(
            RescaledPair(
                fine=uniform_sample_permute(increments(path, 1), plan),
                coarse=uniform_sample_permute(increments(path, 21), plan),
                a_max=21,
            )
        )
        # About the widest run of [1e-3, 1] that still ranks every
        # product: 400 rows of 1491, 4.8 MB per array if formed at once.
        hs = np.linspace(1e-3, 1.0, 400).tolist()
        fn.many(hs)
        calls = _count_calls(monkeypatch, ksdist._SortedPair, "ks")
        tracemalloc.start()
        try:
            fn.many(hs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls["ks"] == math.ceil(400 / (ksdist._SWEEP_EVENTS // 1491))
        assert peak < 1_000_000

    @given(
        st.lists(st.integers(0, 30), min_size=21, max_size=21),
        st.lists(st.integers(0, 3), min_size=21, max_size=21),
        st.one_of(st.sampled_from([4, 16]), st.integers(2, 50)),
        st.integers(1, 60),
        st.lists(st.sampled_from([0.25, 0.5, 0.75, 1.0]), max_size=4),
        st.sampled_from([1, 16, 100, 1 << 13]),
    )
    @settings(max_examples=300, deadline=None)
    def test_wide_runs_match_per_exponent_calls(self, fine, coarse, a_max, k, exact, budget):
        # Samples of -10 .. 10, each value repeated as often as drawn,
        # tie at zero, and at exact scales such as 16 ** -0.25 = 0.5
        # elsewhere.  A scan of [1e-3, 1] moves the products across
        # more fine points than it has exponents, so it mostly ranks
        # every product; the budget splits the rows into pieces of
        # every size down to one.
        import hurstks.ksdist as ksdist

        xs, ys = (np.repeat(np.arange(-10.0, 11.0), counts) for counts in (fine, coarse))
        assume(len(set(xs)) > 1 and len(set(ys)) > 1)
        fn = scaled_diameter_fn(_pair(xs, ys, a_max=a_max))
        hs = np.linspace(1e-3, 1.0, k).tolist() + exact
        want = [fn(h) for h in hs]
        with patch.object(ksdist, "_SWEEP_EVENTS", budget):
            assert fn.many(hs).tolist() == want

    def test_any_order_and_repeats(self):
        rng = np.random.default_rng(4)
        fn = scaled_diameter_fn(_pair(rng.integers(-5, 6, 80) / 2.0, rng.integers(-5, 6, 70), a_max=9))
        hs = [0.9, 0.3, 0.3, 1.0, 0.001, 0.5001, 0.5]
        assert fn.many(hs).tolist() == [fn(h) for h in hs]
        assert fn.many(hs[::-1]).tolist() == [fn(h) for h in hs[::-1]]

    def test_empty_run_and_domain(self):
        fn = scaled_diameter_fn(_pair([1.0, 2.0, 3.0], [1.0, 4.0]))
        assert fn.many([]).size == 0
        for bad in ([0.5, 0.0], [1.0001], [-0.2, 0.3]):
            with pytest.raises(ValueError):
                fn.many(bad)


class TestPruning:
    """A sweep that expands only the events that may beat its run's
    floor returns the same floats, and keeps every event that can."""

    @given(
        st.lists(st.integers(-6, 6), min_size=2, max_size=60),
        st.lists(st.one_of(st.integers(-6, 6).map(float), st.just(-0.0)), min_size=2, max_size=60),
        st.one_of(st.sampled_from([2, 4, 16]), st.integers(2, 50)),
        st.sampled_from([1e-4, 1e-3, 1e-2, 0.07, 1 / 3]),
        st.integers(1, 10_000),
        st.integers(1, 400),
        st.lists(st.sampled_from([0.25, 0.5, 0.75, 1.0]), max_size=4),
        st.booleans(),
        st.sampled_from([1, 16, 1 << 13]),
    )
    @settings(max_examples=400, deadline=None)
    def test_forced_pruning_matches_per_exponent_calls(
        self, xs, coarse, a_max, step, k0, length, exact, backwards, budget
    ):
        # Tied integer samples of 2 .. 60 points with zeros of both signs
        # and negatives, mesh runs with exact scales such as 16 ** -0.25
        # = 0.5 put in, rising or falling, pruned at every run size; the
        # budget splits them into pieces of every size down to one event.
        import hurstks.ksdist as ksdist

        assume(len(set(xs)) > 1 and len(set(coarse)) > 1)
        k0 = min(k0, int(round(1.0 / step)))
        fn = scaled_diameter_fn(_pair(np.array(xs) / 4.0, coarse, a_max=a_max))
        hs = sorted(set(_mesh_run(step, k0, length) + exact), reverse=backwards)
        want = [fn(h) for h in hs]
        with patch.object(ksdist, "_SWEEP_EVENTS", budget):
            assert fn.many(hs).tolist() == want

    def test_every_event_that_beats_the_floor_is_kept(self):
        # Random runs on tied and on continuous samples: an event i of
        # column j whose up or dn term, formed as the sweep forms it,
        # exceeds the run's outer-rank floor lies in the head or the
        # tail that kept gives column j.
        import hurstks.ksdist as ksdist

        rng = np.random.default_rng(32)
        for trial in range(300):
            n, m = rng.integers(2, 80, 2)
            if trial % 2:
                a, b = rng.integers(-6, 7, n) / 4.0, rng.integers(-6, 7, m).astype(float)
            else:
                a, b = rng.standard_normal(n), rng.standard_normal(m)
            kernel = ksdist._SortedPair(np.sort(a), np.sort(b))
            scales = np.sort(float(rng.integers(2, 51)) ** -rng.uniform(0.0, 1.0, 2))
            first, last = kernel.b * scales[0], kernel.b * scales[-1]
            right, left = kernel.outer_ranks(first, last)
            end = left + (right - left) * (first != last)
            floor = float(kernel.statistic(right, left))
            starts, widths = kernel.kept(left, end, floor)
            for j in range(m):
                segments = zip(starts[2 * j : 2 * j + 2], widths[2 * j : 2 * j + 2])
                kept = {i for s, w in segments for i in range(s, s + w)}
                assert kept <= set(range(left[j], end[j]))
                for i in range(left[j], end[j]):
                    up = kernel.up_base[j] - kernel.frac[i]
                    dn = kernel.frac[i + 1] - kernel.dn_base[j]
                    if up > floor or dn > floor:
                        assert i in kept, (trial, i, j)


class TestLeast:
    """``least`` returns ``many``'s values where they may be the least
    and ``+inf`` where they lie above it, so both arrays have the same
    least (value, exponent) pair, at the same first index."""

    @staticmethod
    def _check(got, values, hs):
        # got is least(hs), values many(hs); values are never infinite.
        assert isinstance(got, np.ndarray) and got.shape == values.shape == (len(hs),)
        kept = got != np.inf
        assert (got[kept] == values[kept]).all()
        assert (values[~kept] > values.min()).all()
        pairs = [min(zip(v.tolist(), hs, range(len(hs)))) for v in (got, values)]
        assert pairs[0] == pairs[1]

    @given(
        st.lists(st.integers(-12, 12), min_size=2, max_size=70),
        st.integers(2, 60).flatmap(
            lambda m: st.lists(
                st.one_of(st.integers(-8, 8).map(float), st.just(-0.0)), min_size=m, max_size=m
            )
        ),
        st.one_of(st.sampled_from([2, 4, 16]), st.integers(2, 50)),
        st.one_of(
            st.integers(1, 60).map(lambda k: np.linspace(1e-3, 1.0, k).tolist()),
            st.lists(
                st.one_of(
                    st.sampled_from([0.25, 0.5, 0.75, 1.0]),
                    st.integers(1, 1000).map(lambda k: k / 1000),
                ),
                min_size=1,
                max_size=60,
            ),
        ),
        st.sampled_from([1, 16, 1 << 13]),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_the_least_pair_of_many(self, xs, coarse, a_max, hs, budget):
        # Small integers tie within and across the samples, and exact
        # scales such as 16 ** -0.25 = 0.5 put products on fine points,
        # so the <= and < ranks differ.  m of 2 .. 60 samples every 1st
        # to 7th coarse point, the last one on a sampled stride or past
        # it.  The exponents are the scan mesh or a drawn list, which
        # repeats and shuffles them; the budget ranks in pieces of
        # every size down to one row.
        import hurstks.ksdist as ksdist

        assume(len(set(xs)) > 1 and len(set(coarse)) > 1)
        fn = scaled_diameter_fn(_pair(np.array(xs) / 4.0, coarse, a_max=a_max))
        values = fn.many(hs)
        with patch.object(ksdist, "_SWEEP_EVENTS", budget):
            self._check(fn.least(hs), values, hs)

    @pytest.mark.parametrize("a_max", [2, 4, 16])
    def test_exact_scales_on_tied_lattice(self, a_max):
        # Mesh runs through exact scales, where wide ties decide the
        # first index, in increasing and in decreasing order.
        rng = np.random.default_rng(a_max)
        fine = rng.integers(-40, 41, 300) / 4.0
        coarse = rng.integers(-30, 31, 200).astype(float)
        coarse[:3] = [0.0, -0.0, 0.0]
        fn = scaled_diameter_fn(_pair(fine, coarse, a_max=a_max))
        for step in (1e-2, 1e-3):
            for centre in (0.25, 0.5, 0.75, 1.0):
                k = int(round(centre / step))
                hs = _mesh_run(step, max(k - 40, 1), 81)
                for run in (hs, hs[::-1]):
                    self._check(fn.least(run), fn.many(run), run)

    @pytest.mark.parametrize("size", [500, 1491])
    def test_scan_ranks_few_rows_in_full(self, size, monkeypatch):
        # On the benchmark's sample sizes the sampled ranks rule out
        # most of the scan's 50 rows before any is ranked in full.
        import hurstks.ksdist as ksdist

        length, a_max = (4097, 50) if size == 500 else (1512, 21)
        path = simulate_fbm(FgnSpec(hurst=0.3, length=length, seed=size))
        plan = PermutationPlan(subsample_size=size, seed=size)
        fn = scaled_diameter_fn(
            RescaledPair(
                fine=uniform_sample_permute(increments(path, 1), plan),
                coarse=uniform_sample_permute(increments(path, a_max), plan),
                a_max=a_max,
            )
        )
        hs = np.linspace(1e-3, 1.0, 50).tolist()
        values = fn.many(hs)
        rows, ranked = [], ksdist._SortedPair.rows

        def counted(self, scales):
            rows.append(scales.size)
            return ranked(self, scales)

        monkeypatch.setattr(ksdist._SortedPair, "rows", counted)
        self._check(fn.least(hs), values, hs)
        assert len(rows) == 1 and 1 <= rows[0] < 25

    def test_domain(self):
        fn = scaled_diameter_fn(_pair([1.0, 2.0, 3.0], [1.0, 4.0]))
        assert fn.least([]).size == 0
        for bad in ([0.5, 0.0], [1.0001], [-0.2, 0.3]):
            with pytest.raises(ValueError):
                fn.least(bad)


class TestBound:
    """``bound`` is a lower bound on every cell of a mesh run and the
    value itself on one cell."""

    @given(
        st.lists(st.integers(-12, 12), min_size=2, max_size=70),
        coarse_with_zeros,
        st.one_of(st.sampled_from([2, 4, 16]), st.integers(2, 50)),
        st.sampled_from([1e-4, 1e-3, 1e-2, 0.25]),
        st.integers(1, 10_000),
        st.integers(1, 200),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounds_every_cell_of_a_run(self, xs, coarse, a_max, step, k0, length):
        assume(len(set(xs)) > 1 and len(set(coarse)) > 1)
        k0 = min(k0, int(round(1.0 / step)))
        fn = scaled_diameter_fn(_pair(np.array(xs) / 4.0, coarse, a_max=a_max))
        hs = _mesh_run(step, k0, length)
        values = [fn(h) for h in hs]
        assert fn.bound(hs[0], hs[-1]) == fn.bound(hs[-1], hs[0]) <= min(values)
        assert [fn.bound(h, h) for h in hs] == values

    @pytest.mark.parametrize("a_max", [2, 4, 16])
    def test_exact_scales_on_tied_lattice(self, a_max):
        # Runs that start, end or pass at h = 0.25, 0.5, 0.75, 1, where
        # products of integers hit fine points exactly.
        rng = np.random.default_rng(a_max)
        fine = rng.integers(-40, 41, 300) / 4.0
        coarse = rng.integers(-30, 31, 200).astype(float)
        coarse[:3] = [0.0, -0.0, 0.0]
        fn = scaled_diameter_fn(_pair(fine, coarse, a_max=a_max))
        for step in (1e-2, 1e-3):
            for centre in (0.25, 0.5, 0.75, 1.0):
                k = int(round(centre / step))
                hs = _mesh_run(step, max(k - 40, 1), 81)
                values = [fn(h) for h in hs]
                for i, j in itertools.combinations(range(len(hs)), 2):
                    if hs[i] == centre or hs[j] == centre or i + j == len(hs) - 1:
                        assert fn.bound(hs[i], hs[j]) <= min(values[i : j + 1])
                assert fn.bound(centre, centre) == fn(centre)

    def test_domain(self):
        fn = scaled_diameter_fn(_pair([1.0, 2.0, 3.0], [1.0, 4.0]))
        for first, last in ((0.0, 0.5), (0.5, 1.0001), (-0.2, 0.3)):
            with pytest.raises(ValueError):
                fn.bound(first, last)
