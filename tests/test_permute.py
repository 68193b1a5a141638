"""Tests for block/uniform permutation schemes and the sample ACF."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurstks.fgn import FgnSpec, IncrementSample, increments, simulate_fbm
from hurstks.permute import (
    SCHEMES,
    DegenerateSampleError,
    PermutationPlan,
    block_indices,
    block_permute,
    sample_acf,
    uniform_sample_permute,
)


def _sample(values, lag=1):
    return IncrementSample(values=np.asarray(values, dtype=float), lag=lag)


class TestPlan:
    def test_scheme_whitelist(self):
        assert set(SCHEMES) == {"block", "uniform_sample"}
        with pytest.raises(ValueError):
            PermutationPlan(scheme="shuffle")

    def test_block_length_positive(self):
        with pytest.raises(ValueError):
            PermutationPlan(scheme="block", block_length=0)

    def test_subsample_size_positive(self):
        with pytest.raises(ValueError):
            PermutationPlan(scheme="uniform_sample", subsample_size=0)

    def test_seed_non_negative(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            PermutationPlan(seed=-1)


class TestBlockIndices:
    def test_identity_permutation_is_identity_map(self):
        idx = block_indices(4, 4, np.array([0, 1, 2, 3]), 0)
        assert np.array_equal(idx, [0, 1, 2, 3])
        values = np.array([5.0, 6.0, 7.0, 8.0])
        assert np.array_equal(values[idx], [5.0, 6.0, 7.0, 8.0])

    def test_swap_within_blocks(self):
        idx = block_indices(4, 2, np.array([1, 0]), 0)
        assert np.array_equal(idx, [1, 0, 3, 2])
        values = np.array([5.0, 6.0, 7.0, 8.0])
        assert np.array_equal(values[idx], [6.0, 5.0, 8.0, 7.0])

    def test_phase_shifts_then_wraps(self):
        idx = block_indices(6, 3, np.array([2, 0, 1]), 1)
        assert np.array_equal(idx, [3, 1, 2, 0, 4, 5])

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            block_indices(6, 3, np.array([0, 0, 1]), 0)

    def test_rejects_block_longer_than_sample(self):
        with pytest.raises(ValueError):
            block_indices(4, 8, np.arange(8), 0)

    @given(
        n_blocks=st.integers(1, 6),
        block_length=st.integers(1, 8),
        phase=st.integers(0, 7),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=60)
    def test_bijection_when_blocks_tile_sample(self, n_blocks, block_length, phase, seed):
        n = n_blocks * block_length
        perm = np.random.default_rng(seed).permutation(block_length)
        idx = block_indices(n, block_length, perm, phase % block_length)
        assert sorted(idx.tolist()) == list(range(n))

    @given(
        n=st.integers(2, 60),
        block_length=st.integers(1, 60),
        phase=st.integers(0, 59),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=60)
    def test_indices_in_range_general_length(self, n, block_length, phase, seed):
        block_length = min(block_length, n)
        perm = np.random.default_rng(seed).permutation(block_length)
        idx = block_indices(n, block_length, perm, phase % block_length)
        assert idx.size == n
        assert idx.min() >= 0 and idx.max() < n


class TestBlockPermute:
    def test_deterministic_given_seed(self):
        sample = _sample(np.random.default_rng(0).standard_normal(512))
        plan = PermutationPlan(scheme="block", block_length=64, seed=3)
        assert np.array_equal(block_permute(sample, plan).values, block_permute(sample, plan).values)

    def test_multiset_and_lag_preserved_when_blocks_tile(self):
        sample = _sample(np.random.default_rng(1).standard_normal(512), lag=3)
        plan = PermutationPlan(scheme="block", block_length=64, seed=5)
        out = block_permute(sample, plan)
        assert out.lag == 3
        assert np.array_equal(np.sort(out.values), np.sort(sample.values))

    def test_seed_changes_output(self):
        sample = _sample(np.random.default_rng(2).standard_normal(512))
        a = block_permute(sample, PermutationPlan(scheme="block", block_length=64, seed=0))
        b = block_permute(sample, PermutationPlan(scheme="block", block_length=64, seed=1))
        assert not np.array_equal(a.values, b.values)

    def test_rejects_block_longer_than_sample(self):
        plan = PermutationPlan(scheme="block", block_length=16)
        with pytest.raises(ValueError):
            block_permute(_sample(np.ones(8)), plan)


class TestUniformSample:
    def test_deterministic_given_seed(self):
        sample = _sample(np.arange(100.0))
        plan = PermutationPlan(scheme="uniform_sample", subsample_size=10, seed=4)
        assert np.array_equal(
            uniform_sample_permute(sample, plan).values,
            uniform_sample_permute(sample, plan).values,
        )

    def test_draws_without_replacement(self):
        sample = _sample(np.arange(1000.0), lag=5)
        plan = PermutationPlan(scheme="uniform_sample", subsample_size=200, seed=0)
        out = uniform_sample_permute(sample, plan)
        assert out.lag == 5
        assert out.values.size == 200
        assert np.unique(out.values).size == 200
        assert np.all(np.isin(out.values, sample.values))

    def test_full_size_is_a_permutation(self):
        sample = _sample(np.arange(50.0))
        plan = PermutationPlan(scheme="uniform_sample", subsample_size=50, seed=9)
        out = uniform_sample_permute(sample, plan)
        assert np.array_equal(np.sort(out.values), sample.values)

    def test_single_draw(self):
        plan = PermutationPlan(scheme="uniform_sample", subsample_size=1, seed=0)
        assert uniform_sample_permute(_sample(np.arange(5.0)), plan).values.size == 1

    def test_rejects_oversized_subsample(self):
        plan = PermutationPlan(scheme="uniform_sample", subsample_size=6, seed=0)
        with pytest.raises(ValueError):
            uniform_sample_permute(_sample(np.arange(5.0)), plan)


class TestSampleAcf:
    def test_hand_computed_short_series(self):
        got = sample_acf(_sample([1.0, 2.0, 3.0, 4.0]), 3)
        assert np.allclose(got, [0.25, -0.3, -0.45], atol=1e-15)

    def test_white_noise_stays_inside_band(self):
        z = np.random.default_rng(5).standard_normal(4096)
        r = sample_acf(_sample(z), 20)
        band = 3.0 / math.sqrt(z.size)
        assert int(np.sum(np.abs(r) < band)) >= 19

    def test_alternating_series_is_antipersistent(self):
        z = np.tile([1.0, -1.0], 512)
        assert sample_acf(_sample(z), 1)[0] < -0.99

    def test_degenerate_constant_series(self):
        with pytest.raises(DegenerateSampleError):
            sample_acf(_sample(np.full(16, 3.0)), 2)

    @pytest.mark.parametrize("max_lag", [0, 4, 5])
    def test_max_lag_bounds(self, max_lag):
        with pytest.raises(ValueError):
            sample_acf(_sample(np.arange(4.0)), max_lag)


def _mean_max_abs_acf(h, n, block_length, n_seeds):
    out = []
    for i in range(n_seeds):
        path = simulate_fbm(FgnSpec(hurst=h, length=n + 1, seed=7000 + i))
        plan = PermutationPlan(scheme="block", block_length=block_length, seed=9000 + i)
        shuffled = block_permute(increments(path, 1), plan)
        out.append(float(np.max(np.abs(sample_acf(shuffled, 20)))))
    return float(np.mean(out))


class TestDecorrelation:
    def test_rough_memory_is_destroyed(self):
        # 100 independent paths, H = 0.2, n = 4096, blocks of 128.
        got = _mean_max_abs_acf(0.2, 4096, 128, 100)
        assert got < 2.5 / math.sqrt(4096.0)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "Within-block covariance survives any permutation of positions: "
            "averaging the lag-(j-i) autocovariance over all pairs (i, j) of "
            "a block gives mean correlation (L^{2H-1}-1)/(L-1), about 0.137 "
            "at H=0.8, L=128. A permuted series therefore keeps its sample "
            "ACF near 0.12 (measured mean of max|ACF(1..20)| = 0.122 over "
            "100 seeds), far above the white-noise band."
        ),
    )
    def test_persistent_memory_is_destroyed(self):
        got = _mean_max_abs_acf(0.8, 4096, 128, 100)
        assert got < 2.5 / math.sqrt(4096.0)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "Same within-block covariance floor: at H=0.8 the permuted "
            "series keeps mean correlation ~(128^{0.6}-1)/127 = 0.137 inside "
            "blocks, so max|ACF(1..20)| lands near 0.12 for every seed (0 of "
            "100 below 3/sqrt(4096) = 0.0469)."
        ),
    )
    def test_persistent_seedwise_pass_rate(self):
        band = 3.0 / math.sqrt(4096.0)
        wins = 0
        for i in range(100):
            path = simulate_fbm(FgnSpec(hurst=0.8, length=4097, seed=7000 + i))
            plan = PermutationPlan(scheme="block", block_length=128, seed=9000 + i)
            shuffled = block_permute(increments(path, 1), plan)
            if float(np.max(np.abs(sample_acf(shuffled, 20)))) < band:
                wins += 1
        assert wins >= 90

    def test_unpermuted_persistent_control(self):
        # Without permutation the lag-1 ACF stays visibly positive.
        band = 10.0 / math.sqrt(4096.0)
        for i in range(100):
            path = simulate_fbm(FgnSpec(hurst=0.8, length=4097, seed=7000 + i))
            assert abs(sample_acf(increments(path, 1), 1)[0]) > band

    @pytest.mark.parametrize("h,want", [(0.3, 0.9857), (0.7, 0.9324)])
    def test_variance_scaling_survives_permutation(self, h, want):
        # Permuting fine and coarse increments must not disturb the a^H
        # standard-deviation ratio between them (20 paths, T = 500).
        a = 50
        ratios = []
        for i in range(20):
            path = simulate_fbm(FgnSpec(hurst=h, length=4097, seed=2000 + i))
            fine = uniform_sample_permute(
                increments(path, 1),
                PermutationPlan(scheme="uniform_sample", subsample_size=500, seed=3000 + i),
            )
            coarse = uniform_sample_permute(
                increments(path, a),
                PermutationPlan(scheme="uniform_sample", subsample_size=500, seed=4000 + i),
            )
            ratios.append(float(np.std(coarse.values) / np.std(fine.values)) / a**h)
        got = float(np.mean(ratios))
        assert got == pytest.approx(want, abs=2e-4)
        assert abs(got - 1.0) < 0.1
