"""Tests for fractional noise covariance and simulation.

Numerical targets were fixed from closed forms or from brute-force
oracles (dense circulants, raw Monte Carlo moments) before being
frozen here; tolerances carry an order-of-magnitude margin over the
observed errors.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurstks import fgn
from hurstks.fgn import (
    EmbeddingError,
    FgnSpec,
    IncrementSample,
    Path,
    embedding_eigenvalues,
    fgn_autocov,
    increments,
    simulate_fbm,
)

BAND = 3.0 / math.sqrt(4096.0)


class TestTypes:
    def test_path_requires_two_points(self):
        with pytest.raises(ValueError):
            Path(values=np.array([0.0]))

    def test_path_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Path(values=np.array([0.0, np.nan]))

    def test_path_len(self):
        assert len(Path(values=np.arange(5.0))) == 5

    def test_increment_sample_rejects_nonpositive_lag(self):
        with pytest.raises(ValueError):
            IncrementSample(values=np.ones(3), lag=0)

    def test_increment_sample_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            IncrementSample(values=np.array([1.0, np.inf]), lag=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hurst": 0.0, "length": 8},
            {"hurst": 1.0, "length": 8},
            {"hurst": 0.5, "length": 1},
            {"hurst": 0.5, "length": 8, "scale": 0.0},
            {"hurst": 0.5, "length": 8, "seed": -1},
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            FgnSpec(**kwargs)


class TestAutocov:
    def test_white_noise_values(self):
        assert fgn_autocov(0.5, 1.0, 0) == 1.0
        assert fgn_autocov(0.5, 1.0, 3) == 0.0

    def test_persistent_lag_one(self):
        want = 0.5 * (2.0**1.6 - 2.0)
        assert fgn_autocov(0.8, 1.0, 1) == pytest.approx(want, rel=1e-12)
        assert fgn_autocov(0.8, 1.0, 1) == pytest.approx(0.51572, abs=1e-5)

    def test_lag_zero_is_scale_squared(self):
        assert fgn_autocov(0.3, 2.0, 0) == pytest.approx(4.0, rel=1e-15)

    def test_antipersistent_negative_at_positive_lags(self):
        assert all(fgn_autocov(0.3, 1.0, q) < 0.0 for q in range(1, 11))
        assert all(fgn_autocov(0.7, 1.0, q) > 0.0 for q in range(1, 11))

    @given(
        h=st.floats(0.05, 0.95),
        q=st.integers(-30, 30),
    )
    def test_even_in_lag(self, h, q):
        assert fgn_autocov(h, 1.3, q) == fgn_autocov(h, 1.3, -q)

    @given(
        h=st.floats(0.05, 0.95),
        m=st.integers(1, 30),
        scale=st.floats(0.5, 3.0),
    )
    def test_partial_sums_recover_block_variance(self, h, m, scale):
        """Var of a sum of m+1 consecutive increments is (m+1)^{2H} s^2."""
        qs = np.arange(-m, m + 1)
        weights = m + 1 - np.abs(qs)
        total = sum(w * fgn_autocov(h, scale, q) for w, q in zip(weights, qs))
        assert total == pytest.approx((m + 1) ** (2.0 * h) * scale**2, rel=1e-9)

    def test_rejects_hurst_outside_open_interval(self):
        with pytest.raises(ValueError):
            fgn_autocov(1.0, 1.0, 1)


class TestEmbedding:
    def test_row_holds_folded_autocovariance(self):
        row, _ = embedding_eigenvalues(0.7, 4)
        want = [fgn_autocov(0.7, 1.0, q) for q in range(5)]
        assert row.size == 8
        assert np.allclose(row[:5], want, rtol=1e-15)
        assert np.allclose(row[5:], want[3:0:-1], rtol=1e-15)

    def test_eigenvalues_match_dense_circulant(self):
        row, eigs = embedding_eigenvalues(0.6, 4)
        n = row.size
        dense = np.empty((n, n))
        for i in range(n):
            dense[i] = np.roll(row, i)
        want = np.sort(np.linalg.eigvalsh(dense))
        assert np.allclose(np.sort(eigs), want, atol=1e-10)

    def test_inverse_transform_recovers_row(self):
        row, eigs = embedding_eigenvalues(0.8, 256)
        back = np.fft.ifft(eigs).real
        assert np.allclose(back, row, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("h", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_eigenvalues_nonnegative(self, h):
        _, eigs = embedding_eigenvalues(h, 1024)
        assert eigs.min() > -1e-8

    def test_size_is_next_power_of_two(self):
        row, _ = embedding_eigenvalues(0.5, 100)
        assert row.size == 256

    @pytest.mark.parametrize("h", [0.0, 1.0, 1.5, -0.2])
    def test_rejects_hurst_outside_open_interval(self, h):
        with pytest.raises(ValueError, match="hurst"):
            embedding_eigenvalues(h, 4)


def _rebuilt(spec):
    # simulate_fbm's path formed from the definition with plain,
    # out-of-place numpy: the folded covariance row, its real FFT, the
    # complex product of the weights and the two normal arrays.  Shares
    # no code with fgn and has no cache.
    n_inc = spec.length - 1
    size = 1
    while size < 2 * n_inc:
        size *= 2
    q = np.arange(size // 2 + 1, dtype=float)
    two_h = 2.0 * spec.hurst
    cov = 0.5 * ((q + 1.0) ** two_h - 2.0 * q**two_h + np.abs(q - 1.0) ** two_h)
    eigs = np.fft.fft(np.concatenate([cov, cov[-2:0:-1]])).real
    z = np.random.default_rng(spec.seed).standard_normal((2, size))
    freq = np.sqrt(np.clip(eigs, 0.0, None) / size) * (z[0] + 1j * z[1])
    noise = spec.scale * np.fft.fft(freq).real[:n_inc]
    return np.concatenate([[0.0], np.cumsum(noise)])


class TestWeightCache:
    """The embedding weights are computed once per (H, length)."""

    SPECS = [
        FgnSpec(hurst=0.2, length=4097, seed=3),
        FgnSpec(hurst=0.5, length=8, seed=0),
        FgnSpec(hurst=0.8, length=1512, scale=0.3, seed=11),
        FgnSpec(hurst=0.35, length=2, scale=2.0, seed=7),
        FgnSpec(hurst=0.95, length=1025, seed=0),
        FgnSpec(hurst=0.01, length=17, seed=4),
        FgnSpec(hurst=0.99, length=4097, scale=0.3, seed=9),
    ]
    # The benchmark's CLI shape; three of them would crowd the others
    # out of the eight-entry cache, so they are checked on their own.
    LONG = [FgnSpec(hurst=h, length=262_145, seed=s) for h, s in ((0.2, 1), (0.5, 2), (0.8, 3))]

    def test_paths_equal_the_uncached_build_on_miss_and_hit(self):
        fgn._embedding_weights.cache_clear()
        for round_ in ("miss", "hit"):
            for k, spec in enumerate(self.SPECS):
                got = simulate_fbm(spec).values
                assert got.tobytes() == _rebuilt(spec).tobytes(), (round_, spec)
                # Another seed of the same shape reuses the weights.
                other = FgnSpec(spec.hurst, spec.length, spec.scale, spec.seed + 1)
                assert simulate_fbm(other).values.tobytes() == _rebuilt(other).tobytes()
                info = fgn._embedding_weights.cache_info()
                if round_ == "miss":
                    assert (info.misses, info.hits) == (k + 1, k + 1)
        info = fgn._embedding_weights.cache_info()
        assert info.misses == len(self.SPECS)
        assert info.hits == 3 * len(self.SPECS)

    def test_long_paths_equal_the_uncached_build(self):
        for spec in self.LONG:
            assert simulate_fbm(spec).values.tobytes() == _rebuilt(spec).tobytes(), spec

    def test_cached_weights_are_read_only(self):
        weights = fgn._embedding_weights(0.5, 16)
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 1.0
        assert fgn._embedding_weights(0.5, 16) is weights

    def test_guard_raises_and_failures_are_not_cached(self, monkeypatch):
        real = embedding_eigenvalues

        def negative(hurst, n_increments):
            row, eigs = real(hurst, n_increments)
            eigs[3] = -10.0 * fgn._EIG_TOL
            return row, eigs

        fgn._embedding_weights.cache_clear()
        monkeypatch.setattr(fgn, "embedding_eigenvalues", negative)
        spec = FgnSpec(hurst=0.45, length=33, seed=0)
        for _ in range(2):
            with pytest.raises(EmbeddingError, match="below"):
                simulate_fbm(spec)
        assert fgn._embedding_weights.cache_info().currsize == 0
        monkeypatch.setattr(fgn, "embedding_eigenvalues", real)
        assert simulate_fbm(spec).values.tobytes() == _rebuilt(spec).tobytes()


def _traced_peak(fn):
    # Peak bytes that fn allocates through tracked allocators (numpy's
    # array data included) above what is already held.
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()


class TestMemory:
    """At 2**18 increments the spectrum holds 2**19 complex points
    (8 MiB); weights and simulation each hold about two of those."""

    N_INC = 2**18
    SPECTRUM = 2 * N_INC * 16

    def test_cold_weights_peak(self):
        fgn._embedding_weights.cache_clear()
        peak = _traced_peak(lambda: fgn._embedding_weights(0.2, self.N_INC))
        assert peak <= 2.25 * self.SPECTRUM, peak / self.SPECTRUM

    def test_warm_simulation_peak(self):
        simulate_fbm(FgnSpec(hurst=0.2, length=self.N_INC + 1, seed=1))
        spec = FgnSpec(hurst=0.2, length=self.N_INC + 1, seed=2)
        peak = _traced_peak(lambda: simulate_fbm(spec))
        assert peak <= 2.25 * self.SPECTRUM, peak / self.SPECTRUM


class TestSimulate:
    def test_starts_at_zero_with_requested_length(self):
        path = simulate_fbm(FgnSpec(hurst=0.6, length=300, seed=1))
        assert path.values[0] == 0.0
        assert len(path) == 300

    def test_deterministic_given_seed(self):
        spec = FgnSpec(hurst=0.7, length=64, seed=123)
        a = simulate_fbm(spec)
        b = simulate_fbm(spec)
        assert np.array_equal(a.values, b.values)

    def test_seeds_decouple_paths(self):
        a = simulate_fbm(FgnSpec(hurst=0.7, length=64, seed=0))
        b = simulate_fbm(FgnSpec(hurst=0.7, length=64, seed=1))
        assert not np.array_equal(a.values, b.values)

    def test_golden_path_brownian(self):
        path = simulate_fbm(FgnSpec(hurst=0.5, length=8, seed=0))
        want = [0.0, -1.064287778791221, -0.17965117835355526, 0.1430004208285559]
        assert np.allclose(path.values[:4], want, rtol=0.0, atol=1e-12)

    def test_golden_path_rough_scaled(self):
        path = simulate_fbm(FgnSpec(hurst=0.3, length=8, scale=2.0, seed=42))
        want = [0.0, -0.479932307917613, -1.11953955264519, -2.4459029892369477]
        assert np.allclose(path.values[:4], want, rtol=0.0, atol=1e-12)

    def test_embedding_guard_clips_rounding_noise(self):
        # Power-of-two fGn embeddings have no materially negative
        # eigenvalues, so simulation must not raise.
        for h in (0.05, 0.5, 0.95):
            simulate_fbm(FgnSpec(hurst=h, length=130, seed=0))

    def test_brownian_increments_look_independent(self):
        z = increments(simulate_fbm(FgnSpec(hurst=0.5, length=4097, seed=11)), 1).values
        r1 = float(z[:-1] @ z[1:] / (z.size - 1)) / float(z @ z / z.size)
        assert abs(r1) < BAND

    def test_persistent_increments_match_theory(self):
        z = increments(simulate_fbm(FgnSpec(hurst=0.8, length=4097, seed=7)), 1).values
        r1 = float(z[:-1] @ z[1:] / (z.size - 1)) / float(z @ z / z.size)
        want = fgn_autocov(0.8, 1.0, 1) / fgn_autocov(0.8, 1.0, 0)
        assert abs(r1 - want) < BAND

    def test_increment_normality(self):
        import scipy.stats

        z = increments(simulate_fbm(FgnSpec(hurst=0.5, length=4097, seed=11)), 1).values
        _, p = scipy.stats.kstest(z / z.std(), "norm")
        assert p > 0.01

    def test_covariance_matches_theory_within_three_ses(self):
        # 150 paths per exponent; raw moments (true mean is zero), so
        # the estimator is unbiased at every lag and 3 Sup-SE bands
        # apply lag by lag.
        for h in (0.3, 0.7):
            per_path = []
            for seed in range(150):
                z = increments(simulate_fbm(FgnSpec(hurst=h, length=513, seed=seed)), 1).values
                n = z.size
                per_path.append([z[: n - q] @ z[q:] / (n - q) for q in range(21)])
            per_path = np.asarray(per_path)
            mean = per_path.mean(axis=0)
            se = per_path.std(axis=0, ddof=1) / math.sqrt(len(per_path))
            theory = np.array([fgn_autocov(h, 1.0, q) for q in range(21)])
            assert np.all(np.abs(mean - theory) <= 3.0 * se)

    @pytest.mark.parametrize("h", [0.4, 0.7])
    def test_self_similar_variance_scaling(self, h):
        # Mean over 100 paths of Var(lag-a) / (a^{2H} Var(lag-1)).
        ratios = {a: [] for a in (2, 8, 50)}
        for seed in range(100):
            path = simulate_fbm(FgnSpec(hurst=h, length=4097, seed=1000 + seed))
            v1 = float(np.mean(np.square(increments(path, 1).values)))
            for a in ratios:
                va = float(np.mean(np.square(increments(path, a).values)))
                ratios[a].append(va / (a ** (2.0 * h) * v1))
        for a, r in ratios.items():
            assert abs(float(np.mean(r)) - 1.0) < 0.1, (h, a)


class TestIncrements:
    def test_unit_lag_differences(self):
        path = Path(values=np.array([0.0, 1.0, 3.0, 6.0]))
        out = increments(path, 1)
        assert np.array_equal(out.values, [1.0, 2.0, 3.0])
        assert out.lag == 1

    def test_coarse_lag_differences(self):
        path = Path(values=np.array([0.0, 1.0, 3.0, 6.0]))
        assert np.array_equal(increments(path, 2).values, [3.0, 5.0])

    def test_constant_path_gives_zeros(self):
        path = Path(values=np.full(10, 2.5))
        assert np.array_equal(increments(path, 3).values, np.zeros(7))

    def test_length_shrinks_by_lag(self):
        path = simulate_fbm(FgnSpec(hurst=0.5, length=50, seed=0))
        assert len(increments(path, 7)) == 43

    @pytest.mark.parametrize("lag", [0, 4, 5])
    def test_lag_bounds(self, lag):
        path = Path(values=np.arange(4.0))
        with pytest.raises(ValueError):
            increments(path, lag)

    @given(st.integers(2, 40), st.integers(1, 39))
    @settings(max_examples=30)
    def test_telescoping_against_path_ends(self, n, lag):
        if lag >= n:
            lag = n - 1
        path = simulate_fbm(FgnSpec(hurst=0.6, length=n, seed=9))
        out = increments(path, lag)
        assert out.values[0] == pytest.approx(path.values[lag] - path.values[0], rel=1e-12)
        assert out.values[-1] == pytest.approx(path.values[-1] - path.values[-1 - lag], rel=1e-12)
