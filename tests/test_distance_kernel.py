"""Sliding-window kernel vs the naive closest-match oracle, and cache behavior.

:class:`SlidingWindowStats` must reproduce the explicit z-norm-per-
window reference in :mod:`tests.oracles` and the scalar early-
abandoning ``best_match_scalar`` (and stay bitwise identical to
``batch_distance_profiles``, which now delegates to it) on random data,
degenerate flat windows, and over-long patterns — and never emit NaNs.
The tolerance model lives in the oracles module, shared with the FFT
property suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distance.best_match import (
    batch_best_distances,
    batch_distance_profiles,
    best_match_scalar,
    distance_profile,
)
from repro.runtime import (
    SlidingWindowStats,
    WindowStatsCache,
    resample_pattern,
    sliding_best_distances,
)
from repro.runtime.kernel import prenormalize_pattern
from tests.oracles import (
    assert_argmin_equal,
    assert_profiles_close,
    naive_best_distances,
    naive_profiles,
)


@pytest.fixture()
def rng() -> np.random.Generator:
    # Deliberately shadows the session-scoped conftest fixture: a fresh
    # per-test generator keeps this module from shifting the shared
    # random stream other test modules' data depends on.
    return np.random.default_rng(987)


class TestKernelVsOracle:
    def test_profiles_match_brute_force(self, rng):
        X = rng.standard_normal((7, 50))
        for length in (2, 5, 17, 50):
            stats = SlidingWindowStats(X, length)
            pattern = rng.standard_normal(length)
            profiles = stats.profiles(pattern)
            assert profiles.shape == (7, 50 - length + 1)
            expected = naive_profiles(pattern, X)
            assert_profiles_close(profiles, expected, err_msg=f"length={length}")
            assert_argmin_equal(profiles, expected)
            for i in range(X.shape[0]):
                np.testing.assert_allclose(
                    profiles[i], distance_profile(pattern, X[i]), atol=1e-8
                )

    def test_best_distances_match_scalar_oracle(self, rng):
        X = rng.standard_normal((6, 40)) * 3.0 + 10.0
        pattern = rng.standard_normal(9)
        stats = SlidingWindowStats(X, 9)
        best = stats.best_distances(pattern)
        assert_profiles_close(best, naive_best_distances(pattern, X))
        for i in range(X.shape[0]):
            oracle = best_match_scalar(pattern, X[i]).distance
            assert best[i] == pytest.approx(oracle, abs=1e-6)

    def test_bitwise_identical_to_batch_profiles(self, rng):
        X = rng.standard_normal((5, 64))
        pattern = rng.standard_normal(12)
        stats = SlidingWindowStats(X, 12)
        assert np.array_equal(stats.profiles(pattern), batch_distance_profiles(pattern, X))

    def test_flat_windows_against_pattern(self, rng):
        X = np.full((3, 20), 7.5)  # every window degenerate
        pattern = rng.standard_normal(6)
        stats = SlidingWindowStats(X, 6)
        profiles = stats.profiles(pattern)
        # Flat window vs z-normed pattern: dist² = Σ q² = L.
        np.testing.assert_allclose(profiles, np.sqrt(6.0))
        assert_profiles_close(profiles, naive_profiles(pattern, X))

    def test_flat_pattern_against_flat_and_nonflat(self, rng):
        flat_rows = np.full((2, 15), 2.0)
        noisy_rows = rng.standard_normal((2, 15)) * 4.0
        pattern = np.full(5, 3.0)
        assert np.all(SlidingWindowStats(flat_rows, 5).profiles(pattern) == 0.0)
        np.testing.assert_allclose(
            SlidingWindowStats(noisy_rows, 5).profiles(pattern), np.sqrt(5.0)
        )

    def test_pattern_longer_than_series_resampled(self, rng):
        X = rng.standard_normal((4, 12))
        long_pattern = rng.standard_normal(30)
        via_helper = sliding_best_distances(long_pattern, X)
        via_batch = batch_best_distances(long_pattern, X)
        assert np.array_equal(via_helper, via_batch)
        assert_profiles_close(via_helper, naive_best_distances(long_pattern, X))
        resampled = resample_pattern(long_pattern, 12)
        assert resampled.size == 12
        # Endpoints survive linear resampling.
        assert resampled[0] == long_pattern[0] and resampled[-1] == long_pattern[-1]

    @pytest.mark.parametrize("scale,offset", [(1.0, 0.0), (1e4, 1e6), (1e-6, 0.0)])
    def test_nan_free_on_adversarial_inputs(self, rng, scale, offset):
        X = rng.standard_normal((5, 30)) * scale + offset
        X[0] = offset  # one entirely flat row
        X[1, :10] = offset  # partially flat row
        for pattern in (rng.standard_normal(8), np.zeros(8), np.full(8, 5.0)):
            profiles = SlidingWindowStats(X, 8).profiles(pattern)
            assert np.all(np.isfinite(profiles))
            assert np.all(profiles >= 0.0)

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ValueError):
            SlidingWindowStats(rng.standard_normal(10), 4)  # 1-D series
        with pytest.raises(ValueError):
            SlidingWindowStats(rng.standard_normal((3, 10)), 1)  # window < 2
        with pytest.raises(ValueError):
            SlidingWindowStats(rng.standard_normal((3, 10)), 11)  # window > m
        stats = SlidingWindowStats(rng.standard_normal((3, 10)), 4)
        with pytest.raises(ValueError):
            stats.profiles(rng.standard_normal(5))  # wrong pattern length

    def test_stats_reuse_across_patterns(self, rng):
        """One stats object serves many patterns of its length."""
        X = rng.standard_normal((4, 32))
        stats = SlidingWindowStats(X, 10)
        for _ in range(5):
            pattern = rng.standard_normal(10)
            assert np.array_equal(
                stats.best_distances(pattern), batch_best_distances(pattern, X)
            )


class TestSharedPrefixAndBatchedTail:
    """Bitwise pins for the helpers the de-duplication block relies on."""

    @staticmethod
    def _bank(rng, length):
        bank = [rng.standard_normal(length) for _ in range(4)]
        bank.append(np.full(length, 2.5))  # flat pattern
        return [prenormalize_pattern(p) for p in bank]

    @staticmethod
    def _matrix(rng):
        X = rng.standard_normal((5, 30)) * 3 + 50
        X[1, 4:16] = 7.0  # flat windows inside a row
        X[3] = -1.0  # an all-flat row
        return X

    def test_over_lengths_equals_separate_builds(self, rng):
        X = self._matrix(rng)
        lengths = [2, 5, 12, 30]
        for shared, length in zip(SlidingWindowStats.over_lengths(X, lengths), lengths):
            alone = SlidingWindowStats(X, length)
            for pre in self._bank(rng, length):
                assert np.array_equal(
                    shared.profiles_prenormalized(pre), alone.profiles_prenormalized(pre)
                )

    def test_batch_matvec_equals_per_pattern(self, rng):
        X = self._matrix(rng)
        for length in (3, 9):
            stats = SlidingWindowStats(X, length)
            bank = self._bank(rng, length)
            batch = stats.batch_profiles_prenormalized(bank, backend="matvec")
            for i, pre in enumerate(bank):
                assert np.array_equal(batch[i], stats.profiles_prenormalized(pre))

    def test_rows_are_independent(self, rng):
        """A row's profile does not depend on the other rows of the matrix."""
        X = self._matrix(rng)
        bank = self._bank(rng, 6)
        full = SlidingWindowStats(X, 6).batch_profiles_prenormalized(bank, backend="matvec")
        for r in range(X.shape[0]):
            alone = SlidingWindowStats(X[r : r + 1], 6)
            one = alone.batch_profiles_prenormalized(bank, backend="matvec")
            assert np.array_equal(full[:, r : r + 1], one)


class TestWindowStatsCache:
    def test_hit_and_miss_counters(self, rng):
        X = rng.standard_normal((4, 30))
        cache = WindowStatsCache(max_entries=4)
        first = cache.stats(X, 8)
        assert (cache.hits, cache.misses) == (0, 1)
        second = cache.stats(X, 8)
        assert second is first
        assert (cache.hits, cache.misses) == (1, 1)
        cache.stats(X, 12)
        assert (cache.hits, cache.misses) == (1, 2)

    def test_lru_eviction(self, rng):
        X = rng.standard_normal((3, 40))
        cache = WindowStatsCache(max_entries=2)
        a = cache.stats(X, 4)
        cache.stats(X, 5)
        cache.stats(X, 6)  # evicts length-4 entry (LRU)
        assert cache.evictions == 1
        assert len(cache) == 2
        assert cache.stats(X, 5) is not None  # still cached
        assert cache.hits == 1
        refetched = cache.stats(X, 4)  # rebuilt, not the old object
        assert refetched is not a

    def test_recency_updates_on_hit(self, rng):
        X = rng.standard_normal((3, 40))
        cache = WindowStatsCache(max_entries=2)
        a = cache.stats(X, 4)
        cache.stats(X, 5)
        assert cache.stats(X, 4) is a  # touch length 4 → length 5 is now LRU
        cache.stats(X, 6)
        assert cache.stats(X, 4) is a  # survived the eviction
        assert cache.evictions == 1

    def test_different_data_never_aliases(self, rng):
        X = rng.standard_normal((4, 30))
        Y = X.copy()
        Y[0, 0] += 1.0
        cache = WindowStatsCache(max_entries=8)
        cache.stats(X, 8)
        cache.stats(Y, 8)
        assert cache.misses == 2 and cache.hits == 0
        assert WindowStatsCache.token(X) != WindowStatsCache.token(Y)
        assert WindowStatsCache.token(X) == WindowStatsCache.token(X.copy())

    def test_zero_size_disables_caching(self, rng):
        X = rng.standard_normal((3, 20))
        cache = WindowStatsCache(max_entries=0)
        a = cache.stats(X, 5)
        b = cache.stats(X, 5)
        assert a is not b
        assert len(cache) == 0 and cache.misses == 2

    def test_cached_results_identical_to_uncached(self, rng):
        X = rng.standard_normal((5, 40))
        cache = WindowStatsCache(max_entries=4)
        pattern = rng.standard_normal(11)
        cached = sliding_best_distances(pattern, X, cache=cache)
        again = sliding_best_distances(pattern, X, cache=cache)
        uncached = sliding_best_distances(pattern, X)
        assert np.array_equal(cached, uncached)
        assert np.array_equal(cached, again)
        assert cache.hits >= 1

    def test_clear(self, rng):
        X = rng.standard_normal((3, 20))
        cache = WindowStatsCache(max_entries=4)
        cache.stats(X, 5)
        cache.clear()
        assert len(cache) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            WindowStatsCache(max_entries=-1)
