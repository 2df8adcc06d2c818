"""Tests for reuse-distance analysis."""

import numpy as np
import pytest

from repro.stats.reuse import hit_rate_at, reuse_distances


def brute_force_distances(keys):
    out = []
    for i, key in enumerate(keys):
        previous = None
        for j in range(i - 1, -1, -1):
            if keys[j] == key:
                previous = j
                break
        if previous is None:
            out.append(-1)
        else:
            out.append(len(set(keys[previous + 1 : i])))
    return np.array(out)


class TestReuseDistances:
    def test_simple_stream(self):
        # a b a -> a's second access sees 1 distinct key (b).
        assert list(reuse_distances([1, 2, 1])) == [-1, -1, 1]

    def test_immediate_rereference(self):
        assert list(reuse_distances([5, 5])) == [-1, 0]

    def test_all_cold(self):
        assert list(reuse_distances([1, 2, 3])) == [-1, -1, -1]

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 20, 300)
        assert np.array_equal(reuse_distances(keys), brute_force_distances(keys))

    def test_matches_brute_force_zipfish(self):
        rng = np.random.default_rng(1)
        keys = (rng.pareto(1.0, 400) * 3).astype(int)
        assert np.array_equal(reuse_distances(keys), brute_force_distances(keys))

    def test_empty(self):
        assert reuse_distances([]).size == 0


class TestHitRates:
    def test_lru_semantics(self):
        # Stream: 1 2 1 with capacity 1: the re-access to 1 has
        # distance 1 -> miss; capacity 2 -> hit.
        distances = reuse_distances([1, 2, 1])
        assert hit_rate_at(distances, 1) == 0.0
        assert hit_rate_at(distances, 2) == pytest.approx(1 / 3)

    def test_matches_actual_lru_cache_simulation(self):
        """Mattson's property: hit rate at capacity C equals an actual
        C-entry LRU cache's hit rate on the same stream."""
        rng = np.random.default_rng(2)
        keys = rng.zipf(1.3, 2000) % 200
        distances = reuse_distances(keys)
        for capacity in (4, 16, 64):
            cache = {}
            clock = 0
            hits = 0
            for key in keys:
                clock += 1
                if key in cache:
                    hits += 1
                else:
                    if len(cache) >= capacity:
                        victim = min(cache, key=cache.get)
                        del cache[victim]
                cache[key] = clock
            assert hit_rate_at(distances, capacity) == pytest.approx(
                hits / len(keys)
            )

    def test_validation(self):
        distances = reuse_distances([1, 1])
        with pytest.raises(ValueError):
            hit_rate_at(distances, 0)
        with pytest.raises(ValueError):
            hit_rate_at(np.array([]), 4)


class TestFig8CapacityAnalysis:
    def test_zipf_slice_vs_llc_hit_gap(self):
        """The EXPERIMENTS.md Fig. 8 argument, computed: for
        Zipf(0.99) over a large key space, one slice's worth of lines
        captures measurably less of the stream than the whole LLC."""
        from repro.kvs.workload import ZipfKeys

        keys = ZipfKeys(1 << 20, 0.99, seed=0).keys(60_000)
        distances = reuse_distances(keys)
        slice_capacity = 41_000 // 16   # scaled with the keyspace
        llc_capacity = 330_000 // 16
        slice_rate = hit_rate_at(distances, slice_capacity)
        llc_rate = hit_rate_at(distances, llc_capacity)
        assert llc_rate > slice_rate + 0.02

    @staticmethod
    def _capacity_gaps(horizons):
        """LLC-minus-one-slice LRU hit rate over the paper's 2^24-key
        Zipf(0.99) stream, at each request horizon."""
        from repro.kvs.workload import ZipfKeys

        keys = ZipfKeys(1 << 24, 0.99, seed=0).keys(horizons[-1])
        gaps = []
        for horizon in horizons:
            distances = reuse_distances(keys[:horizon])
            gaps.append(hit_rate_at(distances, 327_680) - hit_rate_at(distances, 40_960))
        return gaps

    def test_capacity_gap_opens_with_horizon(self):
        gaps = self._capacity_gaps((15_000, 120_000))
        assert gaps[-1] > gaps[0]

    @pytest.mark.slow
    def test_capacity_gap_at_sustained_load(self):
        """Toward steady state the gap outgrows what the NUCA saving of
        one-slice placement can pay back (EXPERIMENTS.md, Fig. 8)."""
        gaps = self._capacity_gaps((150_000, 1_200_000))
        assert gaps[-1] > gaps[0]
        assert gaps[-1] > 0.04
