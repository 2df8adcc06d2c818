"""Tests for the ablation/extension experiments and new policies."""

import pytest

from repro.cachesim.cache import WayCache
from repro.cachesim.replacement import BrripPolicy, SrripPolicy, make_policy
from repro.experiments.ablations import (
    run_ddio_ways_ablation,
    run_migration_experiment,
    run_mtu_eviction_experiment,
    run_prefetcher_ablation,
    run_replacement_ablation,
    run_value_size_ablation,
)
from repro.mem.address import CACHE_LINE


class TestSrripPolicy:
    def test_victim_prefers_distant_rrpv(self):
        srrip = SrripPolicy(4)
        srrip.reset(0)
        srrip.touch(0)  # rrpv 0
        srrip.reset(1)  # rrpv 2
        # Ways 2, 3 never filled: still at max rrpv -> first victims.
        assert srrip.victim(range(4)) in (2, 3)

    def test_aging_when_no_max(self):
        srrip = SrripPolicy(2)
        srrip.touch(0)
        srrip.touch(1)
        victim = srrip.victim(range(2))  # ages both to max
        assert victim in (0, 1)

    def test_hit_protects(self):
        srrip = SrripPolicy(2)
        srrip.reset(0)
        srrip.reset(1)
        srrip.touch(0)
        assert srrip.victim(range(2)) == 1

    def test_mask_respected(self):
        srrip = SrripPolicy(8)
        for way in range(8):
            srrip.reset(way)
        for _ in range(20):
            assert srrip.victim([3, 5]) in (3, 5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            SrripPolicy(0)
        with pytest.raises(ValueError):
            SrripPolicy(4, bits=0)
        with pytest.raises(ValueError):
            SrripPolicy(4).victim([])

    def test_scan_resistance(self):
        """A one-hit-wonder stream must not flush re-referenced lines:
        the defining property vs LRU."""
        lru_cache = WayCache(1, 4, policy="lru")
        srrip_cache = WayCache(1, 4, policy="srrip")
        hot = 0
        for cache in (lru_cache, srrip_cache):
            cache.insert(hot * CACHE_LINE)
            for _ in range(3):
                cache.lookup(hot * CACHE_LINE)
        # Scan 6 cold lines through both.
        for i in range(1, 7):
            lru_cache.insert(i * CACHE_LINE)
            srrip_cache.insert(i * CACHE_LINE)
        assert not lru_cache.contains(hot * CACHE_LINE)   # LRU flushed it
        assert srrip_cache.contains(hot * CACHE_LINE)     # SRRIP kept it


class TestBrripPolicy:
    def test_most_inserts_evict_soon(self):
        brrip = BrripPolicy(4, long_fraction=0.0 + 1e-9, seed=1)
        brrip.reset(0)
        assert brrip._rrpv[0] == brrip.max_rrpv

    def test_long_fraction_validated(self):
        with pytest.raises(ValueError):
            BrripPolicy(4, long_fraction=0.0)

    def test_factory(self):
        assert isinstance(make_policy("srrip", 8), SrripPolicy)
        assert isinstance(make_policy("brrip", 8), BrripPolicy)


class TestDdioWaysAblation:
    def test_disabled_ddio_is_most_expensive(self):
        results = run_ddio_ways_ablation(ways_options=(0, 2), micro_packets=300)
        assert results[0] > results[2]

    def test_more_ways_never_hurt_much(self):
        results = run_ddio_ways_ablation(ways_options=(2, 8), micro_packets=300)
        assert results[8] <= results[2] * 1.05

    def test_more_ways_keep_more_of_the_backlog(self):
        """A backlog of distinct buffers outgrows 2 I/O ways, so the way
        count shows (one packet at a time it reused a single mbuf)."""
        results = run_ddio_ways_ablation(ways_options=(2, 8), micro_packets=2000)
        assert results[8] < results[2]


class TestPrefetcherAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_prefetcher_ablation(n_lines=4096, n_ops=2500)

    def test_streamer_accelerates_sequential_normal(self, result):
        assert result.speedup("sequential", "normal") > 20.0

    def test_streamer_useless_for_scattered_slices(self, result):
        """§8: prefetchers are built for contiguous layouts."""
        assert abs(result.speedup("sequential", "slice")) < 5.0

    def test_streamer_useless_for_random(self, result):
        assert abs(result.speedup("random", "normal")) < 5.0


class TestValueSizeAblation:
    def test_multi_line_values_stay_slice_local(self):
        from repro.cachesim.machines import HASWELL_E5_2667V3
        from repro.core.slice_aware import SliceAwareContext
        from repro.kvs.store import KvsStore

        ctx = SliceAwareContext(HASWELL_E5_2667V3, seed=0)
        store = KvsStore(ctx, core=0, n_keys=256, slice_aware=True, value_size=256)
        for key in (0, 17, 255):
            addresses = store.value_addresses(key)
            assert len(addresses) == 4
            assert all(ctx.hash.slice_of(a) == store.target_slice for a in addresses)

    def test_values_do_not_overlap(self):
        from repro.cachesim.machines import HASWELL_E5_2667V3
        from repro.core.slice_aware import SliceAwareContext
        from repro.kvs.store import KvsStore

        ctx = SliceAwareContext(HASWELL_E5_2667V3, seed=0)
        store = KvsStore(ctx, core=0, n_keys=64, slice_aware=True, value_size=128)
        seen = set()
        for key in range(64):
            for address in store.value_addresses(key):
                assert address not in seen
                seen.add(address)

    def test_invalid_value_size(self):
        from repro.cachesim.machines import HASWELL_E5_2667V3
        from repro.core.slice_aware import SliceAwareContext
        from repro.kvs.store import KvsStore

        ctx = SliceAwareContext(HASWELL_E5_2667V3, seed=0)
        with pytest.raises(ValueError):
            KvsStore(ctx, core=0, n_keys=4, slice_aware=False, value_size=100)

    def test_ablation_runs(self):
        results = run_value_size_ablation(
            value_sizes=(64, 128), n_keys=1 << 14, warmup=4000, measured=1500
        )
        # Larger values cost more lines -> lower TPS.
        assert results[128]["normal"] < results[64]["normal"]


class TestMtuEviction:
    def test_deeper_queue_evicts_more(self):
        shallow = run_mtu_eviction_experiment(queue_depth=64)
        deep = run_mtu_eviction_experiment(queue_depth=768)
        assert deep.eviction_fraction >= shallow.eviction_fraction
        assert deep.mean_read_cycles > shallow.mean_read_cycles

    def test_small_packets_rarely_evicted(self):
        small = run_mtu_eviction_experiment(queue_depth=512, packet_size=64)
        big = run_mtu_eviction_experiment(queue_depth=512, packet_size=1500)
        assert small.eviction_fraction <= big.eviction_fraction

    def test_deep_queue_evicts_mtu_headers_not_small_ones(self):
        """§8: full-MTU DDIO churn under a deep queue evicts enqueued
        headers before the core polls them; 64 B frames do not."""
        deep = run_mtu_eviction_experiment(queue_depth=768, packet_size=1500)
        small = run_mtu_eviction_experiment(queue_depth=768, packet_size=64)
        assert deep.eviction_fraction > small.eviction_fraction


class TestMigrationExperiment:
    """§8: hot-set drift, static slice placement vs monitored migration."""

    def test_placement_helps_under_fast_and_slow_drift(self):
        fast = run_migration_experiment(ops_per_phase=4_000)
        slow = run_migration_experiment(ops_per_phase=16_000)
        assert fast.static_slice < fast.normal
        assert slow.migrating < slow.normal

    @pytest.mark.slow
    def test_migration_amortises_its_copies_on_slow_drift(self):
        """Migration gains on slow drift relative to fast drift and is
        at least competitive with static placement there; both need
        phases long enough for the monitor to promote."""
        fast = run_migration_experiment(ops_per_phase=40_000)
        slow = run_migration_experiment(ops_per_phase=160_000)
        assert fast.static_slice < fast.normal
        assert slow.migrating < slow.normal
        assert slow.migration_gain_pct() > fast.migration_gain_pct() - 0.5
        assert slow.migration_gain_pct() > -2.0


class TestReplacementAblation:
    def test_rrip_protects_hot_set(self):
        # The hot set must exceed the 4096-line L2 (else every hot hit
        # is an L2 hit) and hot+scan must exceed the 40960-line slice
        # (else the LLC never evicts) for the policy to matter.
        results = run_replacement_ablation(
            hot_lines=8192, scan_lines=1 << 17, rounds=4
        )
        assert results["srrip"]["hot_cycles"] < results["lru"]["hot_cycles"]
        assert results["brrip"]["hot_cycles"] <= results["srrip"]["hot_cycles"]

    def test_hit_rates_reported(self):
        results = run_replacement_ablation(
            policies=("lru",), hot_lines=2048, scan_lines=1 << 14, rounds=1
        )
        assert 0.0 <= results["lru"]["llc_hit_rate"] <= 1.0


class TestMultitenant:
    def test_slice_partitioning_protects_polite_tenant(self):
        from repro.experiments.multitenant import run_multitenant_experiment

        results = run_multitenant_experiment(n_ops=800)
        polite = {p: r.tenant_cycles[0] for p, r in results.items()}
        assert polite["slice"] < polite["shared"]

    def test_result_metrics(self):
        from repro.experiments.multitenant import TenantResult

        r = TenantResult(tenant_cycles=[10.0, 20.0, 40.0])
        assert r.mean == pytest.approx(70 / 3)
        assert r.worst == 40.0
        assert r.unfairness == pytest.approx(4.0)
