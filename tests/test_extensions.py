"""Tests for the vectorised hash path, profile matrix and class sweep."""

import numpy as np
import pytest

from repro.cachesim.hashfn import haswell_complex_hash
from repro.cachesim.machines import HASWELL_E5_2667V3, SKYLAKE_GOLD_6134
from repro.core.profiles import measure_all_cores
from repro.core.slice_aware import SliceAwareContext
from repro.experiments.traffic_classes import run_traffic_class_sweep


class TestVectorisedHash:
    def test_matches_scalar(self):
        h = haswell_complex_hash(8)
        addresses = np.arange(0, 1 << 18, 64, dtype=np.uint64)
        vector = h.slice_of_array(addresses)
        for i in range(0, len(addresses), 97):
            assert vector[i] == h.slice_of(int(addresses[i]))

    def test_matches_scalar_high_addresses(self):
        h = haswell_complex_hash(8)
        base = np.uint64(37 << 30)
        addresses = base + np.arange(0, 1 << 14, 64, dtype=np.uint64)
        vector = h.slice_of_array(addresses)
        for i in range(0, len(addresses), 31):
            assert vector[i] == h.slice_of(int(addresses[i]))

    def test_empty_input(self):
        h = haswell_complex_hash(8)
        assert h.slice_of_array(np.array([], dtype=np.uint64)).size == 0

    def test_allocator_uses_fast_path_consistently(self):
        """The vectorised scan must produce the same allocation stream
        as the scalar would: in-order, slice-pure, no duplicates."""
        from repro.mem.allocator import SliceFilteredAllocator
        from repro.mem.hugepage import PhysicalAddressSpace
        from repro.mem.address import PAGE_2M

        space = PhysicalAddressSpace(seed=0)
        buffer = space.mmap_hugepage(PAGE_2M, page_size=PAGE_2M)
        h = haswell_complex_hash(8)
        allocator = SliceFilteredAllocator(buffer, h)
        lines = allocator.allocate_lines(512, 4)
        assert all(h.slice_of(a) == 4 for a in lines)
        assert lines == sorted(lines)  # address order preserved
        assert len(set(lines)) == 512


class TestLatencyMatrix:
    def test_every_core_prefers_its_slice_haswell(self):
        ctx = SliceAwareContext(HASWELL_E5_2667V3, seed=0)
        profiles = measure_all_cores(
            ctx.hierarchy, ctx.hugepage, ctx.address_space.pagemap, runs=1
        )
        assert len(profiles) == 8
        for profile in profiles:
            assert profile.fastest_slice == profile.core

    def test_matrix_is_symmetric_on_the_ring(self):
        ctx = SliceAwareContext(HASWELL_E5_2667V3, seed=0)
        profiles = measure_all_cores(
            ctx.hierarchy, ctx.hugepage, ctx.address_space.pagemap, runs=1
        )
        for a in range(8):
            for b in range(8):
                assert profiles[a].read_cycles[b] == pytest.approx(
                    profiles[b].read_cycles[a]
                )


class TestTrafficClassSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return run_traffic_class_sweep(packets_per_class=300).points

    def test_covers_table2_sizes(self, points):
        assert [p.packet_size for p in points] == [64, 512, 1024, 1500]

    def test_cachedirector_never_loses(self, points):
        for point in points:
            assert point.improvement_p99_us >= 0.0

    def test_latency_grows_with_size(self, points):
        p99s = [p.dpdk[99] for p in points]
        assert p99s == sorted(p99s)
