"""Unit tests for the sliced LLC."""

import pytest

from repro.cachesim.cat import CatController
from repro.cachesim.counters import (
    EVENT_DDIO_FILLS,
    EVENT_FILLS,
    EVENT_HITS,
    EVENT_LOOKUPS,
    EVENT_MISSES,
)
from repro.cachesim.hashfn import haswell_complex_hash
from repro.cachesim.interconnect import RingInterconnect
from repro.cachesim.llc import SlicedLLC
from repro.mem.address import CACHE_LINE


def make_llc(n_sets=16, n_ways=4, ddio_ways=2, cat=None):
    return SlicedLLC(
        slice_hash=haswell_complex_hash(8),
        interconnect=RingInterconnect(),
        n_sets=n_sets,
        n_ways=n_ways,
        base_latency=34,
        ddio_ways=ddio_ways,
        cat=cat,
    )


def line_in_slice(llc, target, start=0):
    address = start
    while llc.slice_of(address) != target:
        address += CACHE_LINE
    return address


class TestSlicedLLC:
    def test_slice_count_consistency(self):
        llc = make_llc()
        assert llc.n_slices == 8
        assert len(llc.slices) == 8

    def test_mismatched_hash_and_interconnect(self):
        from repro.cachesim.hashfn import ModularSliceHash

        with pytest.raises(ValueError):
            SlicedLLC(
                slice_hash=ModularSliceHash(18),
                interconnect=RingInterconnect(),  # 8 slices
                n_sets=16,
                n_ways=4,
            )

    def test_lookup_routes_to_hashed_slice(self):
        llc = make_llc()
        address = line_in_slice(llc, 5)
        llc.fill(address)
        hit, slice_index = llc.lookup(address)
        assert hit
        assert slice_index == 5
        assert llc.slices[5].contains(address)
        assert not llc.slices[4].contains(address)

    def test_counters_on_lookup(self):
        llc = make_llc()
        address = line_in_slice(llc, 3)
        llc.lookup(address)  # miss
        llc.fill(address)
        llc.lookup(address)  # hit
        counters = llc.counters.slices[3]
        assert counters.read(EVENT_LOOKUPS) == 2
        assert counters.read(EVENT_MISSES) == 1
        assert counters.read(EVENT_HITS) == 1
        assert counters.read(EVENT_FILLS) == 1

    def test_access_latency_includes_nuca(self):
        llc = make_llc()
        assert llc.access_latency(0, 0) == 34
        assert llc.access_latency(0, 1) == 34 + llc.interconnect.latency(0, 1)

    def test_io_fill_confined_to_ddio_ways(self):
        llc = make_llc(n_sets=16, n_ways=4, ddio_ways=2)
        assert llc.ddio_way_tuple == (2, 3)
        address = line_in_slice(llc, 0)
        llc.fill(address, io=True)
        assert llc.slices[0].way_of(address) in (2, 3)
        assert llc.counters.slices[0].read(EVENT_DDIO_FILLS) == 1

    def test_io_fills_evict_only_ddio_ways(self):
        llc = make_llc(n_sets=1, n_ways=4, ddio_ways=2)
        # Fill one core line into a non-DDIO way first.
        stride = CACHE_LINE * 1  # all lines with same set index in slice
        core_lines = []
        io_lines = []
        address = 0
        while len(core_lines) < 2 or len(io_lines) < 3:
            if llc.slice_of(address) == 0:
                if len(core_lines) < 2:
                    core_lines.append(address)
                else:
                    io_lines.append(address)
            address += CACHE_LINE
        for a in core_lines:
            llc.fill(a)
        for a in io_lines:
            llc.fill(a, io=True)
        # Core lines must have survived the I/O churn.
        for a in core_lines:
            assert llc.slices[0].contains(a)

    def test_cat_mask_applies_to_core_fills(self):
        cat = CatController(4, 8)
        cat.define_clos(1, 0b0001)
        cat.assign_core(0, 1)
        llc = make_llc(n_ways=4, cat=cat)
        address = line_in_slice(llc, 0)
        llc.fill(address, core=0)
        assert llc.slices[0].way_of(address) == 0

    def test_invalidate(self):
        llc = make_llc()
        address = line_in_slice(llc, 1)
        llc.fill(address, dirty=True)
        assert llc.invalidate(address) is True
        assert llc.invalidate(address) is None

    def test_occupancy_helpers(self):
        llc = make_llc()
        addresses = [line_in_slice(llc, s) for s in range(8)]
        for a in addresses:
            llc.fill(a)
        assert llc.occupancy() == 8
        assert llc.slice_occupancy() == [1] * 8
        llc.flush()
        assert llc.occupancy() == 0

    def test_capacity(self):
        llc = make_llc(n_sets=16, n_ways=4)
        assert llc.slice_capacity_bytes == 16 * 4 * CACHE_LINE
        assert llc.capacity_bytes == 8 * 16 * 4 * CACHE_LINE

    def test_invalid_ddio_ways(self):
        with pytest.raises(ValueError):
            make_llc(n_ways=4, ddio_ways=5)
