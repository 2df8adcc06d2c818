"""Unit tests for the machine models (Table 1 geometry, §6 Skylake)."""

import pytest

from repro.cachesim.hashfn import ComplexAddressingHash, ModularSliceHash
from repro.cachesim.interconnect import preferred_slices
from repro.cachesim.machines import (
    HASWELL_E5_2667V3,
    SKYLAKE_GOLD_6134,
    SKYLAKE_PRIMARY_SLICES,
    SKYLAKE_SECONDARY_SLICES,
    build_hierarchy,
)


class TestHaswellSpec:
    """Geometry from the paper's Table 1."""

    def test_llc_slice_is_2_5_mb(self):
        assert HASWELL_E5_2667V3.llc_slice_bytes == int(2.5 * 1024 * 1024)

    def test_llc_slice_geometry(self):
        assert HASWELL_E5_2667V3.llc_ways == 20
        assert HASWELL_E5_2667V3.llc_sets == 2048

    def test_l2_is_256_kb_8way(self):
        assert HASWELL_E5_2667V3.l2_bytes == 256 * 1024
        assert HASWELL_E5_2667V3.l2_ways == 8
        assert HASWELL_E5_2667V3.l2_sets == 512

    def test_l1_is_32_kb_8way(self):
        assert HASWELL_E5_2667V3.l1_bytes == 32 * 1024
        assert HASWELL_E5_2667V3.l1_ways == 8
        assert HASWELL_E5_2667V3.l1_sets == 64

    def test_total_llc(self):
        assert HASWELL_E5_2667V3.llc_bytes == 8 * int(2.5 * 1024 * 1024)

    def test_inclusive(self):
        assert HASWELL_E5_2667V3.inclusive

    def test_uses_published_hash(self):
        assert isinstance(HASWELL_E5_2667V3.hash_factory(), ComplexAddressingHash)

    def test_frequency_conversions(self):
        spec = HASWELL_E5_2667V3
        assert spec.freq_hz == pytest.approx(3.2e9)
        assert spec.cycles_to_seconds(3.2e9) == pytest.approx(1.0)


class TestSkylakeSpec:
    """§6: quadrupled L2, 1.375 MB slices, 18 slices, non-inclusive."""

    def test_l2_is_1_mb(self):
        assert SKYLAKE_GOLD_6134.l2_bytes == 1024 * 1024

    def test_slice_is_1_375_mb(self):
        assert SKYLAKE_GOLD_6134.llc_slice_bytes == int(1.375 * 1024 * 1024)

    def test_18_slices_8_cores(self):
        assert SKYLAKE_GOLD_6134.n_slices == 18
        assert SKYLAKE_GOLD_6134.n_cores == 8

    def test_non_inclusive(self):
        assert not SKYLAKE_GOLD_6134.inclusive

    def test_uses_modular_hash(self):
        assert isinstance(SKYLAKE_GOLD_6134.hash_factory(), ModularSliceHash)

    def test_table4_primary_slices(self):
        interconnect = SKYLAKE_GOLD_6134.interconnect_factory()
        for core, primary in SKYLAKE_PRIMARY_SLICES.items():
            assert preferred_slices(interconnect, core)[0] == primary

    def test_table4_secondary_slices(self):
        interconnect = SKYLAKE_GOLD_6134.interconnect_factory()
        for core, secondaries in SKYLAKE_SECONDARY_SLICES.items():
            order = preferred_slices(interconnect, core)
            assert set(order[1 : 1 + len(secondaries)]) == set(secondaries)


class TestBuildHierarchy:
    def test_builds_runnable_machine(self):
        h = build_hierarchy(HASWELL_E5_2667V3)
        assert h.n_cores == 8
        assert h.llc.n_slices == 8
        result = h.access_line(0, 0)
        assert result.level == "dram"

    def test_skylake_builds(self):
        h = build_hierarchy(SKYLAKE_GOLD_6134)
        assert h.llc.n_slices == 18
        assert not h.inclusive

    def test_ddio_override(self):
        h = build_hierarchy(HASWELL_E5_2667V3, ddio_ways=4)
        assert len(h.llc.ddio_way_tuple) == 4

    def test_latency_override(self):
        from repro.cachesim.hierarchy import LatencySpec

        h = build_hierarchy(HASWELL_E5_2667V3, latency=LatencySpec(l1_hit=7))
        assert h.latency.l1_hit == 7

    def test_capacity_matches_spec(self):
        h = build_hierarchy(HASWELL_E5_2667V3)
        assert h.llc.capacity_bytes == HASWELL_E5_2667V3.llc_bytes
        assert h.l1s[0].capacity_bytes == HASWELL_E5_2667V3.l1_bytes
        assert h.l2s[0].capacity_bytes == HASWELL_E5_2667V3.l2_bytes
