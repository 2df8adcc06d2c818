"""Unit tests for slice-latency profiling (§2.2 methodology)."""

import pytest

from repro.cachesim.machines import HASWELL_E5_2667V3, SKYLAKE_GOLD_6134
from repro.core.profiles import (
    derive_preference_table,
    find_lines_with_bits,
    find_set_colliding_lines,
    measure_slice_latencies,
)
from repro.core.slice_aware import SliceAwareContext


@pytest.fixture(scope="module")
def haswell_context():
    return SliceAwareContext(HASWELL_E5_2667V3, seed=0)


class TestLineSearch:
    def test_colliding_lines_share_set_bits(self, haswell_context):
        ctx = haswell_context
        lines = find_set_colliding_lines(ctx.hugepage, ctx.hash.slice_of, 0, 20)
        assert len(lines) == 20
        assert len({a & 0x1FFC0 for a in lines}) == 1
        assert all(ctx.hash.slice_of(a) == 0 for a in lines)

    def test_colliding_lines_distinct(self, haswell_context):
        ctx = haswell_context
        lines = find_set_colliding_lines(ctx.hugepage, ctx.hash.slice_of, 1, 20)
        assert len(set(lines)) == 20

    def test_search_exhaustion(self, haswell_context):
        ctx = haswell_context
        with pytest.raises(LookupError):
            find_set_colliding_lines(ctx.hugepage, ctx.hash.slice_of, 0, 10**7)

    def test_find_lines_with_bits(self, haswell_context):
        lines = find_lines_with_bits(haswell_context.hugepage, 0x1FFC0, 1 << 16, 9)
        assert len(lines) == 9
        assert all((a & 0x1FFC0) == (1 << 16) for a in lines)


class TestLatencyProfile:
    def test_haswell_profile_shape(self, haswell_context):
        ctx = haswell_context
        profile = measure_slice_latencies(
            ctx.hierarchy, ctx.hugepage, ctx.address_space.pagemap, core=0, runs=2
        )
        # Fig. 5a: each core's own slice is cheapest; bimodal pattern.
        assert profile.fastest_slice == 0
        evens = [profile.read_cycles[s] for s in (0, 2, 4, 6)]
        odds = [profile.read_cycles[s] for s in (1, 3, 5, 7)]
        assert max(evens) < min(odds)

    def test_haswell_read_spread_about_20_cycles(self, haswell_context):
        ctx = haswell_context
        profile = measure_slice_latencies(
            ctx.hierarchy, ctx.hugepage, ctx.address_space.pagemap, core=0, runs=2
        )
        assert 15 <= profile.read_spread <= 30

    def test_write_latency_flat(self, haswell_context):
        """Fig. 5b: writes are flat regardless of slice."""
        ctx = haswell_context
        profile = measure_slice_latencies(
            ctx.hierarchy, ctx.hugepage, ctx.address_space.pagemap, core=0, runs=2
        )
        assert max(profile.write_cycles) - min(profile.write_cycles) < 1e-9

    def test_other_core_sees_own_slice_fastest(self, haswell_context):
        ctx = haswell_context
        profile = measure_slice_latencies(
            ctx.hierarchy, ctx.hugepage, ctx.address_space.pagemap, core=3, runs=1
        )
        assert profile.fastest_slice == 3

    def test_skylake_profile(self):
        """Fig. 16: 18 slices on the victim-cache Skylake."""
        ctx = SliceAwareContext(SKYLAKE_GOLD_6134, seed=0)
        profile = measure_slice_latencies(
            ctx.hierarchy, ctx.hugepage, ctx.address_space.pagemap, core=0, runs=1
        )
        assert profile.n_slices == 18
        assert profile.fastest_slice == 0
        # Secondary slices (Table 4: S2, S6) come next.
        ordered = sorted(range(18), key=profile.read_cycles.__getitem__)
        assert set(ordered[1:3]) == {2, 6}


class TestPreferenceTable:
    def test_haswell_table(self):
        table = derive_preference_table(HASWELL_E5_2667V3.interconnect_factory())
        for core in range(8):
            primary, _ = table[core]
            assert primary == core

    def test_skylake_table_matches_paper_table4(self):
        table = derive_preference_table(SKYLAKE_GOLD_6134.interconnect_factory())
        assert table[0] == (0, (2, 6))
        assert table[1] == (4, (1,))
        assert table[2] == (8, (11,))
        assert table[3] == (12, (13,))
        assert table[4] == (10, (7, 9))
        assert table[5] == (14, (16,))
        assert table[6] == (3, (5,))
        assert table[7] == (15, (17,))
