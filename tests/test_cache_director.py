"""Unit tests for CacheDirector headroom computation (§4.2)."""

import pytest

from repro.cachesim.hashfn import ModularSliceHash, haswell_complex_hash
from repro.core.cache_director import (
    CacheDirector,
    DEFAULT_BASE_HEADROOM,
    HeadroomStats,
    UDATA_MAX_SLICES,
    headroom_lines_for_slice,
    pack_headrooms,
    unpack_headroom,
)
from repro.mem.address import CACHE_LINE


class TestHeadroomSearch:
    def test_finds_target_within_eight_lines(self):
        h = haswell_complex_hash(8)
        for base in (0, 0x4000, 0x123400):
            for target in range(8):
                k = headroom_lines_for_slice(base, h, target)
                assert k is not None
                assert 0 <= k < 8
                assert h.slice_of(base + k * CACHE_LINE) == target

    def test_returns_smallest_offset(self):
        h = haswell_complex_hash(8)
        base = 0x8000
        target = h.slice_of(base)
        assert headroom_lines_for_slice(base, h, target) == 0

    def test_unaligned_base_rejected(self):
        with pytest.raises(ValueError):
            headroom_lines_for_slice(0x10, haswell_complex_hash(8), 0)

    def test_bound_respected(self):
        class NeverHash:
            n_slices = 2

            def slice_of(self, address):
                return 0

        assert headroom_lines_for_slice(0, NeverHash(), 1, max_lines=4) is None


class TestUdataPacking:
    def test_roundtrip(self):
        offsets = [3, 0, 7, 1, 5, 2, 6, 4]
        packed = pack_headrooms(offsets)
        for s, expected in enumerate(offsets):
            assert unpack_headroom(packed, s) == expected

    def test_sixteen_slices_fit(self):
        packed = pack_headrooms(list(range(16)))
        assert unpack_headroom(packed, 15) == 15

    def test_too_many_slices_rejected(self):
        with pytest.raises(ValueError):
            pack_headrooms([0] * (UDATA_MAX_SLICES + 1))

    def test_oversized_offset_rejected(self):
        with pytest.raises(ValueError):
            pack_headrooms([16])

    def test_unpack_out_of_range(self):
        with pytest.raises(IndexError):
            unpack_headroom(0, 16)


class TestCacheDirector:
    def make(self):
        h = haswell_complex_hash(8)
        return CacheDirector(h, core_to_slice=list(range(8))), h

    def test_precompute_covers_all_slices(self):
        director, h = self.make()
        bufs = [0x20000, 0x20800, 0x7FFFC0]
        for buf_phys, udata in zip(bufs, director.precompute_udata(bufs)):
            data_base = buf_phys + director.base_headroom
            for target in range(8):
                k = unpack_headroom(udata, target)
                assert h.slice_of(data_base + k * CACHE_LINE) == target

    def test_headroom_places_header_in_core_slice(self):
        director, h = self.make()
        for core in range(8):
            buf_phys = 0x740000
            [udata] = director.precompute_udata([buf_phys])
            headroom = director.headroom_for_core(udata, core)
            assert h.slice_of(buf_phys + headroom) == core

    def test_headroom_is_line_aligned_from_buffer(self):
        director, _ = self.make()
        [udata] = director.precompute_udata([0x4000])
        headroom = director.headroom_for_core(udata, 3)
        assert headroom % CACHE_LINE == 0

    def test_max_headroom_bound(self):
        director, h = self.make()
        # With the XOR hash the displacement never exceeds 7 lines.
        bufs = [b & ~(CACHE_LINE - 1) for b in range(0, 0x10000, 0x1400)]
        for udata in director.precompute_udata(bufs):
            for core in range(8):
                headroom = director.headroom_for_core(udata, core)
                assert headroom <= DEFAULT_BASE_HEADROOM + 7 * CACHE_LINE
                assert headroom <= director.max_headroom

    def test_stats_recorded(self):
        director, _ = self.make()
        [udata] = director.precompute_udata([0])
        director.headroom_for_core(udata, 0)
        director.headroom_for_core(udata, 1)
        summary = director.stats.summary()
        assert summary["count"] == 2
        assert summary["max"] >= summary["median"]

    def test_slow_path_matches_fast_path(self):
        director, h = self.make()
        buf_phys = 0xABC000
        [udata] = director.precompute_udata([buf_phys])
        for target in range(8):
            direct = director.headroom_for_slice_direct(buf_phys, target)
            packed = director.base_headroom + unpack_headroom(udata, target) * CACHE_LINE
            assert direct == packed

    def test_works_with_skylake_hash(self):
        h = ModularSliceHash(18)
        director = CacheDirector(h, core_to_slice=[0, 4, 8, 12, 10, 14, 3, 15], max_lines=16)
        [udata] = director.precompute_udata([0x9000])
        headroom = director.headroom_for_core(udata, 0)
        assert headroom >= director.base_headroom

    def test_invalid_construction(self):
        h = haswell_complex_hash(8)
        with pytest.raises(ValueError):
            CacheDirector(h, core_to_slice=[])
        with pytest.raises(ValueError):
            CacheDirector(h, core_to_slice=[0], base_headroom=100)

    def test_max_lines_must_fit_udata_field(self):
        h = haswell_complex_hash(8)
        # A 4-bit udata64 entry encodes offsets 0..15, i.e. 16 lines.
        with pytest.raises(ValueError):
            CacheDirector(h, core_to_slice=[0], max_lines=17)
        with pytest.raises(ValueError):
            CacheDirector(h, core_to_slice=[0], max_lines=0)
        director = CacheDirector(h, core_to_slice=[0], max_lines=16)
        assert director.max_headroom == DEFAULT_BASE_HEADROOM + 15 * CACHE_LINE

    def test_precompute_rejects_unaligned_buffer(self):
        director, _ = self.make()
        with pytest.raises(ValueError):
            director.precompute_udata([0x4000, 0x4010])

    def test_precompute_takes_a_sequence(self):
        director, _ = self.make()
        assert director.precompute_udata([]) == []
        with pytest.raises(ValueError):
            director.precompute_udata(0x4000)


class TestHeadroomStats:
    def test_empty_summary(self):
        assert HeadroomStats().summary() == {"count": 0}

    def test_percentiles(self):
        stats = HeadroomStats()
        for value in range(1, 101):
            stats.record(value)
        summary = stats.summary()
        assert summary["median"] == 51
        assert summary["p95"] == 96
        assert summary["max"] == 100
