"""Unit tests for the L2 hardware prefetcher models."""

import pytest

from repro.cachesim.prefetch import StreamerPrefetcher
from repro.cachesim.machines import HASWELL_E5_2667V3, build_hierarchy
from repro.mem.address import CACHE_LINE, PAGE_4K


class TestStreamer:
    def test_no_prefetch_on_first_touch(self):
        p = StreamerPrefetcher(degree=2, trigger=2)
        assert p.observe(0) == []

    def test_prefetch_after_trigger(self):
        p = StreamerPrefetcher(degree=2, trigger=2)
        p.observe(0)
        targets = p.observe(CACHE_LINE)
        assert targets == [2 * CACHE_LINE, 3 * CACHE_LINE]

    def test_never_crosses_page_boundary(self):
        p = StreamerPrefetcher(degree=4, trigger=2)
        last = PAGE_4K - CACHE_LINE
        p.observe(last - CACHE_LINE)
        assert p.observe(last) == []

    def test_random_pattern_never_triggers(self):
        p = StreamerPrefetcher(degree=2, trigger=2)
        for line in (0, 5 * CACHE_LINE, 2 * CACHE_LINE, 9 * CACHE_LINE):
            assert p.observe(line) == []

    def test_repeated_line_keeps_state(self):
        p = StreamerPrefetcher(degree=1, trigger=2)
        p.observe(0)
        assert p.observe(0) == []
        assert p.observe(CACHE_LINE) != []

    def test_stream_table_eviction(self):
        p = StreamerPrefetcher(trigger=3, max_pages=2)
        p.observe(0)
        p.observe(CACHE_LINE)  # run length 2 on page 0
        p.observe(PAGE_4K)
        p.observe(2 * PAGE_4K)  # evicts page 0's stream
        p.observe(2 * CACHE_LINE)
        # The page-0 run restarted at 1, so one more ascending touch
        # (run 2) stays below the trigger of 3.
        assert p.observe(3 * CACHE_LINE) == []

    def test_reset(self):
        p = StreamerPrefetcher()
        p.observe(0)
        p.reset()
        assert p.observe(CACHE_LINE) == []

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StreamerPrefetcher(degree=0)
        with pytest.raises(ValueError):
            StreamerPrefetcher(trigger=0)


class TestPrefetcherInHierarchy:
    def test_streamer_accelerates_sequential_reads(self):
        """Sequential scans benefit from the streamer — and therefore
        contiguous (normal) allocation does too, the §8 trade-off."""
        base = 1 << 20
        span = 256 * CACHE_LINE

        plain = build_hierarchy(HASWELL_E5_2667V3)
        cycles_plain = sum(
            plain.access_line(0, base + i * CACHE_LINE).cycles for i in range(256)
        )

        fetching = build_hierarchy(
            HASWELL_E5_2667V3,
            prefetchers=[StreamerPrefetcher(degree=4)] + [None] * 7,
        )
        cycles_fetching = sum(
            fetching.access_line(0, base + i * CACHE_LINE).cycles for i in range(256)
        )
        assert cycles_fetching < cycles_plain

    def test_prefetched_lines_present_in_l2(self):
        fetching = build_hierarchy(
            HASWELL_E5_2667V3,
            prefetchers=[StreamerPrefetcher(degree=2)] + [None] * 7,
        )
        base = 1 << 20
        fetching.access_line(0, base)
        fetching.access_line(0, base + CACHE_LINE)
        assert fetching.l2s[0].contains(base + 2 * CACHE_LINE)
