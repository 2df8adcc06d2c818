"""Unit tests for NUCA interconnect models."""

import pytest

from repro.cachesim.interconnect import (
    RingInterconnect,
    TableInterconnect,
    preferred_slices,
)


class TestRingInterconnect:
    def test_own_slice_is_free(self):
        ring = RingInterconnect()
        for core in range(8):
            assert ring.latency(core, core) == 0

    def test_bimodal_pattern_from_core0(self):
        """Even slices must all be cheaper than every odd slice."""
        ring = RingInterconnect()
        evens = [ring.latency(0, s) for s in (0, 2, 4, 6)]
        odds = [ring.latency(0, s) for s in (1, 3, 5, 7)]
        assert max(evens) < min(odds)

    def test_spread_is_about_twenty_cycles(self):
        ring = RingInterconnect()
        latencies = [ring.latency(0, s) for s in range(8)]
        assert 18 <= max(latencies) - min(latencies) <= 26

    def test_symmetry(self):
        ring = RingInterconnect()
        for core in range(8):
            for s in range(8):
                assert ring.latency(core, s) == ring.latency(s, core)

    def test_same_pattern_for_all_cores(self):
        """The paper: 'Results for all of the cores follow the same
        behavior' — each core sees its own slice cheapest."""
        ring = RingInterconnect()
        for core in range(8):
            order = preferred_slices(ring, core)
            assert order[0] == core

    def test_out_of_range(self):
        ring = RingInterconnect()
        with pytest.raises(IndexError):
            ring.latency(8, 0)
        with pytest.raises(IndexError):
            ring.latency(0, 8)

    def test_odd_stop_count_rejected(self):
        with pytest.raises(ValueError):
            RingInterconnect(n_stops=7)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            RingInterconnect(hop_cycles=-1)


class TestTableInterconnect:
    def test_lookup(self):
        table = TableInterconnect([[0, 5], [7, 0]])
        assert table.latency(0, 1) == 5
        assert table.latency(1, 0) == 7

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            TableInterconnect([[0, 1], [2]])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TableInterconnect([[-1]])

    def test_from_preferences_realises_order(self):
        table = TableInterconnect.from_preferences(
            n_cores=2,
            n_slices=4,
            primary={0: 1, 1: 3},
            secondary={0: [2], 1: [0]},
        )
        assert preferred_slices(table, 0)[0] == 1
        assert preferred_slices(table, 0)[1] == 2
        assert preferred_slices(table, 1)[0] == 3
        assert preferred_slices(table, 1)[1] == 0

    def test_from_preferences_far_slices_cost_more(self):
        table = TableInterconnect.from_preferences(
            n_cores=1, n_slices=6, primary={0: 0}, secondary={0: [1]},
            secondary_extra=4, far_base=10,
        )
        for s in range(2, 6):
            assert table.latency(0, s) >= 10

    def test_from_preferences_validates_far_base(self):
        with pytest.raises(ValueError):
            TableInterconnect.from_preferences(
                n_cores=1, n_slices=2, primary={0: 0}, secondary={},
                secondary_extra=10, far_base=5,
            )


class TestPreferredSlices:
    def test_deterministic_tie_break(self):
        table = TableInterconnect([[5, 5, 0]])
        assert preferred_slices(table, 0) == [2, 0, 1]
