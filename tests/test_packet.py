"""Unit tests for the flow 5-tuple and the bulk packet record."""

import pytest

from repro.net.packet import FiveTuple, Packet


class TestFiveTuple:
    def test_reversed(self):
        flow = FiveTuple(1, 2, 30, 40, 6)
        assert flow.reversed() == FiveTuple(2, 1, 40, 30, 6)
        assert flow.reversed().reversed() == flow

    def test_hashable(self):
        assert len({FiveTuple(1, 2, 3, 4, 6), FiveTuple(1, 2, 3, 4, 6)}) == 1


class TestPacket:
    def test_minimum_frame(self):
        with pytest.raises(ValueError):
            Packet(size=60, flow=FiveTuple(1, 2, 3, 4, 6))

    def test_flow_key(self):
        p = Packet(size=64, flow=FiveTuple(1, 2, 3, 4, 6))
        assert p.flow_key == (1, 2, 3, 4, 6)
