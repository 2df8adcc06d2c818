"""Unit tests for rings."""

import pytest

from repro.dpdk.ring import Ring


class TestRing:
    def test_fifo_order(self):
        ring = Ring(8)
        for i in range(5):
            ring.enqueue(i)
        assert [ring.dequeue() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            Ring(10)

    def test_full_ring_rejects(self):
        ring = Ring(2)
        assert ring.enqueue(1)
        assert ring.enqueue(2)
        assert not ring.enqueue(3)
        assert ring.enqueue_drops == 1
        assert ring.full

    def test_dequeue_empty(self):
        ring = Ring(2)
        assert ring.dequeue() is None
        assert ring.empty

    def test_burst_dequeue(self):
        ring = Ring(8)
        for item in (1, 2, 3):
            ring.enqueue(item)
        assert ring.dequeue_burst(2) == [1, 2]
        assert ring.dequeue_burst(5) == [3]
        assert ring.dequeue_burst(1) == []

    def test_burst_dequeue_invalid(self):
        with pytest.raises(ValueError):
            Ring(2).dequeue_burst(0)

    def test_peek(self):
        ring = Ring(4)
        assert ring.peek() is None
        ring.enqueue("a")
        assert ring.peek() == "a"
        assert len(ring) == 1

    def test_free_count(self):
        ring = Ring(4)
        ring.enqueue(1)
        assert ring.free_count == 3

    def test_full_ring_recovers_after_drain(self):
        """A ring that hit full must accept again once drained (the NIC
        re-admits after PMD catch-up)."""
        ring = Ring(2)
        ring.enqueue(1)
        ring.enqueue(2)
        assert not ring.enqueue(3)
        assert ring.dequeue() == 1
        assert not ring.full
        assert ring.enqueue(4)
        assert [ring.dequeue(), ring.dequeue()] == [2, 4]
        assert ring.empty

    def test_drop_counter_accumulates(self):
        ring = Ring(2)
        ring.enqueue(1)
        ring.enqueue(2)
        for i in range(3):
            assert not ring.enqueue(i)
        assert ring.enqueue_drops == 3

    def test_burst_dequeue_empty(self):
        assert Ring(4).dequeue_burst(4) == []

    def test_interleaved_wraparound_keeps_fifo(self):
        """Sustained enqueue/dequeue cycling far past the capacity
        preserves FIFO order (index wraparound territory in rte_ring)."""
        ring = Ring(4)
        out = []
        seq = iter(range(100))
        for _ in range(3):
            ring.enqueue(next(seq))
        for _ in range(40):
            out.extend(ring.dequeue_burst(2))
            ring.enqueue(next(seq))
            ring.enqueue(next(seq))
        out.extend(ring.dequeue_burst(4))
        assert out == sorted(out)
