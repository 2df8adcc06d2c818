"""Unit tests for mempools."""

import pytest

from repro.dpdk.mempool import Mempool, MempoolEmptyError
from repro.faults.plan import FaultClock, FaultPlan, FaultRates
from repro.mem.address import CACHE_LINE, PAGE_1G
from repro.mem.allocator import ContiguousAllocator
from repro.mem.hugepage import PhysicalAddressSpace


@pytest.fixture
def allocator():
    space = PhysicalAddressSpace(seed=0)
    return ContiguousAllocator(space.mmap_hugepage(PAGE_1G))


def make_pool(allocator, n=8, data_room=2048):
    return Mempool("test", allocator, n_mbufs=n, data_room=data_room)


class TestConstruction:
    def test_elements_line_aligned_and_disjoint(self, allocator):
        pool = make_pool(allocator, n=16)
        bases = [m.base_phys for m in pool.mbufs]
        assert all(b % CACHE_LINE == 0 for b in bases)
        spans = sorted((b, b + pool.element_size) for b in bases)
        for (a0, a1), (b0, _) in zip(spans, spans[1:]):
            assert a1 <= b0

    def test_capacity(self, allocator):
        pool = make_pool(allocator, n=8)
        assert pool.capacity == 8
        assert pool.available == 8
        assert pool.in_use == 0

    def test_invalid_count(self, allocator):
        with pytest.raises(ValueError):
            make_pool(allocator, n=0)


class TestAllocFree:
    def test_alloc_reduces_available(self, allocator):
        pool = make_pool(allocator)
        mbuf = pool.alloc()
        assert pool.available == 7
        assert pool.in_use == 1
        pool.free(mbuf)
        assert pool.available == 8

    def test_lifo_reuse(self, allocator):
        """The most recently freed (warmest) element is reused first,
        like DPDK's per-lcore cache."""
        pool = make_pool(allocator)
        mbuf = pool.alloc()
        pool.free(mbuf)
        assert pool.alloc() is mbuf

    def test_alloc_resets_state(self, allocator):
        pool = make_pool(allocator)
        mbuf = pool.alloc()
        mbuf.append(100)
        mbuf.pkt_len = 100
        pool.free(mbuf)
        fresh = pool.alloc()
        assert fresh.data_len == 0
        assert fresh.pkt_len == 0

    def test_exhaustion(self, allocator):
        pool = make_pool(allocator, n=2)
        pool.alloc()
        pool.alloc()
        with pytest.raises(MempoolEmptyError):
            pool.alloc()
        assert pool.try_alloc() is None
        assert pool.alloc_failures == 2

    def test_free_chain_returns_all_segments(self, allocator):
        pool = make_pool(allocator, n=4)
        head = pool.alloc()
        tail = pool.alloc()
        head.next = tail
        pool.free(head)
        assert pool.available == 4

    def test_free_foreign_mbuf_rejected(self, allocator):
        pool_a = make_pool(allocator, n=2)
        pool_b = make_pool(allocator, n=2)
        mbuf = pool_a.alloc()
        with pytest.raises(ValueError):
            pool_b.free(mbuf)

    def test_udata_survives_alloc_free(self, allocator):
        """CacheDirector pre-computes udata64 once at pool init; the
        value must survive recycling."""
        pool = make_pool(allocator, n=2)
        for mbuf in pool.mbufs:
            mbuf.udata64 = 0xDEAD
        m = pool.alloc()
        pool.free(m)
        assert pool.alloc().udata64 == 0xDEAD

    def test_double_free_detected(self, allocator):
        pool = make_pool(allocator, n=2)
        mbuf = pool.alloc()
        pool.free(mbuf)
        with pytest.raises(RuntimeError, match="double free"):
            pool.free(mbuf)


class TestWatermarks:
    def test_no_watermarks_means_no_pressure(self, allocator):
        pool = make_pool(allocator, n=4)
        for _ in range(4):
            pool.alloc()
        assert not pool.under_pressure

    def test_hysteresis_on_at_high_off_at_low(self, allocator):
        pool = Mempool("wm", allocator, n_mbufs=8, watermarks=(2, 6))
        taken = [pool.alloc() for _ in range(5)]
        assert not pool.under_pressure  # in_use=5 < high=6
        taken.append(pool.alloc())
        assert pool.under_pressure  # reached high
        # Falling below high but above low keeps pressure latched.
        pool.free(taken.pop())
        pool.free(taken.pop())
        pool.free(taken.pop())
        assert pool.under_pressure  # in_use=3, low=2 not reached
        pool.free(taken.pop())
        assert not pool.under_pressure  # in_use=2 == low: released
        # Re-arming requires climbing back to high again.
        taken.append(pool.alloc())
        assert not pool.under_pressure

    def test_invalid_watermarks_rejected(self, allocator):
        for bad in ((4, 4), (6, 2), (-1, 4), (2, 9)):
            with pytest.raises(ValueError):
                Mempool("bad", allocator, n_mbufs=8, watermarks=bad)


class TestInjectedFaults:
    """Fault-clock hooks: failures despite free elements, with counters."""

    def _clock(self, **rates):
        return FaultClock(FaultPlan(seed=0, rates=FaultRates(**rates)))

    def test_transient_alloc_fail(self, allocator):
        pool = make_pool(allocator, n=4)
        pool.faults = self._clock(mempool_alloc_fail=1.0)
        with pytest.raises(MempoolEmptyError, match="injected"):
            pool.alloc()
        assert pool.try_alloc() is None
        assert pool.available == 4  # no element was consumed
        assert pool.alloc_failures == 2
        assert pool.faults.stats.to_dict()["mempool.transient_alloc_fails"] == 2

    def test_exhaustion_window_fails_consecutive_allocs(self, allocator):
        pool = make_pool(allocator, n=4)
        pool.faults = self._clock(
            mempool_exhaust=1.0,
            mempool_exhaust_allocs_min=3,
            mempool_exhaust_allocs_max=3,
        )
        for _ in range(6):
            assert pool.try_alloc() is None
        counters = pool.faults.stats.to_dict()
        assert counters["mempool.exhaust_windows"] == 2  # two 3-alloc windows
        assert counters["mempool.exhaust_window_fails"] == 6

    def test_zero_rates_clock_is_inert(self, allocator):
        pool = make_pool(allocator, n=2)
        pool.faults = self._clock()
        assert pool.alloc() is not None
        assert pool.alloc_failures == 0
        assert pool.faults.stats.to_dict() == {}

    def test_fault_decisions_are_replayable(self, allocator):
        outcomes = []
        for _ in range(2):
            pool = make_pool(allocator, n=8)
            pool.faults = self._clock(mempool_alloc_fail=0.3)
            outcomes.append([pool.try_alloc() is None for _ in range(8)])
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0])  # the stream does fire at this rate
