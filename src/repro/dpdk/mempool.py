"""Fixed-size mbuf pools (``rte_mempool`` + ``rte_pktmbuf_pool``).

A mempool carves ``n_mbufs`` equal elements out of hugepage-backed
memory; each element is one mbuf struct plus its buffer region.  Frees
push onto a LIFO stack (mirroring DPDK's per-lcore object cache, which
re-uses the most recently freed — and therefore warmest — element
first).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.sanitizer import CacheSanitizer, resolve_sanitizer
from repro.faults.plan import FaultClock
from repro.dpdk.mbuf import (
    DEFAULT_DATAROOM,
    DEFAULT_HEADROOM,
    MBUF_STRUCT_SIZE,
    Mbuf,
)
from repro.mem.address import CACHE_LINE, align_up
from repro.mem.allocator import ContiguousAllocator


class MempoolEmptyError(RuntimeError):
    """Raised on allocation from an exhausted pool (rx drop territory)."""


class Mempool:
    """A pool of pre-initialised mbufs.

    Args:
        name: diagnostic label.
        allocator: contiguous allocator over a hugepage.
        n_mbufs: number of elements.
        data_room: bytes of buffer region after the default headroom;
            CacheDirector deployments must provision
            ``director.max_headroom - DEFAULT_HEADROOM`` extra bytes so
            the dynamic headroom never starves the data area (§4.2).
        default_headroom: initial headroom of fresh mbufs.
        phys_base_override: explicit physical base used in tests.
        sanitize: force CacheSanitizer shadowing on (``True``) or off
            (``False``); ``None`` defers to the ``RF_SANITIZE``
            environment switch.
        sanitizer: explicit sanitizer instance to join (wins over
            ``sanitize``); lets tests share one shadow state between a
            pool and a hierarchy.
        watermarks: optional ``(low, high)`` in-use element counts for
            backpressure hysteresis: :attr:`under_pressure` turns on
            when usage reaches *high* and off once it falls back to
            *low*, so the NIC sheds load before the pool exhausts.
    """

    def __init__(
        self,
        name: str,
        allocator: ContiguousAllocator,
        n_mbufs: int,
        data_room: int = DEFAULT_DATAROOM,
        default_headroom: int = DEFAULT_HEADROOM,
        sanitize: Optional[bool] = None,
        sanitizer: Optional[CacheSanitizer] = None,
        watermarks: Optional[Tuple[int, int]] = None,
    ) -> None:
        if n_mbufs <= 0:
            raise ValueError(f"n_mbufs must be positive, got {n_mbufs}")
        self.name = name
        self.data_room = data_room
        self.default_headroom = default_headroom
        buf_len = default_headroom + data_room
        element_size = align_up(MBUF_STRUCT_SIZE + buf_len, CACHE_LINE)
        virt_base = allocator.allocate(element_size * n_mbufs, align=CACHE_LINE)
        phys_base = allocator.buffer.virt_to_phys(virt_base)
        self.element_size = element_size
        self.base_phys = phys_base
        self.mbufs: List[Mbuf] = [
            Mbuf(
                pool=self,
                index=i,
                base_phys=phys_base + i * element_size,
                buf_len=buf_len,
                default_headroom=default_headroom,
            )
            for i in range(n_mbufs)
        ]
        # LIFO free stack, warmest element on top.
        self._free: List[Mbuf] = list(reversed(self.mbufs))
        self.alloc_failures = 0
        if watermarks is not None:
            low, high = watermarks
            if not 0 <= low < high <= n_mbufs:
                raise ValueError(
                    f"watermarks must satisfy 0 <= low < high <= {n_mbufs}, "
                    f"got {watermarks}"
                )
        self.watermarks = watermarks
        self._pressure = False
        #: Fault clock injecting allocation failures, or ``None``.
        self.faults: Optional[FaultClock] = None
        # Remaining forced failures of an open exhaustion window.
        self._exhaust_remaining = 0
        self.sanitizer = resolve_sanitizer(sanitize, sanitizer)
        if self.sanitizer is not None:
            self.sanitizer.register_pool(self)
            for mbuf in self.mbufs:
                mbuf.san = self.sanitizer

    @property
    def capacity(self) -> int:
        """Total number of elements."""
        return len(self.mbufs)

    @property
    def available(self) -> int:
        """Elements currently free."""
        return len(self._free)

    @property
    def in_use(self) -> int:
        """Elements currently allocated."""
        return self.capacity - self.available

    @property
    def under_pressure(self) -> bool:
        """Backpressure signal with watermark hysteresis.

        Always ``False`` without watermarks.  With them, turns on when
        ``in_use`` reaches the high mark and stays on until usage
        falls back to the low mark — the hysteresis keeps the NIC from
        flapping between shedding and admitting at the boundary.
        """
        if self.watermarks is None:
            return False
        low, high = self.watermarks
        if self._pressure:
            if self.in_use <= low:
                self._pressure = False
        elif self.in_use >= high:
            self._pressure = True
        return self._pressure

    def _fault_alloc_fails(self) -> bool:
        """Whether an injected fault fails this allocation.

        Exhaustion windows fail a drawn-length run of consecutive
        allocations (a burst of demand elsewhere); transient failures
        fail a single allocation.  All decisions come from the fault
        clock's own streams.
        """
        clock = self.faults
        if clock is None:
            return False
        if self._exhaust_remaining > 0:
            self._exhaust_remaining -= 1
            clock.count("mempool.exhaust_window_fails")
            return True
        rates = clock.rates
        if clock.fires("mempool.exhaust", rates.mempool_exhaust):
            self._exhaust_remaining = (
                clock.integers(
                    "mempool.exhaust_len",
                    rates.mempool_exhaust_allocs_min,
                    rates.mempool_exhaust_allocs_max + 1,
                )
                - 1  # this allocation is the window's first failure
            )
            clock.count("mempool.exhaust_windows")
            clock.count("mempool.exhaust_window_fails")
            return True
        if clock.fires("mempool.alloc_fail", rates.mempool_alloc_fail):
            clock.count("mempool.transient_alloc_fails")
            return True
        return False

    def alloc(self) -> Mbuf:
        """Pop one mbuf, reset to defaults.

        Raises:
            MempoolEmptyError: when the pool is exhausted (or an
                injected allocation fault fires).
        """
        if self._fault_alloc_fails():
            self.alloc_failures += 1
            raise MempoolEmptyError(
                f"mempool {self.name!r}: injected allocation failure"
            )
        if not self._free:
            self.alloc_failures += 1
            raise MempoolEmptyError(f"mempool {self.name!r} exhausted")
        mbuf = self._free.pop()
        if self.sanitizer is not None:
            self.sanitizer.on_alloc(self, mbuf)
        mbuf.reset()
        return mbuf

    def try_alloc(self) -> Optional[Mbuf]:
        """Pop one mbuf or return ``None`` when exhausted."""
        if self._fault_alloc_fails():
            self.alloc_failures += 1
            return None
        if not self._free:
            self.alloc_failures += 1
            return None
        mbuf = self._free.pop()
        if self.sanitizer is not None:
            self.sanitizer.on_alloc(self, mbuf)
        mbuf.reset()
        return mbuf

    def peek(self) -> Optional[Mbuf]:
        """The element the next successful alloc would pop (LIFO top)."""
        return self._free[-1] if self._free else None

    def free(self, mbuf: Mbuf) -> None:
        """Return an mbuf (and its whole chain) to the pool."""
        free_append = self._free.append
        sanitizer = self.sanitizer
        segment = mbuf
        while segment is not None:
            nxt = segment.next
            if segment.pool is not self:
                raise ValueError(
                    f"mbuf {segment.index} does not belong to pool {self.name!r}"
                )
            if sanitizer is not None:
                sanitizer.on_free(self, segment)
            segment.next = None
            free_append(segment)
            segment = nxt
        if len(self._free) > self.capacity:
            raise RuntimeError(f"double free detected in pool {self.name!r}")

    def __repr__(self) -> str:
        return (
            f"Mempool(name={self.name!r}, capacity={self.capacity}, "
            f"available={self.available}, data_room={self.data_room})"
        )
