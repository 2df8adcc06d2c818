"""The NIC model: DMA via DDIO, descriptor rings, CacheDirector hook.

The receive path reproduces the mechanics CacheDirector instruments
(§4.2, "Ensuring the appropriate headroom size"): just before a buffer
is handed to the NIC for DMA, the driver — knowing which core polls
this queue — sets the mbuf's headroom from the pre-computed per-slice
values in ``udata64``; the NIC then DMAs the frame to ``data_phys``,
and DDIO allocates those lines into the LLC.  With CacheDirector, the
first (header) line of every packet therefore lands in the polling
core's closest slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cachesim.ddio import DdioEngine
from repro.core.cache_director import CacheDirector
from repro.dpdk.mbuf import Mbuf
from repro.dpdk.mempool import Mempool
from repro.dpdk.ring import Ring
from repro.faults.plan import FaultClock
from repro.mem.address import CACHE_LINE
from repro.mem.allocator import ContiguousAllocator


@dataclass
class NicStats:
    """Packet counters for one port."""

    rx_packets: int = 0
    rx_bytes: int = 0
    rx_drops_no_mbuf: int = 0
    rx_drops_ring_full: int = 0
    rx_drops_backpressure: int = 0
    rx_drops_injected: int = 0
    tx_packets: int = 0
    tx_bytes: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        self.rx_packets = 0
        self.rx_bytes = 0
        self.rx_drops_no_mbuf = 0
        self.rx_drops_ring_full = 0
        self.rx_drops_backpressure = 0
        self.rx_drops_injected = 0
        self.tx_packets = 0
        self.tx_bytes = 0


class Nic:
    """One port with per-queue RX rings and descriptor arrays.

    Args:
        n_queues: RX/TX queue pairs.
        mempool: pool backing RX buffers.
        ddio: DMA engine into the LLC.
        allocator: used to place the descriptor arrays in memory (the
            NIC writes completion descriptors that the PMD polls).
        queue_to_core: which core polls each queue (identity when
            omitted) — CacheDirector needs it to pick target slices.
        cache_director: when present, RX buffers get dynamic headrooms.
        rx_ring_size: descriptor-ring depth per queue.
    """

    def __init__(
        self,
        n_queues: int,
        mempool: Mempool,
        ddio: DdioEngine,
        allocator: ContiguousAllocator,
        queue_to_core: Optional[Sequence[int]] = None,
        cache_director: Optional[CacheDirector] = None,
        rx_ring_size: int = 1024,
    ) -> None:
        if n_queues <= 0:
            raise ValueError(f"n_queues must be positive, got {n_queues}")
        self.n_queues = n_queues
        self.mempool = mempool
        self.ddio = ddio
        self.cache_director = cache_director
        self.queue_to_core = (
            list(queue_to_core) if queue_to_core is not None else list(range(n_queues))
        )
        if len(self.queue_to_core) != n_queues:
            raise ValueError("queue_to_core must name one core per queue")
        self.rx_rings: List[Ring[Mbuf]] = [
            Ring(rx_ring_size, name=f"rxq{q}") for q in range(n_queues)
        ]
        # One completion-descriptor cache line per ring slot, per queue.
        self._descriptor_base: List[int] = []
        self._descriptor_slot: List[int] = [0] * n_queues
        for queue in range(n_queues):
            virt = allocator.allocate(rx_ring_size * CACHE_LINE, align=CACHE_LINE)
            self._descriptor_base.append(allocator.buffer.virt_to_phys(virt))
        self.rx_ring_size = rx_ring_size
        self.stats = NicStats()
        if mempool.sanitizer is not None:
            mempool.sanitizer.attach_pool(mempool, ddio.hierarchy)
        #: Fault clock injecting wire-side faults, or ``None``.
        self.faults: Optional[FaultClock] = None
        if cache_director is not None:
            udata = cache_director.precompute_udata(
                [mbuf.buf_phys for mbuf in mempool.mbufs]
            )
            for mbuf, packed in zip(mempool.mbufs, udata):
                mbuf.udata64 = packed

    # ------------------------------------------------------------------
    # Wire-side (what the link makes the NIC do)
    # ------------------------------------------------------------------

    def descriptor_line(self, queue: int, slot: int) -> int:
        """Physical address of one completion descriptor."""
        return self._descriptor_base[queue] + (slot % self.rx_ring_size) * CACHE_LINE

    def deliver(self, payload: object, length: int, queue: int) -> Optional[Mbuf]:
        """A frame arrives from the wire into *queue*.

        Allocates mbuf(s), applies the (possibly dynamic) headroom,
        DMAs the frame and a completion descriptor through DDIO, and
        posts the chain to the RX ring.  Returns the head mbuf, or
        ``None`` when the frame was dropped (injected wire loss, pool
        empty, backpressure shed, or ring full).
        """
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        clock = self.faults
        if clock is not None and clock.fires("nic.drop", clock.rates.nic_drop):
            # Frame lost on the wire: it never reaches the DuT.
            self.stats.rx_drops_injected += 1
            clock.count("nic.injected_drops")
            return None
        ring = self.rx_rings[queue]
        if ring.full:
            self.stats.rx_drops_ring_full += 1
            return None
        if self.mempool.under_pressure:
            # Watermark backpressure: shed at the NIC while free
            # elements remain, instead of exhausting the pool and
            # failing mid-chain.
            self.stats.rx_drops_backpressure += 1
            if clock is not None:
                clock.count("nic.backpressure_sheds")
            return None
        head = self.mempool.try_alloc()
        if head is None:
            self.stats.rx_drops_no_mbuf += 1
            if clock is not None:
                clock.count("nic.drops_no_mbuf")
            return None
        if self.cache_director is not None:
            core = self.queue_to_core[queue]
            head.set_headroom(
                self.cache_director.headroom_for_core(head.udata64, core)
            )
        head.pkt_len = length
        head.payload = payload
        head.queue = queue
        # Fill the chain: the head takes what fits in its (possibly
        # shrunken) data room; the rest goes to chained mbufs (§4.2,
        # "Dynamic headroom" — oversized headrooms can force chaining).
        # Intentional scalar reference path: one frame at a time with
        # interleaved DMA is the per-packet latency contract;
        # deliver_burst is the batched twin (one flattened DDIO pass).
        remaining = length
        segment = head
        while True:
            take = min(remaining, segment.data_room)
            segment.append(take)
            self.ddio.dma_write(segment.data_phys, take)
            remaining -= take
            if remaining == 0:
                break
            extra = self.mempool.try_alloc()
            if extra is None:
                self.stats.rx_drops_no_mbuf += 1
                self.mempool.free(head)
                return None
            extra.pkt_len = 0
            segment.next = extra
            segment = extra
        if clock is not None and clock.fires(
            "nic.corrupt", clock.rates.nic_corrupt
        ):
            # Frame delivered with a bad FCS; the PMD discards it.
            head.fcs_ok = False
            clock.count("nic.injected_corruptions")
        # Completion descriptor write (the line the PMD polls).
        slot = self._descriptor_slot[queue]
        self._descriptor_slot[queue] = (slot + 1) % self.rx_ring_size
        self.ddio.dma_write(self.descriptor_line(queue, slot), CACHE_LINE)
        ring.enqueue(head)
        self.stats.rx_packets += 1
        self.stats.rx_bytes += length
        return head

    def deliver_burst(  # simcheck: ignore[SIM501] e2ebench
        self,
        payloads: Sequence[object],
        lengths: Sequence[int],
        queues: Sequence[int],
    ) -> List[Optional[Mbuf]]:
        """Bulk :meth:`deliver`: the burst's DDIO spans flush in one pass.

        Runs the real per-frame control path (drops, fault draws,
        allocation, ring posting — identical decisions and stats), but
        defers every DMA span into one recorded stream that is charged
        in a single flattened engine pass afterwards.  Because
        ``deliver`` issues no demand accesses, deferring the DMA keeps
        the span order — and therefore every cache outcome —
        bit-identical to sequential ``deliver`` calls.

        With a :class:`CacheSanitizer` installed the spans are not
        deferred (its checks must interleave with the fills); the call
        then simply loops ``deliver``.
        """
        if not (len(payloads) == len(lengths) == len(queues)):
            raise ValueError("payloads, lengths and queues must align")
        if self.ddio.hierarchy.sanitizer is not None:
            return [
                self.deliver(p, ln, q)
                for p, ln, q in zip(payloads, lengths, queues)
            ]
        from repro.net.dataplane import OpRecorder, replay_ops

        recorder = OpRecorder()
        ddio = self.ddio
        with recorder.capture(ddio.hierarchy, self):
            heads = [
                self.deliver(p, ln, q)
                for p, ln, q in zip(payloads, lengths, queues)
            ]
        replay_ops(ddio.hierarchy, recorder.ops, [ddio])
        return heads

    def transmit(self, mbuf: Mbuf) -> None:
        """Send a packet chain: DMA-read the data, free the buffers."""
        dma_read = self.ddio.dma_read
        segment = mbuf
        while segment is not None:
            if segment.data_len:
                dma_read(segment.data_phys, segment.data_len)
            segment = segment.next
        self.stats.tx_packets += 1
        self.stats.tx_bytes += mbuf.pkt_len
        self.mempool.free(mbuf)

    def __repr__(self) -> str:
        return (
            f"Nic(n_queues={self.n_queues}, rx_ring_size={self.rx_ring_size}, "
            f"cache_director={'on' if self.cache_director else 'off'})"
        )
