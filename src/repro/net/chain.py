"""Service chains and the Device-under-Test environment.

:class:`ServiceChain` strings network functions together;
:class:`DutEnvironment` assembles a complete device under test — the
simulated machine, hugepages, mempool, DDIO, NIC (optionally with
CacheDirector), poll-mode driver and chain — and processes packets
end to end, returning the cycles the polling core spent per packet.
This is the microsimulation that feeds the latency harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cachesim.ddio import DdioEngine
from repro.cachesim.engine import OP_DMA_READ, OP_DMA_WRITE, OP_READ, OP_WRITE
from repro.cachesim.machines import HASWELL_E5_2667V3, MachineSpec
from repro.core.cache_director import CacheDirector
from repro.core.slice_aware import SliceAwareContext
from repro.dpdk.mbuf import (
    DEFAULT_DATAROOM,
    DEFAULT_HEADROOM,
    MBUF_STRUCT_SIZE,
    Mbuf,
)
from repro.mem.address import CACHE_LINE
from repro.dpdk.mbuf_batch import MbufBatch
from repro.dpdk.mempool import Mempool
from repro.dpdk.nic import Nic
from repro.dpdk.pmd import PollModeDriver
from repro.faults.plan import FaultClock
from repro.net.dataplane import (
    OpRecorder,
    charges_per_item,
    chunk_bounds,
    replay_ops,
    segment_sums,
)
from repro.net.nf import (
    LpmRouter,
    MacSwapForwarder,
    Napt,
    NetworkFunction,
    RoundRobinLoadBalancer,
)
from repro.net.packet import Packet


class ServiceChain:
    """An ordered pipeline of network functions.

    Args:
        name: chain label.
        nfs: the pipeline stages, in order.
        framework_cycles: fixed per-packet cost of the surrounding
            framework (FastClick element traversal, batching, Metron
            runtime).  The cache simulator only accounts for the NFs'
            memory behaviour; this constant calibrates total
            per-packet cost to the per-core rates implied by the
            paper's Table 3 throughputs (~1 800 cycles/packet at
            3.2 GHz and ~76 Gbps over 8 cores).
    """

    def __init__(
        self,
        name: str,
        nfs: Sequence[NetworkFunction],
        framework_cycles: int = 0,
    ) -> None:
        if not nfs:
            raise ValueError("a chain needs at least one NF")
        if framework_cycles < 0:
            raise ValueError("framework_cycles must be non-negative")
        self.name = name
        self.nfs: List[NetworkFunction] = list(nfs)
        self.framework_cycles = framework_cycles
        self.packets_processed = 0

    def setup(self, context: SliceAwareContext) -> None:
        """Allocate every NF's state."""
        for nf in self.nfs:
            nf.setup(context)

    def process(self, core: int, mbuf: Mbuf) -> int:
        """Run one packet through every NF; returns total cycles."""
        cycles = self.framework_cycles
        # Intentional scalar reference path: NFs are a sequential
        # pipeline per packet by definition (FastClick semantics).
        for nf in self.nfs:
            cycles += nf.process(core, mbuf)
        self.packets_processed += 1
        return cycles

    def process_batch(self, core: int, mbuf_batch: MbufBatch) -> np.ndarray:  # simcheck: ignore[SIM501] e2ebench
        """Run a burst through every NF; returns per-packet cycles.

        NF-major batched semantics: each NF charges the whole burst
        before the next NF runs.  For a single-NF chain this is
        access-for-access the scalar order; for longer chains the
        bit-identical interleaving lives in
        :meth:`DutEnvironment.service_cycles_batch`.
        """
        cycles = np.full(len(mbuf_batch), self.framework_cycles, dtype=np.int64)
        for nf in self.nfs:
            cycles += nf.process_batch(core, mbuf_batch)
        self.packets_processed += len(mbuf_batch)
        return cycles


def simple_forwarding_chain() -> ServiceChain:
    """The §5.1 application: MAC swap and bounce."""
    return ServiceChain(
        "simple-forwarding", [MacSwapForwarder()], framework_cycles=1600
    )


def router_napt_lb_chain(hw_offload: bool = True) -> ServiceChain:
    """The §5.2 stateful chain: Router → NAPT → LB.

    ``hw_offload`` mirrors Metron's FlowDirector offload of the routing
    table classification to the NIC.
    """
    return ServiceChain(
        "router-napt-lb",
        [
            LpmRouter(n_routes=3120, hw_offload=hw_offload),
            Napt(),
            RoundRobinLoadBalancer(),
        ],
        framework_cycles=1270,
    )


@dataclass
class DutConfig:
    """Configuration of a device under test."""

    spec: MachineSpec = HASWELL_E5_2667V3
    n_cores: int = 8
    cache_director: bool = False
    n_mbufs: int = 4096
    rx_ring_size: int = 1024
    data_room: int = DEFAULT_DATAROOM
    ddio_enabled: bool = True
    seed: int = 0
    #: Optional mempool ``(low, high)`` in-use watermarks; when set the
    #: NIC sheds load under pressure instead of exhausting the pool.
    watermarks: Optional[Tuple[int, int]] = None


class DutEnvironment:
    """A fully wired device under test.

    Args:
        config: hardware/software configuration.
        chain_factory: builds the service chain to run.
        faults: fault clock driving injection in the NIC, mempool and
            chain (``None`` runs fault-free; the wiring below then adds
            no objects and the DuT behaves bit-identically to one built
            without this parameter).
    """

    def __init__(
        self,
        config: DutConfig,
        chain_factory: Callable[[], ServiceChain] = simple_forwarding_chain,
        faults: Optional[FaultClock] = None,
    ) -> None:
        self.config = config
        self.context = SliceAwareContext(config.spec, seed=config.seed)
        hierarchy = self.context.hierarchy
        self.hierarchy = hierarchy
        self.ddio = DdioEngine(hierarchy, enabled=config.ddio_enabled)
        director: Optional[CacheDirector] = None
        data_room = config.data_room
        if config.cache_director:
            director = CacheDirector(
                slice_hash=hierarchy.llc.hash,
                core_to_slice=[
                    self.context.preferred_slice(c) for c in range(config.n_cores)
                ],
            )
            # Provision the data room for the worst-case dynamic
            # headroom so chaining never triggers on MTU frames (§4.2).
            data_room += director.max_headroom - DEFAULT_HEADROOM
        self.cache_director = director
        self.mempool = Mempool(
            name="pktmbuf",
            allocator=self.context.contiguous_allocator,
            n_mbufs=config.n_mbufs,
            data_room=data_room,
            watermarks=config.watermarks,
        )
        self.nic = Nic(
            n_queues=config.n_cores,
            mempool=self.mempool,
            ddio=self.ddio,
            allocator=self.context.contiguous_allocator,
            queue_to_core=list(range(config.n_cores)),
            cache_director=director,
            rx_ring_size=config.rx_ring_size,
        )
        self.pmd = PollModeDriver(self.nic, hierarchy)
        self.chain = chain_factory()
        self.chain.setup(self.context)
        self.faults = faults
        self.supervisor = None
        if faults is not None:
            # Imported here: supervisor.py needs ServiceChain from this
            # module, so a top-level import would be circular.
            from repro.net.supervisor import NfSupervisor

            self.mempool.faults = faults
            self.nic.faults = faults
            self.supervisor = NfSupervisor(self.chain, self.context, faults)

    def process_packet(self, packet: Packet, queue: int) -> Optional[int]:
        """Deliver, poll, process and transmit one packet.

        Returns the cycles the polling core spent, or ``None`` when the
        packet was dropped — at the NIC (injected wire loss, pool
        pressure or exhaustion, ring full), at the PMD's FCS check, or
        inside the chain (injected NF crash).
        """
        if self.nic.deliver(packet, packet.size, queue) is None:
            return None
        mbufs, cycles = self.pmd.rx_burst(queue, max_packets=1)
        if not mbufs:
            # The frame was discarded at the FCS check after delivery.
            return None
        core = self.nic.queue_to_core[queue]
        survivors = []
        # Intentional scalar reference path: one packet at a time end
        # to end is the latency-harness contract (per-packet cycles).
        for mbuf in mbufs:
            if self.supervisor is not None:
                nf_cycles = self.supervisor.process(core, mbuf)
                if nf_cycles is None:
                    self.mempool.free(mbuf)
                    continue
                cycles += nf_cycles
            else:
                cycles += self.chain.process(core, mbuf)
            survivors.append(mbuf)
        if not survivors:
            return None
        cycles += self.pmd.tx_burst(queue, survivors)
        return cycles

    def service_cycles(
        self, packets: Sequence[Packet], queues: Sequence[int]
    ) -> List[Optional[int]]:
        """Microsimulate many packets; returns per-packet cycles.

        Charges the trace through :meth:`service_cycles_batch` one
        bounded chunk (:data:`repro.net.dataplane.REPLAY_CHUNK` packets)
        at a time, in arrival order.  Where
        :func:`~repro.net.dataplane.charges_per_item` says so (a runtime
        sanitizer, or the differential oracle) every packet goes through
        :meth:`process_packet` instead.
        """
        if len(packets) != len(queues):
            raise ValueError("packets and queues must have equal length")
        if charges_per_item(self.hierarchy):
            return [self.process_packet(p, q) for p, q in zip(packets, queues)]
        cycles: List[Optional[int]] = []
        for start, stop in chunk_bounds(len(packets)):
            cycles += self.service_cycles_batch(
                packets[start:stop], queues[start:stop]
            )
        return cycles

    def service_cycles_batch(
        self, packets: Sequence[Packet], queues: Sequence[int]
    ) -> List[Optional[int]]:
        """Record per packet, then charge the whole batch in one replay.

        Runs the real control path (:meth:`process_packet`) for every
        packet with the cache model swapped for an
        :class:`~repro.net.dataplane.OpRecorder`, then replays the
        interleaved op stream through one flattened engine pass.
        Drops, fault draws, allocations and all stats are decided by
        the per-packet code itself; per-packet cycles come out
        bit-identical to calling :meth:`process_packet` per packet
        (``repro.cachesim.diff.run_dataplane_differential`` checks it).
        :meth:`service_cycles` bounds the batch and first checks that
        no sanitizer needs the per-packet loop.
        """
        if len(packets) != len(queues):
            raise ValueError("packets and queues must have equal length")
        recorder = OpRecorder()
        n = len(packets)
        bounds = np.empty(n + 1, dtype=np.int64)
        sizes = [p.size for p in packets]
        if self._template_ok(sizes, queues):
            fixed = self._record_template(recorder, packets, queues, sizes, bounds)
        else:
            fixed = []
            with recorder.capture(self.hierarchy, self.nic):
                for i, (packet, queue) in enumerate(zip(packets, queues)):
                    bounds[i] = recorder.n_ops
                    fixed.append(self.process_packet(packet, queue))
            bounds[n] = recorder.n_ops
        per_op = replay_ops(self.hierarchy, recorder.ops, [self.ddio])
        memory = segment_sums(per_op, bounds)
        return [
            None if f is None else int(f + memory[i])
            for i, f in enumerate(fixed)
        ]

    def _template_ok(self, sizes: Sequence[int], queues: Sequence[int]) -> bool:
        """Whether the constant-shape recording route applies.

        The template in :meth:`_record_template` is valid only when no
        control-flow branch of :meth:`process_packet` can deviate from
        the straight-line path: no fault injection or supervisor, no
        CacheDirector headrooms, no watermark backpressure, no mempool
        sanitizer hooks, rings empty (each packet drains its own), the
        pool non-empty, and every frame fitting one mbuf segment.
        Anything else falls back to the generic recording loop, which
        handles every configuration.
        """
        mempool = self.mempool
        if (
            self.faults is not None
            or self.supervisor is not None
            or self.cache_director is not None
            or mempool.watermarks is not None
            or mempool.sanitizer is not None
            or not mempool.available
            or not sizes
        ):
            return False
        if any(not ring.empty for ring in self.nic.rx_rings):
            return False
        head = mempool.peek()
        if min(sizes) <= 0:
            return False
        if max(sizes) > head.buf_len - head.default_headroom:
            return False
        return 0 <= min(queues) and max(queues) < self.nic.n_queues

    def _record_template(
        self,
        recorder: OpRecorder,
        packets: Sequence[Packet],
        queues: Sequence[int],
        sizes: Sequence[int],
        bounds: np.ndarray,
    ) -> List[Optional[int]]:
        """Record the burst without the generic control plumbing.

        Under :meth:`_template_ok` every packet's control flow is fully
        determined: the LIFO mempool hands out the same mbuf each
        packet (the alloc/free pair cancels), no drop branch can fire,
        and the NIC/PMD access pattern is a fixed template over that
        mbuf's constant addresses — only the payload span's last line
        and the rotating completion-descriptor slot vary.  The loop
        emits exactly the op stream, mbuf field updates, descriptor
        rotation and NIC counters that per-packet ``deliver`` →
        ``rx_burst`` → chain → ``tx_burst`` would, and still runs the
        real ``chain.process`` per packet (NF state must evolve
        normally).  The differential harness compares this route
        against the per-packet path configuration by configuration.
        """
        nic = self.nic
        costs = self.pmd.costs
        mbuf = self.mempool.peek()
        base = mbuf.base_phys
        headroom = mbuf.default_headroom
        data_phys = base + MBUF_STRUCT_SIZE + headroom
        data_first = data_phys & ~(CACHE_LINE - 1)
        line_mask = ~(CACHE_LINE - 1)
        chain_process = self.chain.process
        q2c = nic.queue_to_core
        desc_base = nic._descriptor_base
        slots = nic._descriptor_slot
        ring_size = nic.rx_ring_size
        pmd_fixed = (
            costs.rx_per_burst
            + costs.rx_per_packet
            + costs.tx_per_burst
            + costs.tx_per_packet
        )
        n_queues = nic.n_queues
        # Per-queue constant ops: the poll's head-of-ring descriptor
        # read, the struct-line reads, and the TX struct write.  The
        # two struct lines are contiguous and consumed only through
        # per-packet sums, so they collapse into one two-line span op
        # (same lines, same order, same per-line outcomes).
        desc_read = [
            (OP_READ, desc_base[q], desc_base[q], q2c[q]) for q in range(n_queues)
        ]
        line2 = base + CACHE_LINE
        struct_read = [(OP_READ, base, line2, q2c[q]) for q in range(n_queues)]
        tx_write = [(OP_WRITE, base, base, q2c[q]) for q in range(n_queues)]
        ops = recorder.ops
        append = ops.append
        extend = ops.extend
        fixed: List[Optional[int]] = []
        fixed_append = fixed.append
        # When every NF declares itself template-stable, the chain's
        # recorded op subsequence and cycle count are constant per
        # (queue -> core) over this one mbuf, so probe each queue once
        # with a real ``chain.process`` call and replay the captured
        # ops for the rest of that queue's packets.  The per-call
        # ``packets_processed`` increments skipped by the replays are
        # restored in bulk below.
        stable = all(nf.template_stable for nf in self.chain.nfs)
        chain_cache: List[Optional[Tuple[int, List[tuple]]]] = [None] * n_queues
        i = 0
        with recorder.capture(self.hierarchy):
            for packet, queue, size in zip(packets, queues, sizes):
                bounds[i] = len(ops)
                i += 1
                # deliver(): payload DMA, then the completion
                # descriptor at the rotating slot.
                slot = slots[queue]
                slots[queue] = (slot + 1) % ring_size
                last = (data_phys + size - 1) & line_mask
                append((OP_DMA_WRITE, data_first, last, 0))
                desc = desc_base[queue] + slot * CACHE_LINE
                append((OP_DMA_WRITE, desc, desc, 0))
                # Exactly the state alloc() + reset() + deliver's fill
                # leave behind before the PMD sees the mbuf.
                mbuf.headroom = headroom
                mbuf.pkt_len = size
                mbuf.data_len = size
                mbuf.next = None
                mbuf.payload = packet
                mbuf.port = 0
                mbuf.queue = queue
                mbuf.rss_hash = 0
                mbuf.fcs_ok = True
                # rx_burst(queue, 1): head-of-ring descriptor poll,
                # then the mbuf struct lines.
                append(desc_read[queue])
                append(struct_read[queue])
                cached = chain_cache[queue]
                if cached is None:
                    mark = len(ops)
                    c = chain_process(q2c[queue], mbuf)
                    if stable:
                        chain_cache[queue] = (c, ops[mark:])
                else:
                    c, sub = cached
                    extend(sub)
                # tx_burst(): TX descriptor fill, then the NIC's
                # DMA-read of the payload (free cancels the alloc).
                append(tx_write[queue])
                append((OP_DMA_READ, data_first, last, 0))
                fixed_append(pmd_fixed + c)
        bounds[i] = len(ops)
        n = len(fixed)
        if stable:
            probes = sum(1 for cached in chain_cache if cached is not None)
            self.chain.packets_processed += n - probes
        total_bytes = sum(sizes)
        stats = nic.stats
        stats.rx_packets += n
        stats.rx_bytes += total_bytes
        stats.tx_packets += n
        stats.tx_bytes += total_bytes
        return fixed

    def __repr__(self) -> str:
        return (
            f"DutEnvironment(chain={self.chain.name!r}, "
            f"cache_director={self.config.cache_director})"
        )
