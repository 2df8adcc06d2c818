"""Poll-mode driver: the core-side RX/TX path with cycle accounting.

Every cache line the driver touches is charged to the polling core
through the simulated hierarchy — this is where CacheDirector's placed
header line pays off (or doesn't): the PMD and the network functions
behind it read the packet through the same hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.cachesim.hierarchy import CacheHierarchy
from repro.dpdk.mbuf import Mbuf
from repro.dpdk.mbuf_batch import MbufBatch
from repro.dpdk.nic import Nic
from repro.mem.address import CACHE_LINE


@dataclass
class PmdCosts:
    """Fixed instruction costs of the driver paths (cycles).

    These model the non-memory work (descriptor parsing, refill
    bookkeeping, function-call overhead) that the cache simulator does
    not see.
    """

    rx_per_burst: int = 30
    rx_per_packet: int = 25
    tx_per_burst: int = 20
    tx_per_packet: int = 20


class PollModeDriver:
    """RX/TX bursts against one NIC, charged to the polling core."""

    def __init__(
        self,
        nic: Nic,
        hierarchy: CacheHierarchy,
        costs: PmdCosts | None = None,
    ) -> None:
        self.nic = nic
        self.hierarchy = hierarchy
        self.costs = costs if costs is not None else PmdCosts()
        #: Frames discarded at the FCS check (injected corruption).
        self.fcs_discards = 0

    def rx_burst(self, queue: int, max_packets: int = 32) -> Tuple[List[Mbuf], int]:
        """Poll *queue*; returns ``(mbufs, cycles)``.

        Per burst the driver reads the completion descriptor line; per
        packet it reads the mbuf metadata struct (two lines).  An empty
        poll costs one descriptor read — the price of spinning.
        Frames the NIC flagged with a bad FCS are freed back to the
        pool here (their struct reads are still paid), and an injected
        poll stall inflates the burst by the plan's stall cycles.
        """
        core = self.nic.queue_to_core[queue]
        hierarchy = self.hierarchy
        ring = self.nic.rx_rings[queue]
        clock = self.nic.faults
        cycles = self.costs.rx_per_burst
        if clock is not None and clock.fires(
            "pmd.stall", clock.rates.nic_stall
        ):
            cycles += clock.rates.nic_stall_cycles
            clock.count("pmd.injected_stalls")
        # Poll the next completion descriptor.  The model charges the
        # head-of-ring line (slot 0) on every poll — empty or not —
        # rather than tracking a consumer index: the descriptor array
        # is a homogeneous DDIO-written region, so which slot is read
        # does not change the placement the experiments measure, and a
        # constant keeps the charge identical across runs.
        slot = 0
        cycles += hierarchy.read(core, self.nic.descriptor_line(queue, slot))
        polled = ring.dequeue_burst(max_packets) if len(ring) else []
        mbufs: List[Mbuf] = []
        for mbuf in polled:
            cycles += self.costs.rx_per_packet
            # Intentional scalar reference path: the per-mbuf loop
            # mirrors DPDK's rx_burst semantics line by line; the
            # vectorized fast path lives in FastEngine.access_batch.
            for line in mbuf.struct_lines():
                cycles += hierarchy.read(core, line)
            if not mbuf.fcs_ok:
                self.nic.mempool.free(mbuf)
                self.fcs_discards += 1
                if clock is not None:
                    clock.count("pmd.fcs_discards")
                continue
            # Reference semantics: delivery order must match the ring.
            mbufs.append(mbuf)
        return mbufs, cycles

    def rx_burst_batch(  # simcheck: ignore[SIM501] e2ebench
        self, queue: int, max_packets: int = 32
    ) -> Tuple[MbufBatch, int]:
        """Batched :meth:`rx_burst`: one ``access_batch`` per burst.

        Charges the descriptor line and every polled mbuf's two struct
        lines through a single
        :meth:`~repro.cachesim.hierarchy.CacheHierarchy.access_batch`
        call, in the scalar loop's exact access order (descriptor
        first, then struct lines packet-major) — so cache state and
        total cycles match :meth:`rx_burst` on the same ring content.
        Frames with a bad FCS are freed after charging; frees never
        touch the hierarchy, so the deferred order changes nothing.
        """
        core = self.nic.queue_to_core[queue]
        ring = self.nic.rx_rings[queue]
        clock = self.nic.faults
        cycles = self.costs.rx_per_burst
        if clock is not None and clock.fires(
            "pmd.stall", clock.rates.nic_stall
        ):
            cycles += clock.rates.nic_stall_cycles
            clock.count("pmd.injected_stalls")
        polled = ring.dequeue_burst(max_packets) if len(ring) else []
        batch = MbufBatch.from_mbufs(polled)
        addresses = np.empty(1 + 2 * len(polled), dtype=np.uint64)
        addresses[0] = self.nic.descriptor_line(queue, 0)
        if polled:
            addresses[1:] = batch.struct_line_addresses()
        result = self.hierarchy.access_batch(addresses, core=core)
        cycles += int(result.cycles.sum())
        cycles += self.costs.rx_per_packet * len(polled)
        fcs = batch.records["fcs_ok"]
        if not fcs.all():
            for keep, mbuf in zip(fcs.tolist(), batch.mbufs):
                if keep:
                    continue
                self.nic.mempool.free(mbuf)
                self.fcs_discards += 1
                if clock is not None:
                    clock.count("pmd.fcs_discards")
            batch = batch.select(fcs)
        return batch, cycles

    def tx_burst_batch(  # simcheck: ignore[SIM501] e2ebench
        self, queue: int, mbufs: Union[MbufBatch, Sequence[Mbuf]]
    ) -> int:
        """Batched :meth:`tx_burst`: struct writes in one ``access_batch``.

        All TX descriptor-fill writes (one struct line per mbuf) are
        charged in a single batch, then the chains are handed to the
        NIC for DMA-read and free.  For a one-packet burst this is
        op-for-op the scalar path; for larger bursts the store/DMA
        interleaving is coalesced (batched semantics) — the end-to-end
        bit-identical path is ``DutEnvironment.service_cycles_batch``,
        which replays the scalar interleaving exactly.
        """
        batch = mbufs if isinstance(mbufs, MbufBatch) else MbufBatch.from_mbufs(mbufs)
        core = self.nic.queue_to_core[queue]
        cycles = self.costs.tx_per_burst
        cycles += self.costs.tx_per_packet * len(batch)
        result = self.hierarchy.access_batch(
            batch.records["base_phys"], kinds=True, core=core
        )
        cycles += int(result.cycles.sum())
        for mbuf in batch.mbufs:
            self.nic.transmit(mbuf)
        return cycles

    def tx_burst(self, queue: int, mbufs: Sequence[Mbuf]) -> int:
        """Transmit *mbufs*; returns cycles spent by the core.

        The core writes each mbuf's metadata (to fill the TX
        descriptor) and hands the chain to the NIC, which DMA-reads
        the data and frees the buffers.
        """
        core = self.nic.queue_to_core[queue]
        hierarchy = self.hierarchy
        cycles = self.costs.tx_per_burst
        for mbuf in mbufs:
            cycles += self.costs.tx_per_packet
            # Intentional scalar reference path (see rx_burst).
            cycles += hierarchy.write(core, mbuf.base_phys, CACHE_LINE)
            self.nic.transmit(mbuf)
        return cycles
