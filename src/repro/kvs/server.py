"""The emulated KVS request loop (§3.1).

One core serves GET/SET requests arriving as 128 B TCP packets at high
rate through the DPDK-like I/O path: the NIC DMA-writes each request
into a rotating RX buffer via DDIO, the core parses it, probes the
index, touches the value line (read for GET, write for SET), writes
the response header and the NIC DMA-reads it back out.  Every memory
touch runs on the cache simulator, so the reported cycles-per-request
— and hence transactions per second — reflect placement policy,
slice distance, DDIO churn and capacity effects together.

Request streams are charged through :func:`serve_requests`, the same
record/replay as the NFV microsim (:mod:`repro.net.dataplane`): the
real :meth:`KvsServer.serve_one` runs per request with the cache
swapped for an op recorder, then one engine pass per chunk replays
the ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.cachesim.ddio import DdioEngine
from repro.core.slice_aware import SliceAwareContext
from repro.faults.plan import FaultClock, KvsRequestFault
from repro.kvs.store import KvsStore
from repro.net.dataplane import (
    OpRecorder,
    charges_per_item,
    chunk_bounds,
    segment_sums,
)

#: The paper's request packets: 128 B TCP.
REQUEST_BYTES = 128

#: Response: header + 64 B value.
RESPONSE_BYTES = 64 + 64


@dataclass
class KvsWorkloadResult:
    """Outcome of one KVS measurement run."""

    requests: int
    total_cycles: int
    freq_ghz: float

    @property
    def cycles_per_request(self) -> float:
        """Average request cost in cycles (the paper's ~160 vs ~194)."""
        return self.total_cycles / self.requests

    @property
    def tps_millions(self) -> float:
        """Transactions per second, in millions (Fig. 8's y-axis)."""
        return self.freq_ghz * 1e9 / self.cycles_per_request / 1e6


class KvsServer:
    """Single-core KVS server over simulated DPDK I/O.

    Args:
        context: machine context.
        store: index/value layout (normal or slice-aware).
        core: serving core.
        rx_buffers: rotating RX buffer count (models the mbuf ring).
        fixed_cost: per-request instruction cost (parse, hash, respond)
            outside the measured memory accesses.
    """

    def __init__(
        self,
        context: SliceAwareContext,
        store: KvsStore,
        core: int = 0,
        rx_buffers: int = 1024,
        fixed_cost: int = 30,
    ) -> None:
        if rx_buffers <= 0:
            raise ValueError(f"rx_buffers must be positive, got {rx_buffers}")
        self.context = context
        self.store = store
        self.core = core
        self.fixed_cost = fixed_cost
        self.hierarchy = context.hierarchy
        self.ddio = DdioEngine(self.hierarchy)
        buf = context.allocate_normal(rx_buffers * REQUEST_BYTES)
        self._rx_buffers = [
            buf.address_of(i * REQUEST_BYTES) for i in range(rx_buffers)
        ]
        self._next_buffer = 0
        self.requests_served = 0
        #: Fault clock injecting request failures/slowdowns, or ``None``.
        self.faults: Optional[FaultClock] = None

    def serve_one(self, key: int, is_get: bool) -> int:
        """Serve one request; returns cycles spent by the core.

        Raises:
            KvsRequestFault: when the fault clock injects a server-side
                failure (the request is lost; clients retry).
        """
        hierarchy = self.hierarchy
        core = self.core
        clock = self.faults
        if clock is not None and clock.fires("kvs.fail", clock.rates.kvs_fail):
            clock.count("kvs.injected_failures")
            raise KvsRequestFault(f"injected failure serving key {key}")
        # Request arrives: NIC DMA-writes 128 B into the next RX buffer.
        rx = self._rx_buffers[self._next_buffer]
        self._next_buffer = (self._next_buffer + 1) % len(self._rx_buffers)
        self.ddio.dma_write(rx, REQUEST_BYTES)
        cycles = self.fixed_cost
        if clock is not None and clock.fires("kvs.slow", clock.rates.kvs_slow):
            # Server-side hiccup (SMI, scheduler preemption): the
            # request completes but pays extra cycles.
            cycles += clock.rates.kvs_slow_cycles
            clock.count("kvs.injected_slow_requests")
        # Core parses the request (two lines of the 128 B packet).
        cycles += hierarchy.read(core, rx, REQUEST_BYTES)
        # Index probe.
        cycles += hierarchy.read(core, self.store.index_address(key), 1)
        # Value access (multi-line values touch every line, §8).
        if self.store.lines_per_value == 1:
            value_line = self.store.value_address(key)
            if is_get:
                cycles += hierarchy.read(core, value_line, 1)
            else:
                cycles += hierarchy.write(core, value_line, 1)
        else:
            # Per-line charging in request order; under serve_requests
            # these calls record ops for the replay.
            for value_line in self.store.value_addresses(key):
                if is_get:
                    cycles += hierarchy.read(core, value_line, 1)
                else:
                    cycles += hierarchy.write(core, value_line, 1)
        # Response header write into the RX buffer, then TX DMA.
        cycles += hierarchy.write(core, rx, 1)
        self.ddio.dma_read(rx, RESPONSE_BYTES)
        self.requests_served += 1
        return cycles

    def run(
        self,
        keys: Sequence[int],
        is_get: Sequence[bool],
        warmup: int = 0,
    ) -> KvsWorkloadResult:
        """Serve a request stream; returns aggregate statistics.

        Charged through :func:`serve_requests`: one recorded replay per
        chunk, or the per-request loop under a sanitizer or fault clock.

        Args:
            keys: request keys.
            is_get: per-request GET flag (same length as *keys*).
            warmup: leading requests excluded from the measurement
                (cold-cache transient).
        """
        if len(keys) != len(is_get):
            raise ValueError("keys and is_get must have equal length")
        if warmup < 0:
            raise ValueError(f"warmup must be non-negative, got {warmup}")
        if warmup >= len(keys):
            raise ValueError("warmup must leave requests to measure")
        cycles = serve_requests([self], keys, is_get)
        return KvsWorkloadResult(
            requests=len(keys) - warmup,
            total_cycles=int(cycles[warmup:].sum()),
            freq_ghz=self.context.spec.freq_ghz,
        )


def serve_requests(
    servers: Sequence[KvsServer],
    keys: Sequence[int],
    is_get: Sequence[bool],
    tenants: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Serve a request stream in arrival order; returns per-request cycles.

    *servers* are tenant servers sharing one hierarchy; request ``i``
    goes to ``servers[tenants[i]]`` (``servers[0]`` when *tenants* is
    ``None``).

    Control pass: the real :meth:`KvsServer.serve_one` runs per request
    with the hierarchy and every server's DDIO engine swapped for an
    :class:`~repro.net.dataplane.OpRecorder`, so RX buffer rotation,
    request counters and fixed costs evolve exactly as in the per-request
    loop.  Charging pass: the interleaved op stream replays in order,
    each DMA span routed back to its server's engine (``multi_ddio``
    when there is more than one), so per-request cycles, cache state
    and DDIO counters match the per-request loop bit for bit.  Streams
    replay in chunks of :data:`repro.net.dataplane.REPLAY_CHUNK`
    requests.

    The per-request ``serve_one`` loop runs instead where
    :func:`~repro.net.dataplane.charges_per_item` says so: a runtime
    sanitizer needs its checks interleaved with the accesses, and a
    fault clock must raise :class:`KvsRequestFault` at the failing
    request with the cache state it had then.
    """
    n = len(keys)
    if len(is_get) != n or (tenants is not None and len(tenants) != n):
        raise ValueError("tenants/keys/is_get must have equal length")
    key_list = np.asarray(keys).tolist()
    get_list = np.asarray(is_get, dtype=bool).tolist()
    tenant_list = [0] * n if tenants is None else np.asarray(tenants).tolist()
    serves = [server.serve_one for server in servers]
    hierarchy = servers[0].hierarchy
    if charges_per_item(
        hierarchy, any(server.faults is not None for server in servers)
    ):
        return np.array(
            [serves[t](k, g) for t, k, g in zip(tenant_list, key_list, get_list)],
            dtype=np.int64,
        )
    ddios = [server.ddio for server in servers]
    multi_ddio = len(servers) > 1
    out = np.empty(n, dtype=np.int64)
    for start, stop in chunk_bounds(n):
        recorder = OpRecorder()
        ops = recorder.ops
        bounds = []
        fixed = []
        with recorder.capture(hierarchy, servers):
            for t, k, g in zip(
                tenant_list[start:stop], key_list[start:stop], get_list[start:stop]
            ):
                bounds.append(len(ops))
                fixed.append(serves[t](k, g))
            bounds.append(len(ops))
        per_op = recorder.replay(hierarchy, ddios, multi_ddio)
        out[start:stop] = np.asarray(fixed, dtype=np.int64) + segment_sums(
            per_op, np.asarray(bounds, dtype=np.int64)
        )
    return out
