"""The emulated KVS request loop (§3.1).

One core serves GET/SET requests arriving as 128 B TCP packets at high
rate through the DPDK-like I/O path: the NIC DMA-writes each request
into a rotating RX buffer via DDIO, the core parses it, probes the
index, touches the value line (read for GET, write for SET), writes
the response header and the NIC DMA-reads it back out.  Every memory
touch runs on the cache simulator, so the reported cycles-per-request
— and hence transactions per second — reflect placement policy,
slice distance, DDIO churn and capacity effects together.

A request's memory behaviour is defined once, by
:meth:`KvsServer.emit_ops`, as an op stream in the
:mod:`repro.net.dataplane` format.  Request streams are charged through
:func:`serve_requests`: the ops of a chunk of requests are emitted
directly (no :class:`~repro.net.dataplane.OpRecorder` capture, which
the NFV path still needs for its data-dependent control code), then
one engine pass per chunk replays them.  :meth:`KvsServer.serve_one`
charges one request's ops call by call, the per-request path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cachesim.ddio import DdioEngine
from repro.cachesim.engine import OP_DMA_READ, OP_DMA_WRITE, OP_READ, OP_WRITE
from repro.core.slice_aware import SliceAwareContext
from repro.faults.plan import FaultClock, KvsRequestFault
from repro.kvs.store import KvsStore
from repro.mem.address import CACHE_LINE
from repro.net.dataplane import (
    charge_each,
    charges_per_item,
    chunk_bounds,
    replay_ops,
    segment_sums,
)

#: The paper's request packets: 128 B TCP.
REQUEST_BYTES = 128

#: Response: header + 64 B value.
RESPONSE_BYTES = 64 + 64

#: Offsets of the last request and response lines from a (line-aligned)
#: RX buffer.
_REQUEST_LAST = (REQUEST_BYTES - 1) & ~(CACHE_LINE - 1)
_RESPONSE_LAST = (RESPONSE_BYTES - 1) & ~(CACHE_LINE - 1)


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
        # One contiguous, line-aligned allocation, so every buffer starts
        # a line: emit_ops names a buffer's lines by its start address.
        assert buf.base % CACHE_LINE == 0 and REQUEST_BYTES % CACHE_LINE == 0
        self._rx_buffers = list(range(buf.base, buf.base + buf.size, REQUEST_BYTES))
        self._next_buffer = 0
        self.requests_served = 0
        #: Fault clock injecting request failures/slowdowns, or ``None``.
        self.faults: Optional[FaultClock] = None

    def emit_ops(
        self,
        ops: List[Tuple[int, int, int, int]],
        key: int,
        is_get: bool,
        ddio_index: int = 0,
    ) -> int:
        """Append one request's memory ops to *ops*; returns its fixed cycles.

        The ops are ``(kind, first_line, last_line, aux)`` tuples (see
        :mod:`repro.net.dataplane`; ``aux`` is this server's core for
        demand ops and *ddio_index* for DMA ops), in issue order: the
        NIC DMA-writes the 128 B request into the next RX buffer, the
        core reads its two lines (parse), reads the index line, reads
        (GET) or writes (SET) every value line, and writes the response
        header, then the NIC DMA-reads the response.  Advances the RX
        cursor and :attr:`requests_served`.  The one definition of a
        request's memory behaviour: :meth:`serve_one` charges these ops
        call by call, :func:`serve_requests` replays them per chunk.
        """
        rx = self._rx_buffers[self._next_buffer]
        self._next_buffer = (self._next_buffer + 1) % len(self._rx_buffers)
        core = self.core
        store = self.store
        append = ops.append
        rx_last = rx + _REQUEST_LAST
        append((OP_DMA_WRITE, rx, rx_last, ddio_index))
        append((OP_READ, rx, rx_last, core))
        line = store.index_address(key)
        append((OP_READ, line, line, core))
        # Value addresses are line addresses (whole lines of a line-
        # aligned array); multi-line values touch every line (§8).
        kind = OP_READ if is_get else OP_WRITE
        if store.lines_per_value == 1:
            line = store.value_address(key)
            append((kind, line, line, core))
        else:
            for line in store.value_addresses(key):
                append((kind, line, line, core))
        append((OP_WRITE, rx, rx, core))
        append((OP_DMA_READ, rx, rx + _RESPONSE_LAST, ddio_index))
        self.requests_served += 1
        return self.fixed_cost

    def serve_one(self, key: int, is_get: bool) -> int:
        """Serve one request; returns cycles spent by the core.

        Charges the :meth:`emit_ops` ops one call each through the
        hierarchy's ``read``/``write`` and :attr:`ddio`, so a runtime
        sanitizer sees every access as it happens.

        Raises:
            KvsRequestFault: when the fault clock injects a server-side
                failure (the request is lost).
        """
        clock = self.faults
        if clock is not None and clock.fires("kvs.fail", clock.rates.kvs_fail):
            clock.count("kvs.injected_failures")
            raise KvsRequestFault(f"injected failure serving key {key}")
        ops: List[Tuple[int, int, int, int]] = []
        cycles = self.emit_ops(ops, key, is_get)
        if clock is not None and clock.fires("kvs.slow", clock.rates.kvs_slow):
            # Server-side hiccup (SMI, scheduler preemption): the
            # request completes but pays extra cycles.
            cycles += clock.rates.kvs_slow_cycles
            clock.count("kvs.injected_slow_requests")
        return cycles + sum(charge_each(self.hierarchy, ops, (self.ddio,)))

    def run(
        self,
        keys: Sequence[int],
        is_get: Sequence[bool],
        warmup: int = 0,
    ) -> KvsWorkloadResult:
        """Serve a request stream; returns aggregate statistics.

        Charged through :func:`serve_requests`: one replay of the
        emitted ops per chunk, or the per-request loop under a
        sanitizer or fault clock.

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

    Control pass: :meth:`KvsServer.emit_ops` appends each request's
    ops to the chunk's op stream, tagging its DMA spans with the
    request's tenant index, so RX buffer rotation, request counters and
    fixed costs evolve exactly as in the per-request loop.  No
    :class:`~repro.net.dataplane.OpRecorder` is involved: the
    hierarchy and every server's DDIO engine stay untouched.  Charging
    pass: the interleaved op stream replays in order
    (:func:`~repro.net.dataplane.replay_ops`), each DMA span routed to
    its server's engine (``multi_ddio`` when there is more than one),
    so per-request cycles, cache state and DDIO counters match the
    per-request loop bit for bit.  Streams replay in chunks of
    :data:`repro.net.dataplane.REPLAY_CHUNK` requests.

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
    hierarchy = servers[0].hierarchy
    if charges_per_item(
        hierarchy, any(server.faults is not None for server in servers)
    ):
        serves = [server.serve_one for server in servers]
        return np.array(
            [serves[t](k, g) for t, k, g in zip(tenant_list, key_list, get_list)],
            dtype=np.int64,
        )
    emits = [server.emit_ops for server in servers]
    ddios = [server.ddio for server in servers]
    multi_ddio = len(servers) > 1
    out = np.empty(n, dtype=np.int64)
    for start, stop in chunk_bounds(n):
        ops: List[Tuple[int, int, int, int]] = []
        bounds = []
        fixed = []
        for t, k, g in zip(
            tenant_list[start:stop], key_list[start:stop], get_list[start:stop]
        ):
            bounds.append(len(ops))
            fixed.append(emits[t](ops, k, g, t))
        bounds.append(len(ops))
        per_op = replay_ops(hierarchy, ops, ddios, multi_ddio)
        out[start:stop] = np.asarray(fixed, dtype=np.int64) + segment_sums(
            per_op, np.asarray(bounds, dtype=np.int64)
        )
    return out
