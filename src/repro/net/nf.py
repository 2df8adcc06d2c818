"""Network functions.

Each NF performs its real control logic (so behaviour is testable) and
issues the memory accesses that logic implies against the cache
hierarchy, charged to the processing core.  The state tables are
allocated with *normal* (contiguous) placement — CacheDirector only
steers packet headers; state placement is the paper's future work.

Implemented NFs, matching §5's applications:

* :class:`MacSwapForwarder` — the simple forwarding application.
* :class:`LpmRouter` — DIR-24-8 longest-prefix-match router with 3120
  routes; with ``hw_offload=True`` the classification runs on the NIC
  (Metron's FlowDirector offload) and only TTL work remains in
  software.
* :class:`Napt` — network address & port translation with a real
  translation table.
* :class:`RoundRobinLoadBalancer` — flow-sticky round-robin backend
  selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cachesim.hierarchy import CacheHierarchy
from repro.core.slice_aware import LinearBuffer, SliceAwareContext
from repro.dpdk.mbuf import Mbuf
from repro.dpdk.mbuf_batch import MbufBatch
from repro.dpdk.steering import rss_hash, rss_hash_array
from repro.mem.address import CACHE_LINE
from repro.net.packet import FiveTuple


def _batch_flows(mbuf_batch: MbufBatch) -> List[FiveTuple]:
    """Per-packet flow tuples of a burst (from the mbuf payloads)."""
    return [mbuf.payload.flow for mbuf in mbuf_batch.mbufs]  # type: ignore[union-attr]


def _flow_field_arrays(
    flows: List[FiveTuple],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Column-ise flow tuples for vectorised hashing."""
    arr = np.array(flows, dtype=np.uint64).reshape(len(flows), 5)
    return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4]


class NetworkFunction:
    """Base class: one stage of a service chain."""

    #: Fixed instruction cost per packet (cycles), excluding memory.
    base_cost: int = 40
    name: str = "nf"
    #: Opt-in contract for the template recording route: ``True`` means
    #: :meth:`process` issues the same hierarchy accesses and returns
    #: the same cycle count for every packet carried by the same
    #: (core, mbuf) pair — no dependence on payload bytes, flow
    #: identity, ``pkt_len``/``data_len``, or per-packet NF state —
    #: so the recorder may capture one packet per queue and replay the
    #: captured ops for the rest of the burst.  Flow- or size-dependent
    #: NFs (e.g. :class:`LpmRouter`) must leave this ``False``.
    template_stable: bool = False

    def setup(self, context: SliceAwareContext) -> None:
        """Allocate state; called once before processing."""
        self.hierarchy: CacheHierarchy = context.hierarchy

    def process(self, core: int, mbuf: Mbuf) -> int:
        """Process one packet; returns cycles spent by *core*."""
        raise NotImplementedError

    def process_batch(self, core: int, mbuf_batch: MbufBatch) -> np.ndarray:
        """Process a burst; returns per-packet cycles.

        Concrete NFs override this with a vectorised plan that issues
        the burst's accesses through one ``access_batch`` call in the
        scalar loop's packet-major order, so cache outcomes match
        per-packet :meth:`process` calls over the same burst.  This
        base implementation is the compatibility fallback for custom
        NFs that only define :meth:`process`.
        """
        return np.array(
            [self.process(core, mbuf) for mbuf in mbuf_batch.mbufs],
            dtype=np.int64,
        )

    def _touch_header(self, core: int, mbuf: Mbuf, write: bool = False) -> int:
        """Access the packet's first (header) line."""
        if write:
            return self.hierarchy.write(core, mbuf.data_phys, 1)
        return self.hierarchy.read(core, mbuf.data_phys, 1)


class MacSwapForwarder(NetworkFunction):
    """Swap source/destination MACs and bounce the frame back (§5.1)."""

    name = "mac-swap"
    base_cost = 30
    # Touches only the header line at a fixed offset; payload-, size-
    # and flow-independent, keeps no per-packet state.
    template_stable = True

    def process(self, core: int, mbuf: Mbuf) -> int:
        """Read the Ethernet header, swap MACs in place."""
        cycles = self.base_cost
        cycles += self._touch_header(core, mbuf)          # parse
        cycles += self._touch_header(core, mbuf, True)    # swapped MACs
        return cycles

    def process_batch(self, core: int, mbuf_batch: MbufBatch) -> np.ndarray:
        """Vectorised MAC swap: header read+write pairs, one batch."""
        n = len(mbuf_batch)
        headers = mbuf_batch.header_addresses()
        addresses = np.empty(2 * n, dtype=np.uint64)
        addresses[0::2] = headers
        addresses[1::2] = headers
        kinds = np.zeros(2 * n, dtype=bool)
        kinds[1::2] = True
        result = self.hierarchy.access_batch(addresses, kinds, core)
        return self.base_cost + result.cycles.reshape(n, 2).sum(axis=1)


@dataclass(frozen=True)
class Route:
    """One LPM route."""

    prefix: int
    prefix_len: int
    next_hop: int


class LpmRouter(NetworkFunction):
    """DIR-24-8 router with the paper's 3120-entry table (§5.2).

    The first 24 address bits index ``tbl24``; routes longer than /24
    chain into per-prefix ``tbl8`` blocks.  ``tbl24`` is a 32 MiB
    region (2 B per entry over 2^24 indices); each lookup touches the
    entry's cache line, and long-prefix hits touch one tbl8 line more.
    """

    name = "router"
    base_cost = 50

    def __init__(self, n_routes: int = 3120, hw_offload: bool = False, seed: int = 7) -> None:
        self.n_routes = n_routes
        self.hw_offload = hw_offload
        self.seed = seed
        self.routes: List[Route] = []
        # tbl24: idx24 -> (is_tbl8, value); value is a next hop or a
        # tbl8 block index.  tbl24_len remembers the prefix length that
        # wrote each short entry so longest-prefix wins on overlap.
        self._tbl24: Dict[int, Tuple[bool, int]] = {}
        self._tbl24_len: Dict[int, int] = {}
        # tbl8 blocks hold (next_hop, prefix_len) per /32 slot.
        self._tbl8: List[List[Tuple[int, int]]] = []
        self.lookups = 0
        self.misses = 0

    def setup(self, context: SliceAwareContext) -> None:
        """Install *n_routes* synthetic routes and allocate the tables.

        Re-entrant: a supervisor restart calls this again and gets a
        freshly-built table in newly-allocated (cache-cold) memory —
        the crashed instance's warmed state is gone.
        """
        super().setup(context)
        self.routes = []
        self._tbl24 = {}
        self._tbl24_len = {}
        self._tbl8 = []
        self.lookups = 0
        self.misses = 0
        self._tbl24_mem: LinearBuffer = context.allocate_normal(2 * (1 << 24))
        self._tbl8_mem: LinearBuffer = context.allocate_normal(1 << 20)
        rng = np.random.default_rng(self.seed)
        lens = rng.choice([16, 20, 24, 32], size=self.n_routes, p=[0.05, 0.15, 0.75, 0.05])
        for i in range(self.n_routes):
            plen = int(lens[i])
            prefix = int(rng.integers(0, 1 << 32)) & ((~0 << (32 - plen)) & 0xFFFFFFFF)
            self.add_route(Route(prefix=prefix, prefix_len=plen, next_hop=i % 256))

    def add_route(self, route: Route) -> None:
        """Install one route into the DIR-24-8 structures."""
        if not 0 < route.prefix_len <= 32:
            raise ValueError(f"prefix length must be 1..32, got {route.prefix_len}")
        if route.prefix & ~((~0 << (32 - route.prefix_len)) & 0xFFFFFFFF):
            raise ValueError(
                f"prefix {route.prefix:#x} has bits beyond /{route.prefix_len}"
            )
        self.routes.append(route)
        # The span loops below run up to 65,536 times per route: bind
        # the tables, their lookups and the written values once.
        plen = route.prefix_len
        slot = (route.next_hop, plen)
        tbl24, tbl24_len, tbl8 = self._tbl24, self._tbl24_len, self._tbl8
        if plen <= 24:
            get, get_len = tbl24.get, tbl24_len.get
            short = (False, route.next_hop)
            first = route.prefix >> 8
            for idx in range(first, first + (1 << (24 - plen))):
                entry = get(idx)
                if entry is not None and entry[0]:
                    # A tbl8 block covers this /24: update the slots
                    # whose current route is shorter.
                    block = tbl8[entry[1]]
                    for off in range(256):
                        if block[off][1] <= plen:
                            block[off] = slot
                elif get_len(idx, 0) <= plen:
                    tbl24[idx] = short
                    tbl24_len[idx] = plen
        else:
            idx24 = route.prefix >> 8
            entry = tbl24.get(idx24)
            if entry is None or not entry[0]:
                default = (
                    (entry[1], tbl24_len.get(idx24, 0))
                    if entry is not None
                    else (-1, 0)
                )
                tbl8.append([default] * 256)
                entry = (True, len(tbl8) - 1)
                tbl24[idx24] = entry
            block = tbl8[entry[1]]
            low = route.prefix & 0xFF
            for off in range(low, low + (1 << (32 - plen))):
                if block[off][1] <= plen:
                    block[off] = slot

    def lookup(self, dst_ip: int) -> Optional[int]:
        """Pure control-plane LPM lookup (no cache accounting)."""
        entry = self._tbl24.get(dst_ip >> 8)
        if entry is None:
            return None
        is_tbl8, value = entry
        if not is_tbl8:
            return value
        hop, _plen = self._tbl8[value][dst_ip & 0xFF]
        return hop if hop >= 0 else None

    def process(self, core: int, mbuf: Mbuf) -> int:
        """Route one packet: header parse, table walk, TTL rewrite."""
        cycles = self.base_cost
        cycles += self._touch_header(core, mbuf)
        flow: FiveTuple = mbuf.payload.flow  # type: ignore[union-attr]
        self.lookups += 1
        if not self.hw_offload:
            idx24 = flow.dst_ip >> 8
            cycles += self.hierarchy.read(
                core, self._tbl24_mem.address_of((2 * idx24) & ~(CACHE_LINE - 1)), 1
            )
            entry = self._tbl24.get(idx24)
            if entry is None:
                self.misses += 1
            elif entry[0]:
                tbl8_offset = (entry[1] * 256 + (flow.dst_ip & 0xFF)) % self._tbl8_mem.size
                cycles += self.hierarchy.read(
                    core, self._tbl8_mem.address_of(tbl8_offset & ~(CACHE_LINE - 1)), 1
                )
        # Decrement TTL, refresh checksum: header write.
        cycles += self._touch_header(core, mbuf, write=True)
        return cycles

    def _compiled_tbl24(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted-array view of ``tbl24`` for vectorised lookups.

        Rebuilt whenever the route set or the table memory changes (a
        supervisor restart reallocates both), so batched lookups always
        see the live table.
        """
        key = (len(self.routes), id(self._tbl24_mem))
        if getattr(self, "_batch_tbl24_key", None) != key:
            n = len(self._tbl24)
            keys = np.fromiter(self._tbl24.keys(), dtype=np.int64, count=n)
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            is_tbl8 = np.empty(n, dtype=bool)
            values = np.empty(n, dtype=np.int64)
            entries = list(self._tbl24.values())
            for j, src in enumerate(order.tolist()):
                entry = entries[src]
                is_tbl8[j] = entry[0]
                values[j] = entry[1]
            self._batch_tbl24_key = key
            self._batch_tbl24 = (keys, is_tbl8, values)
        return self._batch_tbl24

    def process_batch(self, core: int, mbuf_batch: MbufBatch) -> np.ndarray:
        """Vectorised DIR-24-8 walk: ``searchsorted`` over tbl24 keys."""
        n = len(mbuf_batch)
        headers = mbuf_batch.header_addresses()
        self.lookups += n
        if self.hw_offload:
            # Classification ran on the NIC: header read + TTL write.
            addresses = np.empty(2 * n, dtype=np.uint64)
            addresses[0::2] = headers
            addresses[1::2] = headers
            kinds = np.zeros(2 * n, dtype=bool)
            kinds[1::2] = True
            result = self.hierarchy.access_batch(addresses, kinds, core)
            return self.base_cost + result.cycles.reshape(n, 2).sum(axis=1)
        flows = _batch_flows(mbuf_batch)
        dst_ip = np.array([flow.dst_ip for flow in flows], dtype=np.int64)
        idx24 = dst_ip >> 8
        keys, is_tbl8, values = self._compiled_tbl24()
        if len(keys):
            pos = np.minimum(np.searchsorted(keys, idx24), len(keys) - 1)
            found = keys[pos] == idx24
            tbl8_hit = found & is_tbl8[pos]
            vals = values[pos]
        else:
            found = np.zeros(n, dtype=bool)
            tbl8_hit = found
            vals = np.zeros(n, dtype=np.int64)
        self.misses += int((~found).sum())
        tbl24_base = self._tbl24_mem.address_of(0)
        tbl24_addr = tbl24_base + ((2 * idx24) & ~(CACHE_LINE - 1))
        tbl8_base = self._tbl8_mem.address_of(0)
        tbl8_offset = (vals * 256 + (dst_ip & 0xFF)) % self._tbl8_mem.size
        tbl8_addr = tbl8_base + (tbl8_offset & ~(CACHE_LINE - 1))
        # Assemble packet-major ops: hdr R, tbl24 R, [tbl8 R], hdr W.
        counts = 3 + tbl8_hit.astype(np.int64)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        starts = bounds[:-1]
        total = int(bounds[-1])
        addresses = np.empty(total, dtype=np.uint64)
        kinds_arr = np.zeros(total, dtype=bool)
        addresses[starts] = headers
        addresses[starts + 1] = tbl24_addr.astype(np.uint64)
        sel = np.nonzero(tbl8_hit)[0]
        addresses[starts[sel] + 2] = tbl8_addr[sel].astype(np.uint64)
        ends = starts + counts - 1
        addresses[ends] = headers
        kinds_arr[ends] = True
        result = self.hierarchy.access_batch(addresses, kinds_arr, core)
        from repro.net.dataplane import segment_sums

        return self.base_cost + segment_sums(result.cycles, bounds)


class Napt(NetworkFunction):
    """Network address & port translation (§5.2).

    Keeps a real flow→(external port) table; each packet hashes its
    flow into a bucket line of a 4 MiB table region and rewrites the
    header.  New flows allocate an external port and write the bucket.
    """

    name = "napt"
    base_cost = 60

    def __init__(self, external_ip: int = 0xC612_0001, table_bits: int = 16) -> None:
        self.external_ip = external_ip
        self.table_bits = table_bits
        self.translations: Dict[FiveTuple, int] = {}
        self._next_port = 1024
        self.reverse: Dict[int, FiveTuple] = {}

    def setup(self, context: SliceAwareContext) -> None:
        """Allocate the bucket array (64 B per bucket).

        Re-entrant: a supervisor restart loses every translation (the
        paper's NFs keep state in process memory) and starts over in
        cold memory.
        """
        super().setup(context)
        self.translations = {}
        self.reverse = {}
        self._next_port = 1024
        self._table_mem: LinearBuffer = context.allocate_normal(
            CACHE_LINE << self.table_bits
        )

    def _bucket_address(self, flow: FiveTuple) -> int:
        bucket = rss_hash(*flow) & ((1 << self.table_bits) - 1)
        return self._table_mem.address_of(bucket * CACHE_LINE)

    def translate(self, flow: FiveTuple) -> Tuple[int, int]:
        """Control plane: external (ip, port) for a flow, allocating
        a port on first sight."""
        port = self.translations.get(flow)
        if port is None:
            if self._next_port > 65535:
                raise RuntimeError("NAPT port pool exhausted")
            port = self._next_port
            self._next_port += 1
            self.translations[flow] = port
            self.reverse[port] = flow
        return self.external_ip, port

    def process(self, core: int, mbuf: Mbuf) -> int:
        """Translate one packet: bucket probe, install on miss, rewrite."""
        cycles = self.base_cost
        cycles += self._touch_header(core, mbuf)
        flow: FiveTuple = mbuf.payload.flow  # type: ignore[union-attr]
        new_flow = flow not in self.translations
        cycles += self.hierarchy.read(core, self._bucket_address(flow), 1)
        self.translate(flow)
        if new_flow:
            cycles += self.hierarchy.write(core, self._bucket_address(flow), 1)
        cycles += self._touch_header(core, mbuf, write=True)
        return cycles

    def process_batch(self, core: int, mbuf_batch: MbufBatch) -> np.ndarray:
        """Vectorised NAPT: hashed buckets in one batch, ports in order.

        Bucket addresses come from one :func:`rss_hash_array` pass;
        first-seen flows are detected (and ports allocated) in arrival
        order against the live translation table, so control state
        matches per-packet :meth:`process` calls exactly.
        """
        n = len(mbuf_batch)
        headers = mbuf_batch.header_addresses()
        flows = _batch_flows(mbuf_batch)
        fields = _flow_field_arrays(flows)
        buckets = rss_hash_array(*fields) & np.uint32((1 << self.table_bits) - 1)
        base = self._table_mem.address_of(0)
        bucket_addr = base + buckets.astype(np.uint64) * np.uint64(CACHE_LINE)
        new = np.empty(n, dtype=bool)
        translations = self.translations
        for i, flow in enumerate(flows):
            new[i] = flow not in translations
            self.translate(flow)
        return _bucket_rewrite_cycles(
            self, core, headers, bucket_addr, new
        )


def _bucket_rewrite_cycles(
    nf: NetworkFunction,
    core: int,
    headers: np.ndarray,
    bucket_addr: np.ndarray,
    new: np.ndarray,
) -> np.ndarray:
    """Charge the shared NAPT/LB op pattern for one burst.

    Per packet, in scalar order: header read, bucket read, bucket
    write for first-seen flows, header write — issued through one
    ``access_batch`` call.
    """
    counts = 3 + new.astype(np.int64)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    starts = bounds[:-1]
    total = int(bounds[-1])
    addresses = np.empty(total, dtype=np.uint64)
    kinds = np.zeros(total, dtype=bool)
    addresses[starts] = headers
    addresses[starts + 1] = bucket_addr
    sel = np.nonzero(new)[0]
    addresses[starts[sel] + 2] = bucket_addr[sel]
    kinds[starts[sel] + 2] = True
    ends = starts + counts - 1
    addresses[ends] = headers
    kinds[ends] = True
    result = nf.hierarchy.access_batch(addresses, kinds, core)
    from repro.net.dataplane import segment_sums

    return nf.base_cost + segment_sums(result.cycles, bounds)


class RoundRobinLoadBalancer(NetworkFunction):
    """Flow-sticky round-robin load balancer (§5.2)."""

    name = "lb"
    base_cost = 50

    def __init__(self, n_backends: int = 8, table_bits: int = 16) -> None:
        if n_backends <= 0:
            raise ValueError(f"n_backends must be positive, got {n_backends}")
        self.n_backends = n_backends
        self.table_bits = table_bits
        self.assignments: Dict[FiveTuple, int] = {}
        self._next_backend = 0

    def setup(self, context: SliceAwareContext) -> None:
        """Allocate the flow-table bucket array.

        Re-entrant: restarts drop flow stickiness and re-assign from
        backend 0 over a cold table.
        """
        super().setup(context)
        self.assignments = {}
        self._next_backend = 0
        self._table_mem: LinearBuffer = context.allocate_normal(
            CACHE_LINE << self.table_bits
        )

    def _bucket_address(self, flow: FiveTuple) -> int:
        bucket = rss_hash(*flow) & ((1 << self.table_bits) - 1)
        return self._table_mem.address_of(bucket * CACHE_LINE)

    def backend_for(self, flow: FiveTuple) -> int:
        """Control plane: sticky round-robin backend choice."""
        backend = self.assignments.get(flow)
        if backend is None:
            backend = self._next_backend
            self._next_backend = (self._next_backend + 1) % self.n_backends
            self.assignments[flow] = backend
        return backend

    def process(self, core: int, mbuf: Mbuf) -> int:
        """Pick a backend, rewrite the destination."""
        cycles = self.base_cost
        cycles += self._touch_header(core, mbuf)
        flow: FiveTuple = mbuf.payload.flow  # type: ignore[union-attr]
        new_flow = flow not in self.assignments
        cycles += self.hierarchy.read(core, self._bucket_address(flow), 1)
        self.backend_for(flow)
        if new_flow:
            cycles += self.hierarchy.write(core, self._bucket_address(flow), 1)
        cycles += self._touch_header(core, mbuf, write=True)
        return cycles

    def process_batch(self, core: int, mbuf_batch: MbufBatch) -> np.ndarray:
        """Vectorised balancing: hashed buckets batched, picks in order.

        Same shape as :meth:`Napt.process_batch`: one
        :func:`rss_hash_array` pass yields every bucket address, while
        first-seen detection and the sticky round-robin assignment walk
        flows in arrival order against the live table so control state
        matches per-packet :meth:`process` calls exactly.
        """
        n = len(mbuf_batch)
        headers = mbuf_batch.header_addresses()
        flows = _batch_flows(mbuf_batch)
        fields = _flow_field_arrays(flows)
        buckets = rss_hash_array(*fields) & np.uint32((1 << self.table_bits) - 1)
        base = self._table_mem.address_of(0)
        bucket_addr = base + buckets.astype(np.uint64) * np.uint64(CACHE_LINE)
        new = np.empty(n, dtype=bool)
        assignments = self.assignments
        for i, flow in enumerate(flows):
            new[i] = flow not in assignments
            self.backend_for(flow)
        return _bucket_rewrite_cycles(
            self, core, headers, bucket_addr, new
        )
