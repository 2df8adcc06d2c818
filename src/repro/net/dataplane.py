"""Record/replay: the one way the dataplane charges the cache model.

Whether a packet is dropped, which mbuf it gets, which fault draws
fire — none of that depends on cache *timing*; cache state only
determines cycle counts.  NFV packet traces
(:meth:`~repro.net.chain.DutEnvironment.service_cycles`) and KVS / fleet
request streams (:func:`~repro.kvs.server.serve_requests`) are charged
by exploiting exactly that split, in chunks of at most
:data:`REPLAY_CHUNK` items:

1. **Control pass** — build the chunk's op stream, one list of
   ``(kind, first_line, last_line, aux)`` tuples: demand spans and DMA
   spans, interleaved in program order.  NFV runs the real
   NIC/mempool/PMD/chain/supervisor code per packet, in arrival order,
   with the hierarchy's ``read``/``write`` and the NIC's DDIO engine
   swapped for an :class:`OpRecorder`.  Every drop decision, fault
   draw, allocation and counter update happens exactly as in the
   per-packet loop (it *is* that code); the recorder just captures the
   ops instead of walking the cache model.  A KVS request's memory
   behaviour is a fixed shape, so :meth:`~repro.kvs.server.KvsServer.
   emit_ops` appends its ops directly, with no recorder in between.
2. **Charging pass** — :func:`replay_ops` charges the chunk, in order,
   through :meth:`FastEngine.run_op_stream` (one flattened loop), or
   through the reference methods on a hierarchy built inside
   :func:`repro.cachesim.diff.reference_engine`.  Because the ops
   execute in the order the per-item loop would have issued them, every
   hit, victim, write-back and uncore counter lands identically.

Per-item cycles are then the control pass's fixed costs plus the
segment sums of the replayed demand-op cycles (DMA ops charge nothing
to items).  Chunking changes nothing but peak memory: the control pass
never reads cache state, so where the stream is cut is invisible.

The per-item loops remain as the fallback :func:`charges_per_item`
decides — a runtime :class:`CacheSanitizer` must interleave its
DMA-overrun checks with the accesses they guard, and a KVS fault clock
must raise at the failing request with the cache state it had then —
and as the differential oracle, reached only through
:func:`repro.cachesim.diff.per_item_oracle`.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cachesim.engine import OP_DMA_READ, OP_DMA_WRITE, OP_READ, OP_WRITE
from repro.mem.address import CACHE_LINE

_LINE_MASK = ~(CACHE_LINE - 1)

#: Items (packets or requests) recorded per replay.  Bounds the op list
#: — a dozen tuples per NFV packet, about six per KVS request — so peak
#: memory does not grow with the trace length.
REPLAY_CHUNK = 128

#: Set only inside :func:`repro.cachesim.diff.per_item_oracle`: every
#: stream is charged one item at a time, the record/replay's oracle.
PER_ITEM_ORACLE: ContextVar[bool] = ContextVar("PER_ITEM_ORACLE", default=False)


def charges_per_item(hierarchy, fault_clock: bool = False) -> bool:
    """Whether a stream on *hierarchy* must skip record/replay.

    True under the differential oracle switch, with a runtime sanitizer
    installed, or when *fault_clock* says a KVS server injects request
    faults (see the module docstring for why each needs the per-item
    loop).
    """
    return PER_ITEM_ORACLE.get() or hierarchy.sanitizer is not None or fault_clock


def chunk_bounds(n: int) -> Iterator[Tuple[int, int]]:
    """``(start, stop)`` of each replay chunk over *n* items."""
    chunk = REPLAY_CHUNK
    for start in range(0, n, chunk):
        yield start, min(start + chunk, n)


class RecordingDdio:
    """Stand-in for :class:`DdioEngine` that records instead of filling.

    Installed over an object's ``.ddio`` attribute during the control
    pass; validates like the real engine, appends the span to the
    recorder (DDIO index 0: a capture has at most one engine), and
    leaves all cache and stats mutation to the replay.
    The record paths are closures over the recorder's op list — these
    run once per DMA span on the hot control path.
    """

    def __init__(self, recorder: "OpRecorder") -> None:
        append = recorder.ops.append

        def dma_write(address, size, _append=append):
            if size <= 0:
                raise ValueError(f"size must be positive, got {size}")
            first = address & _LINE_MASK
            last = (address + size - 1) & _LINE_MASK
            _append((OP_DMA_WRITE, first, last, 0))
            return (last - first) // CACHE_LINE + 1

        def dma_read(address, size, _append=append):
            if size <= 0:
                raise ValueError(f"size must be positive, got {size}")
            first = address & _LINE_MASK
            last = (address + size - 1) & _LINE_MASK
            _append((OP_DMA_READ, first, last, 0))
            return (last - first) // CACHE_LINE + 1

        #: Record an RX-side DMA span; returns lines touched.
        self.dma_write = dma_write
        #: Record a TX-side DMA span; returns lines touched.
        self.dma_read = dma_read


class OpRecorder:
    """Accumulates one interleaved dataplane op stream.

    The stream is one list of ``(kind, first_line, last_line, aux)``
    tuples — ``aux`` is the issuing core for demand ops and the
    DDIO-engine index for DMA ops (always 0 here: a capture swaps at
    most one engine).
    """

    def __init__(self) -> None:
        self.ops: List[Tuple[int, int, int, int]] = []
        append = self.ops.append

        # Recording callbacks as closures: these displace
        # ``CacheHierarchy.read``/``write`` on the hot control path,
        # so they skip bound-method and global-name lookups.
        def record_read(core, address, size=CACHE_LINE, _append=append):
            if size <= 0:
                raise ValueError(f"size must be positive, got {size}")
            _append(
                (
                    OP_READ,
                    address & _LINE_MASK,
                    (address + size - 1) & _LINE_MASK,
                    core,
                )
            )
            return 0

        def record_write(core, address, size=CACHE_LINE, _append=append):
            if size <= 0:
                raise ValueError(f"size must be positive, got {size}")
            _append(
                (
                    OP_WRITE,
                    address & _LINE_MASK,
                    (address + size - 1) & _LINE_MASK,
                    core,
                )
            )
            return 0

        #: Recording replacement for ``CacheHierarchy.read``.
        self.record_read = record_read
        #: Recording replacement for ``CacheHierarchy.write``.
        self.record_write = record_write

    @property
    def n_ops(self) -> int:
        """Ops recorded so far (packet boundaries snapshot this)."""
        return len(self.ops)

    @contextmanager
    def capture(self, hierarchy, ddio_holder: Optional[object] = None) -> Iterator[None]:
        """Swap *hierarchy*'s demand path and *ddio_holder*'s ``.ddio``.

        ``ddio_holder`` is the object whose ``.ddio`` attribute the
        control code calls (the NIC), or ``None`` when the captured
        code issues no DMA.  Instance attributes are restored exactly
        on exit — including the fast engine's bound ``read``/``write``,
        which a hierarchy installs over its own methods on its first
        access.
        """
        saved_read = hierarchy.__dict__.get("read")
        saved_write = hierarchy.__dict__.get("write")
        hierarchy.read = self.record_read
        hierarchy.write = self.record_write
        if ddio_holder is not None:
            # One tiny wrapper per capture (not per packet); pooling
            # would leak recorder state across bursts.
            saved_ddio = ddio_holder.ddio
            ddio_holder.ddio = RecordingDdio(self)
        try:
            yield
        finally:
            if ddio_holder is not None:
                ddio_holder.ddio = saved_ddio
            if saved_read is None:
                hierarchy.__dict__.pop("read", None)
            else:
                hierarchy.read = saved_read
            if saved_write is None:
                hierarchy.__dict__.pop("write", None)
            else:
                hierarchy.write = saved_write


def replay_ops(
    hierarchy,
    ops: Sequence[Tuple[int, int, int, int]],
    ddios: Sequence[object],
    multi_ddio: bool = False,
) -> np.ndarray:
    """Charge an op stream in order; returns per-op cycles.

    On the fast engine (and with no sanitizer — callers check
    :func:`charges_per_item`) the whole stream runs through one
    :meth:`FastEngine.run_op_stream` call; on an oracle hierarchy each
    op goes through the reference methods (:func:`charge_each`).
    Either way the call sequence is the one the per-item loop would
    have made, so outcomes are bit-identical.
    """
    if not ops:
        return np.zeros(0, dtype=np.int64)
    if hierarchy.engine_name == "fast":
        return hierarchy.fast_engine().run_op_stream(ops, ddios, multi_ddio)
    return np.asarray(charge_each(hierarchy, ops, ddios, multi_ddio), dtype=np.int64)


def charge_each(
    hierarchy,
    ops: Sequence[Tuple[int, int, int, int]],
    ddios: Sequence[object],
    multi_ddio: bool = False,
) -> List[int]:
    """Charge *ops* one call each; returns per-op cycles.

    Demand ops go through ``hierarchy.read``/``write``, DMA ops through
    their :class:`~repro.cachesim.ddio.DdioEngine` (``ddios[aux]`` when
    *multi_ddio*, else ``ddios[0]``), which is what the per-item loops
    call: a sanitizer installed on *hierarchy* checks and ticks as it
    would there.  DMA ops charge 0.
    """
    out = []
    append = out.append
    single = None if multi_ddio else ddios[0]
    for kind, first, last, aux in ops:
        size = last - first + CACHE_LINE
        if kind == OP_READ:
            append(hierarchy.read(aux, first, size))
        elif kind == OP_WRITE:
            append(hierarchy.write(aux, first, size))
        else:
            ddio = single if single is not None else ddios[aux]
            if kind == OP_DMA_WRITE:
                ddio.dma_write(first, size)
            else:
                ddio.dma_read(first, size)
            append(0)
    return out


def segment_sums(per_op: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sum *per_op* over ``[bounds[i], bounds[i+1])`` segments.

    ``np.add.reduceat`` mis-handles empty segments (it returns the
    element at the index instead of 0), so this goes through a cumsum.
    """
    csum = np.concatenate(([0], np.cumsum(per_op, dtype=np.int64)))
    return csum[bounds[1:]] - csum[bounds[:-1]]
