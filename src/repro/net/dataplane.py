"""Record/replay machinery behind the batched dataplane.

The scalar dataplane charges every cache access and every DMA span the
moment it happens, one :meth:`CacheHierarchy.read` or
:meth:`DdioEngine.dma_write` call at a time.  Whether a packet is
dropped, which mbuf it gets, which fault draws fire — none of that
depends on cache *timing*; cache state only determines cycle counts.
The batched dataplane exploits exactly that split:

1. **Control pass** — run the real NIC/mempool/PMD/chain/supervisor
   code per packet, in arrival order, with the hierarchy's ``read``/
   ``write`` and the NIC's DDIO engine swapped for an
   :class:`OpRecorder`.  Every drop decision, fault draw, allocation
   and counter update happens exactly as in the scalar path (it *is*
   the scalar code); the recorder just captures the op stream —
   demand spans and DMA spans, interleaved in program order — instead
   of walking the cache model.
2. **Charging pass** — replay the recorded stream, in order, through
   :meth:`FastEngine.run_op_stream` (one flattened loop over the whole
   trace) or through the reference methods when the fast engine is not
   selected.  Because the ops execute in the order the scalar path
   would have issued them, every hit, victim, write-back and uncore
   counter lands identically — the differential harness
   (:func:`repro.cachesim.diff.run_dataplane_differential`) proves it.

Per-packet cycles are then the control pass's fixed costs plus the
segment sums of the replayed demand-op cycles (DMA ops charge nothing
to packets, mirroring the scalar path).

The one configuration this cannot serve is a hierarchy with a runtime
:class:`CacheSanitizer`: its DMA-overrun checks must interleave with
the accesses they guard, which deferred replay breaks.  Callers fall
back to the scalar loop in that case (results are identical either
way; only the speedup is lost).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.cachesim.engine import OP_DMA_READ, OP_DMA_WRITE, OP_READ, OP_WRITE
from repro.mem.address import CACHE_LINE

_LINE_MASK = ~(CACHE_LINE - 1)


class RecordingDdio:
    """Stand-in for :class:`DdioEngine` that records instead of filling.

    Installed over an object's ``.ddio`` attribute during the control
    pass; validates like the real engine, appends the span to the
    recorder, and leaves all cache and stats mutation to the replay.
    The record paths are closures over the recorder's op list — these
    run once per DMA span on the hot control path.
    """

    def __init__(self, recorder: "OpRecorder", index: int) -> None:
        append = recorder.ops.append

        def dma_write(address, size, _append=append, _index=index):
            if size <= 0:
                raise ValueError(f"size must be positive, got {size}")
            first = address & _LINE_MASK
            last = (address + size - 1) & _LINE_MASK
            _append((OP_DMA_WRITE, first, last, _index))
            return (last - first) // CACHE_LINE + 1

        def dma_read(address, size, _append=append, _index=index):
            if size <= 0:
                raise ValueError(f"size must be positive, got {size}")
            first = address & _LINE_MASK
            last = (address + size - 1) & _LINE_MASK
            _append((OP_DMA_READ, first, last, _index))
            return (last - first) // CACHE_LINE + 1

        #: Record an RX-side DMA span; returns lines touched.
        self.dma_write = dma_write
        #: Record a TX-side DMA span; returns lines touched.
        self.dma_read = dma_read


class OpRecorder:
    """Accumulates one interleaved dataplane op stream.

    The stream is one list of ``(kind, first_line, last_line, aux)``
    tuples — ``aux`` is the issuing core for demand ops and the
    DDIO-engine index for DMA ops (multi-engine callers like the fleet
    path run one engine per tenant).
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

    # -- capture / replay ----------------------------------------------

    @contextmanager
    def capture(self, hierarchy, ddio_holders: Sequence[object]) -> Iterator[None]:
        """Swap *hierarchy*'s demand path and each holder's ``.ddio``.

        ``ddio_holders`` are the objects whose ``.ddio`` attribute the
        control code calls (the NIC; each fleet tenant's KVS server).
        The i-th holder's spans are tagged with DDIO index ``i`` so the
        replay can route them to the matching real engine.  Instance
        attributes are restored exactly on exit — including the fast
        engine's bound ``read``/``write``, which a hierarchy installs
        over its own methods on its first access.
        """
        saved_read = hierarchy.__dict__.get("read")
        saved_write = hierarchy.__dict__.get("write")
        saved_ddios = [holder.ddio for holder in ddio_holders]
        hierarchy.read = self.record_read
        hierarchy.write = self.record_write
        for i, holder in enumerate(ddio_holders):
            # One tiny wrapper per DDIO holder per capture (not per
            # packet); pooling would leak recorder state across bursts.
            holder.ddio = RecordingDdio(self, i)
        try:
            yield
        finally:
            for holder, ddio in zip(ddio_holders, saved_ddios):
                holder.ddio = ddio
            if saved_read is None:
                hierarchy.__dict__.pop("read", None)
            else:
                hierarchy.read = saved_read
            if saved_write is None:
                hierarchy.__dict__.pop("write", None)
            else:
                hierarchy.write = saved_write

    def replay(
        self,
        hierarchy,
        ddios: Sequence[object],
        multi_ddio: bool = False,
    ) -> np.ndarray:
        """Charge the recorded stream in order; returns per-op cycles.

        With the fast engine selected (and no sanitizer — the callers
        guarantee it) the whole stream runs through one
        :meth:`FastEngine.run_op_stream` call; otherwise each op goes
        through the reference methods it displaced.  Either way the
        call sequence is the one the scalar path would have made, so
        outcomes are bit-identical.
        """
        n = self.n_ops
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        if hierarchy.engine_name == "fast":
            return hierarchy.fast_engine().run_op_stream(
                self.ops, ddios, multi_ddio
            )
        out = np.zeros(n, dtype=np.int64)
        single = None if multi_ddio else ddios[0]
        for i, (kind, first, last, aux) in enumerate(self.ops):
            size = last - first + CACHE_LINE
            if kind == OP_READ:
                out[i] = hierarchy.read(aux, first, size)
            elif kind == OP_WRITE:
                out[i] = hierarchy.write(aux, first, size)
            else:
                ddio = single if single is not None else ddios[aux]
                # Intentional scalar reference path: the reference
                # engine charges op by op; the fast engine takes the
                # whole stream through run_op_stream instead.
                if kind == OP_DMA_WRITE:
                    ddio.dma_write(first, size)
                else:
                    ddio.dma_read(first, size)
        return out


def segment_sums(per_op: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sum *per_op* over ``[bounds[i], bounds[i+1])`` segments.

    ``np.add.reduceat`` mis-handles empty segments (it returns the
    element at the index instead of 0), so this goes through a cumsum.
    """
    csum = np.concatenate(([0], np.cumsum(per_op, dtype=np.int64)))
    return csum[bounds[1:]] - csum[bounds[:-1]]
