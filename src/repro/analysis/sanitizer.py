"""CacheSanitizer: runtime shadow-state checking for the simulator.

The simulator's correctness rests on memory-model invariants the test
suite can only sample: an mbuf is never used or freed twice, NIC DMA
never escapes the element it targets, a cache line is resident in
exactly the slice its address hashes to, occupancy counters never count
a line twice, and CAT/DDIO way masks are honoured by every fill path.
The real hardware enforces these for free; the simulation must *check*
them.  CacheSanitizer is the ASan/TSan-style answer: an opt-in
instrumentation layer that shadows the mempool and hierarchy with
canary state and raises a structured :class:`SanitizerError` — carrying
an access-backtrace ring buffer — the moment an invariant breaks.

Enabling it
-----------

* ``RF_SANITIZE=1`` in the environment: every :class:`~repro.dpdk.
  mempool.Mempool` and :class:`~repro.cachesim.hierarchy.CacheHierarchy`
  built afterwards joins one process-global sanitizer (so DMA span
  checks see every pool).  This is how the CI ``sanitize-smoke`` job
  runs the whole lab matrix.
* ``CacheHierarchy(..., sanitize=True)`` / ``build_hierarchy(spec,
  sanitize=True)``: a private sanitizer for that hierarchy only.
* Pass one explicit ``sanitizer=CacheSanitizer()`` object to the pools
  and hierarchies that should share shadow state (what the
  fault-injection tests do).

The sanitizer never mutates simulation state — runs under
``RF_SANITIZE=1`` are bit-identical to unsanitized runs (asserted by
``tests/test_sanitizer.py`` and by the CI job comparing a sanitized
lab run against the golden baselines).

What it checks
--------------

========================  =====================================================
kind                      invariant
========================  =====================================================
``double-free``           an mbuf returned to its pool twice
``use-after-free``        a freed mbuf mutated (``append``/``set_headroom``)
``dma-span-overrun``      a DMA span escaping its mempool element
``dma-into-free``         a DMA write into an element not currently allocated
``double-residency``      a line resident in a slice it does not hash to, or
                          in two slices at once
``double-count``          a line occupying two ways of a set / line -> way
                          map and tag array disagreeing (occupancy counted
                          twice) / a slot's tag and dirty byte disagreeing
                          on validity
``cat-violation``         a fill landing outside the CAT/DDIO way mask
``core-valid``            a line in a core's L1/L2 whose inclusive-LLC slot
                          lacks that core's core-valid bit (or that the
                          inclusive LLC does not hold at all)
``pool-corruption``       free-stack size disagreeing with the shadow free set
========================  =====================================================

Cache-state checks run as rotating partial scans every ``interval``
line events (cheap enough for whole lab runs; ``scan(h, full=True)``
sweeps everything at once).  On an inclusive LLC each scan also walks
a rotating window of the private caches' sets.  Mbuf and DMA checks
are exact and immediate.
"""

from __future__ import annotations

import os
import weakref
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

__all__ = [
    "CacheSanitizer",
    "SanitizerError",
    "default_sanitizer",
    "resolve_sanitizer",
    "sanitizer_enabled",
]

#: Environment variable that turns the process-global sanitizer on.
ENV_VAR = "RF_SANITIZE"

#: Environment override for the partial-scan cadence (line events).
ENV_INTERVAL = "RF_SANITIZE_INTERVAL"

_TRUTHY = ("1", "true", "yes", "on")


def sanitizer_enabled() -> bool:
    """Return whether ``RF_SANITIZE`` enables the global sanitizer."""
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


_DEFAULT: Optional["CacheSanitizer"] = None


def default_sanitizer() -> Optional["CacheSanitizer"]:
    """The process-global sanitizer, or ``None`` when not enabled.

    Created on first use once ``RF_SANITIZE`` is truthy; shared by every
    pool and hierarchy built afterwards so DMA span checks can resolve
    any registered pool's memory.
    """
    global _DEFAULT
    if not sanitizer_enabled():
        return None
    if _DEFAULT is None:
        interval = int(os.environ.get(ENV_INTERVAL, "0") or 0)
        _DEFAULT = CacheSanitizer(interval=interval if interval > 0 else None)
    return _DEFAULT


def resolve_sanitizer(
    sanitize: Optional[bool],
    sanitizer: Optional["CacheSanitizer"],
) -> Optional["CacheSanitizer"]:
    """Resolve the (``sanitize=``, ``sanitizer=``) constructor kwargs.

    An explicit object wins; ``sanitize=True`` builds a private
    instance; ``sanitize=False`` forces off; ``None`` defers to the
    ``RF_SANITIZE`` environment switch.
    """
    if sanitizer is not None:
        return sanitizer
    if sanitize is True:
        return CacheSanitizer()
    if sanitize is False:
        return None
    return default_sanitizer()


class SanitizerError(RuntimeError):
    """A violated simulation invariant, with diagnostic context.

    Attributes:
        kind: machine-readable violation class (see the module table).
        details: structured facts about the violation (addresses,
            indices, pool names — all plain values).
        backtrace: the most recent sanitizer events (op, details)
            leading up to the violation, oldest first.
    """

    def __init__(
        self,
        kind: str,
        message: str,
        details: Optional[Dict[str, Any]] = None,
        backtrace: Tuple[Tuple[int, str, Dict[str, Any]], ...] = (),
    ) -> None:
        self.kind = kind
        self.message = message
        self.details: Dict[str, Any] = dict(details or {})
        self.backtrace = backtrace
        trail = "".join(
            f"\n    #{seq} {op} {info}" for seq, op, info in backtrace[-8:]
        )
        super().__init__(
            f"[{kind}] {message}"
            + (f"\n  details: {self.details}" if self.details else "")
            + (f"\n  recent events (oldest first):{trail}" if trail else "")
        )

    def __reduce__(
        self,
    ) -> Tuple[Any, Tuple[str, str, Dict[str, Any], Tuple[Any, ...]]]:
        # Exceptions unpickle via cls(*args); the default args tuple is
        # the formatted string, which would crash the lab runner's
        # result marshalling (BrokenProcessPool) instead of failing the
        # one task that hit the violation.
        return (
            SanitizerError,
            (self.kind, self.message, self.details, self.backtrace),
        )


class CacheSanitizer:
    """Shadow state and invariant checks for pools and hierarchies.

    Args:
        interval: line events between rotating partial scans of the
            LLC shadow state (``RF_SANITIZE_INTERVAL`` overrides the
            default for the global instance).
        scan_sets: how many ``(slice, set)`` pairs each partial scan
            covers; the cursor rotates so the whole LLC is swept every
            ``ceil(n_slices * n_sets / scan_sets)`` scans.
        ring_size: capacity of the event ring buffer attached to every
            :class:`SanitizerError`.
        strict_cat: also verify, during scans, that every occupied way
            is inside the union of defined CAT masks and the DDIO ways
            whenever CAT is enabled.
    """

    def __init__(
        self,
        interval: Optional[int] = None,
        scan_sets: int = 512,
        ring_size: int = 64,
        strict_cat: bool = True,
    ) -> None:
        self.interval = interval if interval is not None else 16384
        self.scan_sets = scan_sets
        self.strict_cat = strict_cat
        self.events: Deque[Tuple[int, str, Dict[str, Any]]] = deque(
            maxlen=ring_size
        )
        self._seq = 0
        self._tick_count = 0
        self._cursor = 0
        self._private_cursor = 0
        # Registered pools, oldest first, weakly referenced: entries
        # outlive the experiment that built them only until the pool is
        # collected.
        self._pools: List["weakref.ref[Any]"] = []
        self.violations = 0
        self.scans = 0

    # ------------------------------------------------------------------
    # Event ring buffer
    # ------------------------------------------------------------------

    def record(self, op: str, **details: Any) -> None:
        """Append one event to the backtrace ring buffer."""
        self._seq += 1
        self.events.append((self._seq, op, details))

    def backtrace(self) -> Tuple[Tuple[int, str, Dict[str, Any]], ...]:
        """Snapshot of the event ring buffer, oldest first."""
        return tuple(self.events)

    def _raise(self, kind: str, message: str, **details: Any) -> None:
        self.violations += 1
        raise SanitizerError(kind, message, details, self.backtrace())

    # ------------------------------------------------------------------
    # Mempool / mbuf lifecycle
    # ------------------------------------------------------------------

    def register_pool(self, pool: Any) -> None:
        """Start shadowing a mempool (called from ``Mempool.__init__``).

        The pool must expose ``name``, ``base_phys``, ``element_size``,
        ``capacity`` and ``mbufs``; the sanitizer stores its shadow
        state on the pool itself (``_san_free``, ``_san_machine``) so
        the state dies with the pool.  Until :meth:`attach_pool` names
        its machine, DMA checks treat the pool as described in
        :meth:`check_dma_span`.
        """
        pool._san_free = set(range(pool.capacity))
        pool._san_machine = None
        self._pools.append(weakref.ref(pool))
        self.record(
            "register-pool",
            pool=pool.name,
            base=pool.base_phys,
            elements=pool.capacity,
            element_size=pool.element_size,
        )

    def attach_pool(self, pool: Any, hierarchy: Any) -> None:
        """Scope *pool* to the machine whose DMA engine fills it.

        Called when a NIC is wired to the pool (``Nic.__init__``).
        Machines built side by side lay out their physical memory
        independently, so their pools overlap in address; from now on
        only DMA issued through *hierarchy* is checked against *pool*.
        """
        pool._san_machine = weakref.ref(hierarchy)
        self.record("attach-pool", pool=pool.name)

    def on_alloc(self, pool: Any, mbuf: Any) -> None:
        """An mbuf left the free stack."""
        pool._san_free.discard(mbuf.index)
        self.record("alloc", pool=pool.name, index=mbuf.index)

    def on_free(self, pool: Any, mbuf: Any) -> None:
        """An mbuf is being returned to the pool; flags double frees."""
        free: Set[int] = pool._san_free
        if mbuf.index in free:
            self.record("free", pool=pool.name, index=mbuf.index)
            self._raise(
                "double-free",
                f"mbuf {mbuf.index} of pool {pool.name!r} freed twice",
                pool=pool.name,
                index=mbuf.index,
                base_phys=mbuf.base_phys,
            )
        free.add(mbuf.index)
        self.record("free", pool=pool.name, index=mbuf.index)

    def check_mbuf_live(self, mbuf: Any, op: str) -> None:
        """Flag mutation of an mbuf that sits on the free stack."""
        pool = mbuf.pool
        if pool is None:
            return
        if mbuf.index in pool._san_free:
            self.record(op, pool=pool.name, index=mbuf.index)
            self._raise(
                "use-after-free",
                f"{op}() on freed mbuf {mbuf.index} of pool {pool.name!r}",
                pool=pool.name,
                index=mbuf.index,
                op=op,
                base_phys=mbuf.base_phys,
            )

    # ------------------------------------------------------------------
    # DMA span containment
    # ------------------------------------------------------------------

    def check_dma_span(
        self, hierarchy: Any, address: int, size: int, write: bool
    ) -> None:
        """Validate a DMA span issued through *hierarchy*'s DMA engine.

        The span is checked against the newest registered pool it
        intersects among that machine's pools and, unless this is the
        process-global ``RF_SANITIZE`` sanitizer, the pools no NIC has
        claimed (experiments run back to back in one process rebuild
        their pools at the same physical base, and the stale pool may
        not be collected yet).  It must stay inside one
        element's buffer region (metadata struct excluded — the NIC
        never DMAs over an mbuf header); writes must additionally
        target a currently-allocated element.  Spans outside every
        such pool (descriptor rings, KVS slabs) are not checked.
        """
        op = "dma-write" if write else "dma-read"
        compact = False
        for ref in reversed(self._pools):
            pool = ref()
            if pool is None:
                compact = True
                continue
            machine = pool._san_machine
            if machine is None:
                # No NIC has claimed the pool.  The process-global
                # sanitizer serves every machine in the process, so it
                # cannot tell whose pool this is; a sanitizer the caller
                # built serves only the machines wired to it.
                if self is _DEFAULT:
                    continue
            elif machine() is not hierarchy:
                continue
            base = pool.base_phys
            end = base + pool.element_size * pool.capacity
            if address + size <= base or address >= end:
                continue
            self.record(op, address=address, size=size, pool=pool.name)
            element = (address - base) // pool.element_size
            elem_base = base + element * pool.element_size
            struct_size = pool.mbufs[0].buf_phys - pool.mbufs[0].base_phys
            buf_start = elem_base + struct_size
            elem_end = elem_base + pool.element_size
            if address < buf_start or address + size > elem_end:
                self._raise(
                    "dma-span-overrun",
                    f"{op} [{address:#x}, {address + size:#x}) escapes "
                    f"element {element} of pool {pool.name!r} "
                    f"(buffer region [{buf_start:#x}, {elem_end:#x}))",
                    pool=pool.name,
                    element=element,
                    address=address,
                    size=size,
                    buffer_start=buf_start,
                    buffer_end=elem_end,
                )
            if write and element in pool._san_free:
                self._raise(
                    "dma-into-free",
                    f"dma-write into free element {element} of pool "
                    f"{pool.name!r}",
                    pool=pool.name,
                    element=element,
                    address=address,
                    size=size,
                )
            break
        if compact:
            self._pools = [r for r in self._pools if r() is not None]

    # ------------------------------------------------------------------
    # Hierarchy shadow scans
    # ------------------------------------------------------------------

    def tick(self, hierarchy: Any, events: int = 1) -> None:
        """Count line events; run a partial scan every ``interval``."""
        self._tick_count += events
        if self._tick_count >= self.interval:
            self._tick_count = 0
            self.scan(hierarchy)

    def scan(self, hierarchy: Any, full: bool = False) -> None:
        """Validate the LLC shadow state (and pool shadow sets).

        Partial scans check a rotating window of ``scan_sets``
        ``(slice, set)`` pairs and, on an inclusive LLC, one of
        ``scan_sets`` private-cache sets; ``full=True`` sweeps every
        set and additionally cross-checks that no line is resident in
        two slices at once.

        Raises:
            SanitizerError: on the first violation found.
        """
        # Imported here: repro.cachesim imports this module.
        from repro.cachesim.cache import INVALID_TAG, INVALID_WAY

        llc = hierarchy.llc
        n_slices = llc.n_slices
        n_sets = llc.n_sets
        n_ways = llc.n_ways
        total = n_slices * n_sets
        count = total if full else min(self.scan_sets, total)
        self.scans += 1
        self.record("scan", full=full, cursor=self._cursor, sets=count)

        allowed_union: Optional[Set[int]] = None
        if self.strict_cat and llc.cat.is_enabled():
            mask = 0
            for clos_mask in llc.cat._clos_masks.values():
                mask |= clos_mask
            allowed_union = {w for w in range(llc.n_ways) if mask & (1 << w)}
            allowed_union.update(llc.ddio_way_tuple)
            if len(allowed_union) == llc.n_ways:
                allowed_union = None  # every way reachable: nothing to check

        slice_of = llc.hash.slice_of
        set_mask = n_sets - 1
        cursor = 0 if full else self._cursor
        scanned_slices: Dict[int, None] = {}
        for k in range(count):
            pos = (cursor + k) % total
            slc, set_i = divmod(pos, n_sets)
            scanned_slices[slc] = None
            slice_cache = llc.slices[slc]
            where = slice_cache._where
            base = set_i * n_ways
            for way, (tag, dirty) in enumerate(
                zip(
                    slice_cache._tags[base:base + n_ways],
                    slice_cache._dirty[base:base + n_ways],
                )
            ):
                # The tag and the dirty byte both encode validity; the
                # free-way search trusts the byte, so a disagreement
                # lets a fill overwrite a resident line.
                if (tag != INVALID_TAG) != (dirty != INVALID_WAY):
                    self._raise(
                        "double-count",
                        f"slice {slc} set {set_i} way {way}: tag {tag} "
                        f"but dirty byte {dirty} — the two validity "
                        "encodings disagree",
                        slice=slc,
                        set=set_i,
                        way=way,
                        tag=tag,
                        dirty_byte=dirty,
                    )
                if tag == INVALID_TAG:
                    continue
                # The line -> way map must lead every lookup of this
                # tag back to this slot: same way, and the tag's own
                # set (a map way past the set's end would alias a
                # neighbour's slot).
                mapped = where.get(tag)
                if mapped != way or (tag >> 6) & set_mask != set_i:
                    self._raise(
                        "double-count",
                        f"slice {slc} set {set_i} way {way}: tag array "
                        f"holds line {tag:#x} but the line -> way map "
                        f"says way {mapped!r}",
                        slice=slc,
                        set=set_i,
                        way=mapped,
                        slot_way=way,
                        line=tag,
                    )
                home = slice_of(tag)
                if home != slc:
                    self._raise(
                        "double-residency",
                        f"line {tag:#x} resident in slice {slc} but "
                        f"hashes to slice {home}",
                        line=tag,
                        resident_slice=slc,
                        home_slice=home,
                        set=set_i,
                        way=way,
                    )
                if allowed_union is not None and way not in allowed_union:
                    self._raise(
                        "cat-violation",
                        f"line {tag:#x} occupies way {way} of slice "
                        f"{slc}, outside every CAT mask and the DDIO "
                        "ways",
                        line=tag,
                        slice=slc,
                        set=set_i,
                        way=way,
                        allowed=sorted(allowed_union),
                    )
        # Every valid slot checked above maps back to itself, so a map
        # entry with no slot behind it shows only as a count mismatch
        # with the slice's valid slots.
        for slc in scanned_slices:
            slice_cache = llc.slices[slc]
            dirty_bytes = slice_cache._dirty
            valid = len(dirty_bytes) - dirty_bytes.count(INVALID_WAY)
            mapped_lines = len(slice_cache._where)
            if valid != mapped_lines:
                self._raise(
                    "double-count",
                    f"slice {slc}: {valid} valid ways but "
                    f"{mapped_lines} mapped lines — a line is counted "
                    "twice in occupancy",
                    slice=slc,
                    valid_ways=valid,
                    mapped_lines=mapped_lines,
                )
        if not full:
            self._cursor = (cursor + count) % total

        if full:
            seen: Dict[int, int] = {}
            for slc in range(n_slices):
                for line in llc.slices[slc].lines():
                    other = seen.get(line)
                    if other is not None:
                        self._raise(
                            "double-residency",
                            f"line {line:#x} resident in slices {other} "
                            f"and {slc} simultaneously",
                            line=line,
                            slices=[other, slc],
                        )
                    seen[line] = slc

        if hierarchy.inclusive:
            self._scan_core_valid(hierarchy, full)

        compact = False
        for ref in self._pools:
            pool = ref()
            if pool is None:
                compact = True
                continue
            if len(pool._san_free) != pool.available:
                self._raise(
                    "pool-corruption",
                    f"pool {pool.name!r}: free stack holds "
                    f"{pool.available} elements but the shadow set "
                    f"tracks {len(pool._san_free)}",
                    pool=pool.name,
                    stack=pool.available,
                    shadow=len(pool._san_free),
                )
        if compact:
            self._pools = [r for r in self._pools if r() is not None]

    def _scan_core_valid(self, hierarchy: Any, full: bool) -> None:
        """Check a window of private sets against the core-valid bits.

        Positions run over every core's L1 sets, then every core's L2
        sets; each line found must carry its core's bit in its slot of
        the inclusive LLC, since the fast engine back-invalidates and
        snoops only the cores those bits name.
        """
        llc = hierarchy.llc
        line_slice = hierarchy._line_slice
        n_cores = hierarchy.n_cores
        l1_sets = hierarchy.l1s[0].n_sets
        l2_sets = hierarchy.l2s[0].n_sets
        total = n_cores * (l1_sets + l2_sets)
        count = total if full else min(self.scan_sets, total)
        cursor = 0 if full else self._private_cursor
        for k in range(count):
            pos = (cursor + k) % total
            if pos < n_cores * l1_sets:
                level = "l1"
                core, set_i = divmod(pos, l1_sets)
                cache = hierarchy.l1s[core]
            else:
                level = "l2"
                core, set_i = divmod(pos - n_cores * l1_sets, l2_sets)
                cache = hierarchy.l2s[core]
            for line in cache._sets[set_i]:
                slc = line_slice(line)
                bits = llc.slices[slc].core_valid(line)
                if bits >> core & 1:
                    continue
                held = llc.slices[slc].contains(line)
                self._raise(
                    "core-valid",
                    f"line {line:#x} in core {core}'s {level} set {set_i} "
                    + (
                        f"but its slot in LLC slice {slc} has core-valid "
                        f"bits {bits:#x}, without core {core}"
                        if held
                        else "but not in the inclusive LLC"
                    ),
                    line=line,
                    core=core,
                    level=level,
                    set=set_i,
                    slice=slc,
                    bits=bits,
                    in_llc=held,
                )
        if not full:
            self._private_cursor = (cursor + count) % total

    # ------------------------------------------------------------------
    # Fill-time way-mask check (reference engine path)
    # ------------------------------------------------------------------

    def check_fill_way(
        self,
        llc: Any,
        slice_index: int,
        line: int,
        way: Optional[int],
        allowed: Optional[Tuple[int, ...]],
        io: bool,
    ) -> None:
        """Verify a masked fill landed inside its way mask.

        Called by :meth:`SlicedLLC.fill` after a fill that carried a
        CAT or DDIO way restriction and *newly inserted* the line
        (refresh-in-place never migrates ways, so pre-existing
        placements are exempt).
        """
        if allowed is None or way is None or way in allowed:
            return
        kind = "cat-violation"
        source = "DDIO" if io else "CAT"
        self._raise(
            kind,
            f"{source} fill of line {line:#x} landed in way {way} of "
            f"slice {slice_index}, outside allowed ways {tuple(allowed)}",
            line=line,
            slice=slice_index,
            way=way,
            allowed=list(allowed),
            io=io,
        )
