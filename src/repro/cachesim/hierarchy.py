"""The full cache hierarchy: per-core L1/L2, sliced LLC, DRAM.

This is the cycle-accounting engine every experiment runs on.  An
access walks L1 → L2 → LLC slice → DRAM exactly as in Fig. 2 of the
paper and returns the number of cycles the *issuing core* stalls.

Timing model (all knobs in :class:`LatencySpec`):

* Loads cost the latency of the level that services them; LLC hits add
  the NUCA interconnect distance — the effect the whole paper is about.
* Stores retire through the store buffer (write-back, write-allocate):
  a store costs the constant commit latency plus an optional
  ``rfo_fraction`` of the fetch latency (0 by default — the paper's
  Fig. 5b shows single writes are flat regardless of slice).  Slice
  distance surfaces for *sustained* writes via the write-back drain:
  dirty L2 victims are written to their LLC slice and a configurable
  fraction of that NUCA latency is charged to the access that forced
  the eviction (reproducing Fig. 6b).
* Dirty LLC victims charge a DRAM write-back drain cost.

Inclusivity: Haswell's LLC is inclusive (LLC evictions back-invalidate
private caches); Skylake's is a non-inclusive victim cache (DRAM fills
bypass the LLC, which is populated by L2 evictions instead) — §6.

Coherence: private caches are modelled per core without a full MESI
protocol; the experiments touch each line from a single core at a
time, and the one true cross-agent writer — the NIC's DMA — explicitly
invalidates private copies via :meth:`CacheHierarchy.invalidate_private`
(see :mod:`repro.cachesim.ddio`).
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.sanitizer import CacheSanitizer, resolve_sanitizer
from repro.cachesim.cache import DictCache
from repro.cachesim.llc import SlicedLLC
from repro.mem.address import CACHE_LINE, line_address


@dataclass(frozen=True)
class LatencySpec:
    """Cycle costs of the memory hierarchy (defaults: Haswell @ 3.2 GHz).

    Frozen: the fast engine serves scalar reads and writes from tables
    snapshotted from these values, so a spec never changes in place.

    Attributes:
        l1_hit: load-to-use latency of an L1 hit.
        l2_hit: latency of an L2 hit.
        dram: latency of a DRAM access (~60 ns at 3.2 GHz).
        store_commit: cycles a store occupies the core when the store
            buffer absorbs it.
        rfo_fraction: fraction of the fetch latency charged to a store
            miss (0.0 = store buffer hides the read-for-ownership).
        wb_l1_visible: cycles charged when a dirty L1 victim drains to
            L2.
        wb_llc_fraction: fraction of the (base + NUCA) LLC latency
            charged when a dirty L2 victim drains to its slice.
        wb_dram_visible: cycles charged when a dirty LLC victim drains
            to DRAM; kept well below the DRAM latency because eviction
            writes are buffered and mostly hidden from the core.
    """

    l1_hit: int = 4
    l2_hit: int = 11
    dram: int = 190
    store_commit: int = 4
    rfo_fraction: float = 0.0
    wb_l1_visible: int = 1
    wb_llc_fraction: float = 0.5
    wb_dram_visible: int = 12


@dataclass
class HierarchyStats:
    """Aggregate hit/miss counters for the whole hierarchy."""

    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    dram_accesses: int = 0
    dram_writebacks: int = 0
    reads: int = 0
    writes: int = 0
    cycles: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Return the counters as a plain dict."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a single line access."""

    cycles: int
    level: str  # "l1" | "l2" | "llc" | "dram"
    slice_index: Optional[int] = None


#: Engine a new hierarchy starts on.  Always ``"fast"``, except inside
#: :func:`repro.cachesim.diff.reference_engine`, which builds the
#: differential oracle's hierarchies on :meth:`CacheHierarchy.access_line`.
START_ENGINE: ContextVar[str] = ContextVar("START_ENGINE", default="fast")


class CacheHierarchy:
    """Per-core L1/L2 private caches over a shared sliced LLC.

    Demand accesses (``read``/``write``/``access_batch``) and NIC DMA
    spans are served by the hierarchy's :class:`~repro.cachesim.engine.
    FastEngine`, built on the first access.  ``access_line`` is the
    per-access reference path the engine is checked against.

    Args:
        n_cores: number of cores on the socket.
        llc: the shared sliced LLC.
        l1_sets/l1_ways: geometry of each core's L1D.
        l2_sets/l2_ways: geometry of each core's (private) L2.
        latency: cycle-cost model.
        inclusive: ``True`` for Haswell (inclusive LLC), ``False`` for
            Skylake (non-inclusive victim LLC).
        prefetchers: optional per-core L2 prefetchers (see
            :mod:`repro.cachesim.prefetch`).
        sanitize: CacheSanitizer switch — ``True`` builds a private
            sanitizer, ``False`` forces it off, ``None`` (default)
            joins the process-global one when ``RF_SANITIZE=1``.
        sanitizer: explicit sanitizer instance (wins over
            ``sanitize``), for sharing shadow state with mempools.
    """

    def __init__(
        self,
        n_cores: int,
        llc: SlicedLLC,
        l1_sets: int = 64,
        l1_ways: int = 8,
        l2_sets: int = 512,
        l2_ways: int = 8,
        latency: Optional[LatencySpec] = None,
        inclusive: bool = True,
        prefetchers: Optional[List[object]] = None,
        sanitize: Optional[bool] = None,
        sanitizer: Optional[CacheSanitizer] = None,
    ) -> None:
        if n_cores <= 0:
            raise ValueError(f"n_cores must be positive, got {n_cores}")
        if n_cores > llc.interconnect.n_cores:
            raise ValueError(
                f"{n_cores} cores exceed the interconnect's "
                f"{llc.interconnect.n_cores}"
            )
        self.n_cores = n_cores
        self.llc = llc
        self.latency = latency if latency is not None else LatencySpec()
        self.inclusive = inclusive
        self.l1s: List[DictCache] = [
            DictCache(l1_sets, l1_ways, name=f"l1-core{c}") for c in range(n_cores)
        ]
        self.l2s: List[DictCache] = [
            DictCache(l2_sets, l2_ways, name=f"l2-core{c}") for c in range(n_cores)
        ]
        self.prefetchers = prefetchers if prefetchers is not None else [None] * n_cores
        if len(self.prefetchers) != n_cores:
            raise ValueError("need one prefetcher slot per core")
        self.stats = HierarchyStats()
        # Cores whose private caches may hold lines; invalidations only
        # need to visit these (single-core workloads skip 7/8 of the
        # private-cache probes).
        self._active_cores: set = set()
        #: Which access engine serves ``read``/``write``/``access_batch``:
        #: ``"fast"`` (:mod:`repro.cachesim.engine`) or the differential
        #: oracle ``"reference"`` (this module's per-access path).
        self.engine_name = START_ENGINE.get()
        self._fast_engine = None
        #: Optional runtime invariant checker (see
        #: :mod:`repro.analysis.sanitizer`); shared with the LLC so
        #: masked fills are verified at fill time.
        self.sanitizer = resolve_sanitizer(sanitize, sanitizer)
        if self.sanitizer is not None:
            llc.sanitizer = self.sanitizer

    # ------------------------------------------------------------------
    # Demand accesses
    # ------------------------------------------------------------------

    def access_line(self, core: int, line: int, write: bool = False) -> AccessResult:
        """Access one cache line; returns cycles and servicing level."""
        stats = self.stats
        lat = self.latency
        self._active_cores.add(core)
        if write:
            stats.writes += 1
        else:
            stats.reads += 1

        if self.l1s[core].lookup(line, write=write):
            stats.l1_hits += 1
            cycles = lat.store_commit if write else lat.l1_hit
            stats.cycles += cycles
            return AccessResult(cycles, "l1")
        stats.l1_misses += 1

        if self.l2s[core].lookup(line, write=False):
            stats.l2_hits += 1
            if write:
                cycles = lat.store_commit + int(lat.rfo_fraction * lat.l2_hit)
            else:
                cycles = lat.l2_hit
            cycles += self._fill_l1(core, line, dirty=write)
            stats.cycles += cycles
            return AccessResult(cycles, "l2")
        stats.l2_misses += 1

        hit, slice_index = self.llc.lookup(line, write=False)
        if hit:
            stats.llc_hits += 1
            load_latency = self.llc.access_latency(core, slice_index)
            if write:
                cycles = lat.store_commit + int(lat.rfo_fraction * load_latency)
            else:
                cycles = load_latency
            cycles += self._fill_l2(core, line, dirty=False)
            cycles += self._fill_l1(core, line, dirty=write)
            cycles += self._run_prefetcher(core, line)
            stats.cycles += cycles
            return AccessResult(cycles, "llc", slice_index)
        stats.llc_misses += 1

        stats.dram_accesses += 1
        if write:
            cycles = lat.store_commit + int(lat.rfo_fraction * lat.dram)
        else:
            cycles = lat.dram
        if self.inclusive:
            cycles += self._fill_llc(core, line, dirty=False)
        cycles += self._fill_l2(core, line, dirty=False)
        cycles += self._fill_l1(core, line, dirty=write)
        cycles += self._run_prefetcher(core, line)
        stats.cycles += cycles
        return AccessResult(cycles, "dram", slice_index)

    def fast_engine(self):
        """Return (building lazily) this hierarchy's :class:`FastEngine`."""
        if self._fast_engine is None:
            from repro.cachesim.engine import FastEngine

            self._fast_engine = FastEngine(self)
        return self._fast_engine

    def set_engine(self, name: str) -> None:
        """Select the access engine: ``"fast"`` or ``"reference"``.

        The differential oracle's switch (product code never calls it):
        ``"reference"`` serves :meth:`read`, :meth:`write`,
        :meth:`access_batch` and NIC DMA through :meth:`access_line`;
        ``"fast"`` returns them to the engine.  Everything else
        (``clflush``, CAT, ``warm``) always runs the reference code —
        both engines share one cache state, so they interleave freely.
        """
        if name not in ("fast", "reference"):
            raise ValueError(f"unknown engine {name!r}")
        # Drop the engine's bound read/write; the next access reinstalls
        # them (refreshed) if the engine is fast.
        self.__dict__.pop("read", None)
        self.__dict__.pop("write", None)
        self.engine_name = name

    def _install_fast(self):
        """Route :meth:`read`/:meth:`write` straight to the engine."""
        engine = self.fast_engine()
        engine.refresh()
        self.read = engine.read  # type: ignore[method-assign]
        self.write = engine.write  # type: ignore[method-assign]
        return engine

    def access_batch(self, addresses, kinds=None, core=0):
        """Resolve a vector of line accesses; returns a ``BatchResult``.

        Args:
            addresses: byte addresses, one access each.
            kinds: write flags — ``None`` (all loads), a scalar, or a
                per-access sequence (truthy = store).
            core: issuing core — a scalar, or one entry per access for
                interleaved multi-core streams.

        The fast engine resolves the whole vector in one pass; on the
        reference engine the same call loops :meth:`access_line`, with
        identical results (machine-checked by the differential suite).
        """
        if self.engine_name == "fast":
            return self.fast_engine().access_batch(addresses, kinds, core)
        from repro.cachesim.engine import (
            LEVEL_NAMES,
            BatchResult,
            _as_bool_list,
            _as_core_list,
        )

        n = len(addresses)
        writes = _as_bool_list(kinds, n)
        cores = _as_core_list(core, n)
        if cores is None:
            cores = [int(core)] * n
        if self.sanitizer is not None:
            self.sanitizer.tick(self, n)
        import numpy as np

        cycles = np.empty(n, dtype=np.int64)
        levels = np.empty(n, dtype=np.uint8)
        slices = np.empty(n, dtype=np.int16)
        for i in range(n):
            result = self.access_line(
                cores[i], int(addresses[i]) & ~(CACHE_LINE - 1), write=writes[i]
            )
            cycles[i] = result.cycles
            levels[i] = LEVEL_NAMES.index(result.level)
            slices[i] = -1 if result.slice_index is None else result.slice_index
        return BatchResult(cycles=cycles, levels=levels, slices=slices)

    def read(self, core: int, address: int, size: int = CACHE_LINE) -> int:
        """Read ``[address, address+size)``; returns total stall cycles."""
        if self.engine_name == "fast":
            return self._install_fast().read(core, address, size)
        return self._span(core, address, size, write=False)

    def write(self, core: int, address: int, size: int = CACHE_LINE) -> int:
        """Write ``[address, address+size)``; returns total stall cycles."""
        if self.engine_name == "fast":
            return self._install_fast().write(core, address, size)
        return self._span(core, address, size, write=True)

    def _span(self, core: int, address: int, size: int, write: bool) -> int:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        first = line_address(address)
        last = line_address(address + size - 1)
        if self.sanitizer is not None:
            self.sanitizer.tick(self, (last - first) // CACHE_LINE + 1)
        cycles = 0
        for line in range(first, last + CACHE_LINE, CACHE_LINE):
            cycles += self.access_line(core, line, write=write).cycles
        return cycles

    # ------------------------------------------------------------------
    # Fill / write-back plumbing
    # ------------------------------------------------------------------

    def _fill_l1(self, core: int, line: int, dirty: bool) -> int:
        """Install a line in L1; returns visible drain cycles."""
        victim = self.l1s[core].insert(line, dirty=dirty)
        if victim is None or not victim[1]:
            return 0
        # Dirty L1 victim drains into L2.
        extra = self.latency.wb_l1_visible
        l2_victim = self.l2s[core].insert(victim[0], dirty=True)
        return extra + self._drain_l2_victim(core, l2_victim)

    def _fill_l2(self, core: int, line: int, dirty: bool) -> int:
        """Install a line in L2; returns visible drain cycles."""
        victim = self.l2s[core].insert(line, dirty=dirty)
        return self._drain_l2_victim(core, victim)

    def _drain_l2_victim(self, core: int, victim: Optional[Tuple[int, bool]]) -> int:
        """Handle an L2 eviction (write-back and/or victim-cache fill)."""
        if victim is None:
            return 0
        vline, vdirty = victim
        lat = self.latency
        if self.inclusive:
            if not vdirty:
                return 0
            # Inclusive: the LLC already tracks the line; update it in
            # place (or refill if it raced out) and charge the drain.
            slice_index = self.llc.hash.slice_of(vline)
            slice_cache = self.llc.slices[slice_index]
            if not slice_cache.lookup(vline, write=True):
                self._fill_llc(core, vline, dirty=True)
            return int(lat.wb_llc_fraction * self.llc.access_latency(core, slice_index))
        # Non-inclusive victim LLC: every L2 eviction is inserted.
        slice_index = self.llc.hash.slice_of(vline)
        extra = 0
        if vdirty:
            extra += int(lat.wb_llc_fraction * self.llc.access_latency(core, slice_index))
        llc_victim = self.llc.fill(vline, core=core, dirty=vdirty)
        if llc_victim is not None and llc_victim[1]:
            self.stats.dram_writebacks += 1
            extra += lat.wb_dram_visible
        return extra

    def _fill_llc(self, core: int, line: int, dirty: bool, io: bool = False) -> int:
        """Install a line in the LLC; returns visible drain cycles."""
        victim = self.llc.fill(line, core=core, dirty=dirty, io=io)
        if victim is None:
            return 0
        vline, vdirty = victim
        if self.inclusive:
            # Inclusive LLC: evicting a line evicts it everywhere.
            private_dirty = self.invalidate_private(vline)
            vdirty = vdirty or private_dirty
        if vdirty:
            self.stats.dram_writebacks += 1
            return self.latency.wb_dram_visible
        return 0

    def _run_prefetcher(self, core: int, line: int) -> int:
        """Feed the core's prefetcher after a demand L2 miss."""
        prefetcher = self.prefetchers[core]
        if prefetcher is None:
            return 0
        for target in prefetcher.observe(line):
            self.prefetch_line(core, target)
        return 0

    # ------------------------------------------------------------------
    # Non-demand operations
    # ------------------------------------------------------------------

    def prefetch_line(self, core: int, line: int) -> None:
        """Bring a line into the core's L2 without charging the core."""
        self._active_cores.add(core)
        if self.l2s[core].contains(line):
            return
        hit, _ = self.llc.lookup(line, write=False)
        if not hit:
            self.stats.dram_accesses += 1
            if self.inclusive:
                self._fill_llc(core, line, dirty=False)
        self._fill_l2(core, line, dirty=False)

    def warm(self, core: int, address: int, size: int = CACHE_LINE) -> None:
        """Touch a buffer without recording stats (setup helper)."""
        saved = self.stats
        self.stats = HierarchyStats()
        try:
            self._span(core, address, size, write=False)
        finally:
            self.stats = saved

    def clflush(self, address: int, size: int = CACHE_LINE) -> None:
        """Flush ``[address, address+size)`` from the entire hierarchy."""
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        first = line_address(address)
        last = line_address(address + size - 1)
        for line in range(first, last + CACHE_LINE, CACHE_LINE):
            self.invalidate_private(line)
            self.llc.invalidate(line)

    def invalidate_private(self, line: int) -> bool:
        """Drop a line from every core's L1/L2; ``True`` if any copy was dirty."""
        dirty = False
        for core in self._active_cores:
            d1 = self.l1s[core].invalidate(line)
            d2 = self.l2s[core].invalidate(line)
            dirty = dirty or bool(d1) or bool(d2)
        return dirty

    def dma_fill_line(self, line: int) -> None:
        """Install an I/O-written line via DDIO (used by the NIC model).

        DDIO write allocations land in the LLC's DDIO ways, never in
        private caches; any stale private copies are invalidated.
        """
        self.invalidate_private(line)
        self._fill_llc(core=None, line=line, dirty=True, io=True)

    def locate(self, line: int) -> str:
        """Return where a line currently lives: ``l1``/``l2``/``llc``/``dram``.

        Private caches are searched across all cores (diagnostic aid).
        """
        for core in range(self.n_cores):
            if self.l1s[core].contains(line):
                return "l1"
        for core in range(self.n_cores):
            if self.l2s[core].contains(line):
                return "l2"
        if self.llc.contains(line):
            return "llc"
        return "dram"

    def drop_all(self) -> None:
        """Empty every cache (fresh-machine state between experiments)."""
        for cache in self.l1s:
            cache.flush()
        for cache in self.l2s:
            cache.flush()
        self.llc.flush()

    def check_invariants(self) -> None:
        """Assert structural invariants of the hierarchy state.

        Used by the property-based tests as a model checker after
        arbitrary operation sequences:

        * no cache holds more lines than its capacity, per set;
        * every line is in the slice its address hashes to;
        * on an inclusive LLC, every line in any private cache is also
          present in the LLC (the defining inclusion property).

        Raises:
            AssertionError: on any violation.
        """
        for caches in (self.l1s, self.l2s):
            for cache in caches:
                assert cache.occupancy() <= cache.capacity_lines, cache
        for slice_index, slice_cache in enumerate(self.llc.slices):
            assert slice_cache.occupancy() <= slice_cache.capacity_lines
            for line in slice_cache.lines():
                assert self.llc.slice_of(line) == slice_index, (
                    f"line {line:#x} cached in slice {slice_index} but "
                    f"hashes to {self.llc.slice_of(line)}"
                )
        if self.inclusive:
            for core in range(self.n_cores):
                for line in self.l1s[core].lines():
                    assert self.llc.contains(line), (
                        f"inclusion violated: {line:#x} in L1[{core}] "
                        "but not in LLC"
                    )
                for line in self.l2s[core].lines():
                    assert self.llc.contains(line), (
                        f"inclusion violated: {line:#x} in L2[{core}] "
                        "but not in LLC"
                    )

    def __repr__(self) -> str:
        return (
            f"CacheHierarchy(n_cores={self.n_cores}, inclusive={self.inclusive}, "
            f"llc={self.llc!r})"
        )
