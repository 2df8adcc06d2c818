"""Vectorized batch-access engine for the cache hierarchy.

:class:`FastEngine` is a drop-in accelerator for
:class:`~repro.cachesim.hierarchy.CacheHierarchy`.  It executes the
*exact* reference access algorithm — same hits, same victims, same
cycle accounting, same uncore counter updates — but flattened into one
closure that manipulates the hierarchy's own data structures directly,
with everything loop-invariant hoisted out:

* the NUCA latency, write-back and RFO charges are precomputed into
  per-``(core, slice)`` tables (the reference path recomputes
  ``base + interconnect.latency(core, slice)`` on every LLC touch);
* slice indices for a whole batch are computed in one vectorised
  numpy pass over the address vector (``SliceHash.slice_of_array``)
  instead of per-access Python parity loops; every other line goes
  through the hash's exact scalar form (``fast_slice_of``: shared XOR
  lookup tables, or the modular hash's block cache) or, for a DMA
  span, its span form (``fast_span_slices``), so the engine keeps no
  line-keyed map;
* the per-level cache probes are inlined dict/list operations rather
  than five layers of method calls, and LRU replacement is inlined
  when every LLC slice runs the default ``lru`` policy;
* the batch loop, and the op-stream replay with the same demand body,
  also inline the demand miss path: the L1 and L2 inserts and, on an
  inclusive LLC, the miss fill with its victim pick,
  back-invalidation and write-back charge.  That inlined fill
  falls back to the general fill helper for a non-LRU policy, for a
  core under a CAT mask and under a sanitizer, so that every fill a
  sanitizer sees runs its checked variant.

Because the engine mutates the *same* ``DictCache``/``WayCache``/
counter state the reference path uses, rare events that happen
*between* batches — ``clflush``, CAT mask changes, ``drop_all`` —
simply run through the reference implementations and interleave
correctly.  There is no shadow state to synchronise.  NIC DMA traffic
is *not* rare in the forwarding experiments, so it gets its own
flattened path (:meth:`FastEngine.dma_write_span` /
:meth:`~FastEngine.dma_read_span`, dispatched by
:class:`~repro.cachesim.ddio.DdioEngine` unless the hierarchy runs
the reference oracle).  On an inclusive LLC, back-invalidation and
the DMA snoop visit only the cores named by the victim's or the
line's core-valid bits, kept per LLC slot as on real inclusive parts;
a non-inclusive LLC sweeps the active cores.  Within a batch the engine
covers every event the reference demand path can produce (cascaded
evictions, inclusive back-invalidations, write-back drains,
prefetcher activations); anything else falls back to the reference
methods by construction.

Equivalence is machine-checked by the differential harness
(:mod:`repro.cachesim.diff` and ``tests/test_engine_differential.py``)
which replays identical randomized traces through both engines and
asserts identical per-access outcomes, aggregate statistics, uncore
counters and final cache contents.

Caveats (checked or documented):

* The engine snapshots the (frozen) :class:`LatencySpec`, the LLC
  geometry and its DDIO ways; :meth:`FastEngine.refresh` (called by
  the batch and DMA entry points and when ``read``/``write`` are
  installed) rebuilds the tables when they changed.  CAT masks are
  re-read through the controller's generation counter.
* Replacement policies other than ``lru`` are driven through their
  normal ``touch``/``victim``/``reset`` methods — correct for every
  policy, just without the inlined fast path.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import repeat as _repeat
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cachesim.cache import INVALID_WAY
from repro.cachesim.counters import (
    EVENT_DDIO_FILLS,
    EVENT_DDIO_READS,
    EVENT_EVICTIONS,
    EVENT_FILLS,
    EVENT_HITS,
    EVENT_LOOKUPS,
    EVENT_MISSES,
    EVENT_WRITEBACKS,
)
from repro.cachesim.hashfn import scalar_slice_of, span_slices_of
from repro.cachesim.replacement import LRU_RENUMBER_AT
from repro.mem.address import CACHE_LINE

#: Level codes used by :class:`BatchResult` (index == depth).
LEVEL_L1, LEVEL_L2, LEVEL_LLC, LEVEL_DRAM = 0, 1, 2, 3

#: Op codes for :meth:`FastEngine.run_op_stream` — a recorded dataplane
#: op stream interleaves demand accesses with NIC DMA in arrival order.
OP_READ, OP_WRITE, OP_DMA_WRITE, OP_DMA_READ = 0, 1, 2, 3

#: Code → name, matching :class:`~repro.cachesim.hierarchy.AccessResult`.
LEVEL_NAMES: Tuple[str, ...] = ("l1", "l2", "llc", "dram")

_LINE_MASK = ~(CACHE_LINE - 1)


@dataclass(frozen=True)
class BatchResult:
    """Per-access outcomes of one :meth:`FastEngine.access_batch` call.

    Attributes:
        cycles: stall cycles charged to the issuing core, per access.
        levels: servicing level codes (:data:`LEVEL_L1` … ``LEVEL_DRAM``).
        slices: LLC slice index for LLC/DRAM outcomes, ``-1`` for
            private-cache hits (mirroring ``AccessResult.slice_index``).
    """

    cycles: np.ndarray
    levels: np.ndarray
    slices: np.ndarray

    @property
    def total_cycles(self) -> int:
        """Sum of all per-access cycle costs."""
        return int(self.cycles.sum())


def _is_scalar(value) -> bool:
    """Whether *value* is one 0-d value (Python or numpy), not a sequence."""
    return isinstance(value, int) or getattr(value, "ndim", None) == 0


def _as_bool_list(kinds, n: int) -> List[bool]:
    """Normalise the *kinds* argument into one bool per access."""
    if kinds is None:
        return [False] * n
    if _is_scalar(kinds):
        return [bool(kinds)] * n
    out = [bool(k) for k in kinds]
    if len(out) != n:
        raise ValueError(f"kinds has {len(out)} entries for {n} addresses")
    return out


def _as_core_list(core, n: int) -> Optional[List[int]]:
    """Return a per-access core list, or ``None`` for a scalar core."""
    if _is_scalar(core):
        return None
    out = [int(c) for c in core]
    if len(out) != n:
        raise ValueError(f"core has {len(out)} entries for {n} addresses")
    return out


class FastEngine:
    """Flattened accessor over a hierarchy's shared cache state.

    Args:
        hierarchy: the hierarchy to accelerate.  The engine keeps no
            cache contents of its own — every probe and fill mutates
            the hierarchy's structures in place.  It holds the
            hierarchy only weakly, and no closure it builds refers to
            it, so the hierarchy (which owns the engine) is freed by
            refcount alone once its last user drops it.
    """

    def __init__(self, hierarchy) -> None:
        self._hierarchy_ref = weakref.ref(hierarchy)
        self._key: Optional[tuple] = None
        self._access = None
        self._rebuild()

    @property
    def hierarchy(self):
        """The accelerated hierarchy (held through a weak reference)."""
        return self._hierarchy_ref()

    # ------------------------------------------------------------------
    # Table building / staleness
    # ------------------------------------------------------------------

    def _snapshot_key(self) -> tuple:
        h = self.hierarchy
        lat = h.latency
        return (
            id(h.llc),
            id(h.llc.hash),
            id(h.llc.interconnect),
            h.llc.base_latency,
            h.llc.ddio_way_tuple,
            h.n_cores,
            h.inclusive,
            lat.l1_hit,
            lat.l2_hit,
            lat.dram,
            lat.store_commit,
            lat.rfo_fraction,
            lat.wb_l1_visible,
            lat.wb_llc_fraction,
            lat.wb_dram_visible,
        )

    def refresh(self) -> None:
        """Rebuild the precomputed tables if the hierarchy changed."""
        if self._snapshot_key() != self._key:
            self._rebuild()

    def _rebuild(self) -> None:
        h = self.hierarchy
        llc = h.llc
        lat = h.latency
        n_cores = h.n_cores
        n_slices = llc.n_slices

        # --- precomputed latency tables -------------------------------
        load_lat = [
            [llc.access_latency(c, s) for s in range(n_slices)]
            for c in range(n_cores)
        ]
        wb_frac = [
            [int(lat.wb_llc_fraction * load_lat[c][s]) for s in range(n_slices)]
            for c in range(n_cores)
        ]
        rfo_llc = [
            [int(lat.rfo_fraction * load_lat[c][s]) for s in range(n_slices)]
            for c in range(n_cores)
        ]
        rfo_l2 = int(lat.rfo_fraction * lat.l2_hit)
        rfo_dram = int(lat.rfo_fraction * lat.dram)
        l1_hit_lat = lat.l1_hit
        l2_hit_lat = lat.l2_hit
        dram_lat = lat.dram
        store_commit = lat.store_commit
        wb_l1_visible = lat.wb_l1_visible
        wb_dram_visible = lat.wb_dram_visible
        inclusive = h.inclusive

        # --- bindings into the shared state ---------------------------
        l1_sets = [c._sets for c in h.l1s]
        l2_sets = [c._sets for c in h.l2s]
        l1_mask = h.l1s[0]._set_mask
        l2_mask = h.l2s[0]._set_mask
        l1_ways = h.l1s[0].n_ways
        l2_ways = h.l2s[0].n_ways
        # Per slice: the ``_where`` line -> way dict, and the typed tag,
        # dirty and (LRU) stamp buffers indexed ``set_i * n_ways + way``
        # (see WayCache: a dirty byte of INVALID marks a free way).  All
        # are cleared in place by drains, never replaced.
        llc_where = [s._where for s in llc.slices]
        llc_tags = [s._tags for s in llc.slices]
        llc_dirty = [s._dirty for s in llc.slices]
        # Core-valid bits per slot, kept by an inclusive LLC only: a
        # superset of the cores whose L1/L2 hold the slot's line.  The
        # demand paths below set the issuing core's bit at the slot
        # they hit or fill; an LLC eviction back-invalidates exactly
        # the victim slot's cores; a DMA write snoops the cores of its
        # line's slot (a line the LLC does not hold has no private
        # copy, by inclusion).  A non-inclusive DMA write sweeps every
        # active core, as invalidate_private does.
        llc_cv = [s._core_valid for s in llc.slices] if inclusive else None
        llc_pols = [s._policy for s in llc.slices]
        llc_mask = llc.slices[0]._set_mask
        all_ways = llc.slices[0]._all_ways
        counts = [sc.counts for sc in llc.counters.slices]
        active_cores = h._active_cores
        prefetchers = h.prefetchers
        hierarchy_ref = self._hierarchy_ref

        def run_prefetcher(core, line):
            # Through the weak reference: a bound h._run_prefetcher
            # would close the hierarchy -> engine -> hierarchy cycle.
            hierarchy_ref()._run_prefetcher(core, line)

        # The hash's exact scalar form: write-back drains, the scalar
        # path and the replay resolve each line's slice through it,
        # and DMA spans a whole span's through its span form; set index
        # and slot base follow from the line by shift and mask.
        line_slice = scalar_slice_of(llc.hash)
        span_slices = span_slices_of(llc.hash)
        lru_fast = all(s.policy_name == "lru" for s in llc.slices)
        # The sanitizer is fixed at hierarchy construction.  Under one,
        # every LLC fill runs the checked llc_fill bound at the end.
        sanitizer = h.sanitizer
        inline_llc_fill = lru_fast and sanitizer is None
        llc_stamps = [getattr(p, "_stamp", None) for p in llc_pols]
        # The inlined LRU steps below bypass LruPolicy.touch and its
        # clock check, so every entry call that can advance a clock
        # checks them first, never the loops: a call takes at most
        # three clock steps per line (the line's own LLC touch or fill
        # and two drained victims), far inside the 2**31 steps of
        # headroom a clock below LRU_RENUMBER_AT has.
        lru_pols = tuple(llc_pols) if lru_fast else ()

        def renumber_clocks():
            for pol in lru_pols:
                if pol._clock >= LRU_RENUMBER_AT:
                    pol.renumber()
        # CAT mask cache, invalidated via the controller's generation.
        cat_cache: list = [None, -1, [None] * n_cores]

        EV_LOOKUPS, EV_HITS, EV_MISSES = EVENT_LOOKUPS, EVENT_HITS, EVENT_MISSES
        EV_FILLS, EV_EVICT, EV_WB = EVENT_FILLS, EVENT_EVICTIONS, EVENT_WRITEBACKS

        def cat_allowed(core):
            cat = llc.cat
            if cat is not cat_cache[0] or cat.generation != cat_cache[1]:
                cat_cache[0] = cat
                cat_cache[1] = cat.generation
                enabled = cat.is_enabled()
                cat_cache[2] = [
                    cat.allowed_ways(c) if enabled else None
                    for c in range(n_cores)
                ]
            return cat_cache[2][core]

        n_llc_ways = llc.n_ways
        INVALID = INVALID_WAY

        def llc_fill(line, core, dirty, slc):
            # SlicedLLC.fill + WayCache.insert, inlined (demand fills
            # only — DDIO fills stay on the reference path).  On an
            # inclusive LLC a newly filled slot gets *core*'s bit (the
            # caller puts the line in that core's L2, or it drains from
            # there) and a victim returns its slot's core-valid bits;
            # only a non-inclusive drain refills a resident line.
            cnt = counts[slc]
            cat = llc.cat
            if cat is cat_cache[0] and cat.generation == cat_cache[1]:
                allowed = cat_cache[2][core]
            else:
                allowed = cat_allowed(core)
            cnt[EV_FILLS] += 1
            set_i = (line >> 6) & llc_mask
            base = set_i * n_llc_ways
            where = llc_where[slc]
            pol = llc_pols[slc]
            stamp = llc_stamps[slc]
            cv = llc_cv[slc] if inclusive else None
            existing = where.get(line)
            if existing is not None:
                if lru_fast:
                    pol._clock += 1
                    stamp[base + existing] = pol._clock
                else:
                    pol.touch(existing, set_i)
                if dirty:
                    llc_dirty[slc][base + existing] = 1
                return None
            tags = llc_tags[slc]
            dirt = llc_dirty[slc]
            if allowed is None:
                # .find returns the lowest invalid way — the one the
                # reference scan picks — without allocating.
                slot = dirt.find(INVALID, base, base + n_llc_ways)
                if slot >= 0:
                    tags[slot] = line
                    dirt[slot] = dirty
                    where[line] = slot - base
                    if lru_fast:
                        pol._clock += 1
                        stamp[slot] = pol._clock
                    else:
                        pol.reset(slot - base, set_i)
                    if cv is not None:
                        cv[slot] = 1 << core
                    return None
                if lru_fast:
                    # .index finds the first of equal stamps, matching
                    # the reference LruPolicy's strict-less-than scan.
                    # A list boxes each stamp once; min() and .index()
                    # over the array would box them twice.
                    stamps = stamp[base:base + n_llc_ways].tolist()
                    vslot = base + stamps.index(min(stamps))
                else:
                    vslot = base + pol.victim(all_ways, set_i)
            else:
                for w in allowed:
                    slot = base + w
                    if dirt[slot] == INVALID:
                        tags[slot] = line
                        dirt[slot] = dirty
                        where[line] = w
                        if lru_fast:
                            pol._clock += 1
                            stamp[slot] = pol._clock
                        else:
                            pol.reset(w, set_i)
                        if cv is not None:
                            cv[slot] = 1 << core
                        return None
                if lru_fast:
                    # min() keeps the first of equal stamps, likewise.
                    stamps = stamp[base:base + n_llc_ways]
                    vslot = base + min(allowed, key=stamps.__getitem__)
                else:
                    vslot = base + pol.victim(allowed, set_i)
            vtag = tags[vslot]
            vdirty = dirt[vslot]
            del where[vtag]
            tags[vslot] = line
            dirt[vslot] = dirty
            where[line] = vslot - base
            if lru_fast:
                pol._clock += 1
                stamp[vslot] = pol._clock
            else:
                pol.reset(vslot - base, set_i)
            cnt[EV_EVICT] += 1
            if vdirty:
                cnt[EV_WB] += 1
            if cv is None:
                return (vtag, vdirty, 0)
            vcores = cv[vslot]
            cv[vslot] = 1 << core
            return (vtag, vdirty, vcores)

        def invalidate_cores(line, cores):
            # Drop *line* from the L1 and L2 of every core in the
            # *cores* bitmask; True if any dropped copy was dirty.
            shift = line >> 6
            s1i = shift & l1_mask
            s2i = shift & l2_mask
            dirty = False
            while cores:
                b = cores & -cores
                cores -= b
                c = b.bit_length() - 1
                d1 = l1_sets[c][s1i].pop(line, None)
                d2 = l2_sets[c][s2i].pop(line, None)
                if d1 or d2:
                    dirty = True
            return dirty

        def fill_llc(core, line, dirty, slc, stats):
            # CacheHierarchy._fill_llc for demand (non-I/O) fills.
            victim = llc_fill(line, core, dirty, slc)
            if victim is None:
                return 0
            vline, vdirty, vcores = victim
            if vcores and invalidate_cores(vline, vcores):
                vdirty = True
            if vdirty:
                stats.dram_writebacks += 1
                return wb_dram_visible
            return 0

        def drain_l2_victim(core, vline, vdirty, stats):
            # CacheHierarchy._drain_l2_victim.
            if inclusive:
                if not vdirty:
                    return 0
                vslc = line_slice(vline)
                set_i = (vline >> 6) & llc_mask
                way = llc_where[vslc].get(vline)
                if way is not None:
                    pol = llc_pols[vslc]
                    slot = set_i * n_llc_ways + way
                    if lru_fast:
                        pol._clock += 1
                        llc_stamps[vslc][slot] = pol._clock
                    else:
                        pol.touch(way, set_i)
                    llc_dirty[vslc][slot] = 1
                else:
                    fill_llc(core, vline, True, vslc, stats)
                return wb_frac[core][vslc]
            vslc = line_slice(vline)
            extra = wb_frac[core][vslc] if vdirty else 0
            victim = llc_fill(vline, core, vdirty, vslc)
            if victim is not None and victim[1]:
                stats.dram_writebacks += 1
                extra += wb_dram_visible
            return extra

        def fill_l2(core, line, dirty, stats):
            # CacheHierarchy._fill_l2 (DictCache.insert inlined).  The
            # caller has set the core's bit at the line's LLC slot.
            s2 = l2_sets[core][(line >> 6) & l2_mask]
            prev = s2.pop(line, None)
            if prev is not None:
                s2[line] = prev or dirty
                return 0
            if len(s2) >= l2_ways:
                vline = next(iter(s2))
                vdirty = s2.pop(vline)
                s2[line] = dirty
                return drain_l2_victim(core, vline, vdirty, stats)
            s2[line] = dirty
            return 0

        def drain_l1_dirty(core, vline, stats):
            # Dirty L1 victim drains into L2 (the wb_l1_visible charge
            # is added by the caller); the line already carries the
            # core's bit, from its L1 fill.
            s2 = l2_sets[core][(vline >> 6) & l2_mask]
            prev2 = s2.pop(vline, None)
            if prev2 is not None:
                s2[vline] = True
                return 0
            if len(s2) >= l2_ways:
                v2line = next(iter(s2))
                v2dirty = s2.pop(v2line)
                s2[vline] = True
                return drain_l2_victim(core, v2line, v2dirty, stats)
            s2[vline] = True
            return 0

        def fill_l1(core, line, dirty, stats):
            # CacheHierarchy._fill_l1 (DictCache.insert inlined).
            s1 = l1_sets[core][(line >> 6) & l1_mask]
            prev = s1.pop(line, None)
            if prev is not None:
                s1[line] = prev or dirty
                return 0
            if len(s1) >= l1_ways:
                vline = next(iter(s1))
                vdirty = s1.pop(vline)
                s1[line] = dirty
                if not vdirty:
                    return 0
                return wb_l1_visible + drain_l1_dirty(core, vline, stats)
            s1[line] = dirty
            return 0

        def access(core, line, write, stats):
            # CacheHierarchy.access_line, flattened; the line's slice
            # is resolved only on an L2 miss.
            active_cores.add(core)
            if write:
                stats.writes += 1
            else:
                stats.reads += 1
            shift = line >> 6
            s1 = l1_sets[core][shift & l1_mask]
            d = s1.pop(line, None)
            if d is not None:
                s1[line] = d or write
                stats.l1_hits += 1
                c = store_commit if write else l1_hit_lat
                stats.cycles += c
                return c, LEVEL_L1, -1
            stats.l1_misses += 1
            s2 = l2_sets[core][shift & l2_mask]
            d = s2.pop(line, None)
            if d is not None:
                s2[line] = d
                stats.l2_hits += 1
                c = (store_commit + rfo_l2) if write else l2_hit_lat
                c += fill_l1(core, line, write, stats)
                stats.cycles += c
                return c, LEVEL_L2, -1
            stats.l2_misses += 1
            slc = line_slice(line)
            cnt = counts[slc]
            cnt[EV_LOOKUPS] += 1
            set_i = shift & llc_mask
            way = llc_where[slc].get(line)
            if way is not None:
                cnt[EV_HITS] += 1
                stats.llc_hits += 1
                pol = llc_pols[slc]
                slot = set_i * n_llc_ways + way
                if lru_fast:
                    pol._clock += 1
                    llc_stamps[slc][slot] = pol._clock
                else:
                    pol.touch(way, set_i)
                if inclusive:
                    llc_cv[slc][slot] |= 1 << core
                if write:
                    c = store_commit + rfo_llc[core][slc]
                else:
                    c = load_lat[core][slc]
                c += fill_l2(core, line, False, stats)
                c += fill_l1(core, line, write, stats)
                if prefetchers[core] is not None:
                    run_prefetcher(core, line)
                stats.cycles += c
                return c, LEVEL_LLC, slc
            cnt[EV_MISSES] += 1
            stats.llc_misses += 1
            stats.dram_accesses += 1
            c = (store_commit + rfo_dram) if write else dram_lat
            if inclusive:
                c += fill_llc(core, line, False, slc, stats)
            c += fill_l2(core, line, False, stats)
            c += fill_l1(core, line, write, stats)
            if prefetchers[core] is not None:
                run_prefetcher(core, line)
            stats.cycles += c
            return c, LEVEL_DRAM, slc

        def run_batch(lines, writes, slcs, cores, the_core, stats):
            # The batch loop with the `access` body inlined: no
            # per-access closure call, tuple allocation or stats
            # attribute updates.  Aggregate HierarchyStats fields are
            # derived from the per-access level/cycle vectors at the
            # end — identical totals by construction; only
            # dram_writebacks (not derivable from the outcome vectors)
            # is counted on the real stats object.
            n = len(lines)
            if cores is None:
                active_cores.add(the_core)
                core_iter = _repeat(the_core, n)
            else:
                # Pre-adding issuing cores is result-equivalent to the
                # reference's incremental adds: a not-yet-used core's
                # private caches are empty, so back-invalidation
                # sweeps visiting it early are no-ops.
                active_cores.update(cores)
                core_iter = cores
            # Per core: may an LLC miss fill run inlined below?  Only
            # for the LRU policy, without a sanitizer (both fixed at
            # rebuild) and outside any CAT mask — no user code runs
            # mid-batch, so the masks cannot change under the loop.
            # Every other fill goes through fill_llc.
            inline_fill = [
                inline_llc_fill and cat_allowed(c) is None for c in range(n_cores)
            ]
            cycles_out: list = []
            levels_out: list = []
            ca = cycles_out.append
            la = levels_out.append
            for core, line, write, slc in zip(core_iter, lines, writes, slcs):
                shift = line >> 6
                s1 = l1_sets[core][shift & l1_mask]
                d = s1.pop(line, None)
                if d is not None:
                    s1[line] = d or write
                    ca(store_commit if write else l1_hit_lat)
                    la(0)
                    continue
                s2 = l2_sets[core][shift & l2_mask]
                d = s2.pop(line, None)
                if d is not None:
                    # An L2 hit needs no core-valid update: a line in
                    # this core's L2 already carries its bit.
                    s2[line] = d
                    c = (store_commit + rfo_l2) if write else l2_hit_lat
                    lv = 1
                else:
                    cnt = counts[slc]
                    cnt[EV_LOOKUPS] += 1
                    set_i = shift & llc_mask
                    where = llc_where[slc]
                    way = where.get(line)
                    if way is not None:
                        cnt[EV_HITS] += 1
                        pol = llc_pols[slc]
                        slot = set_i * n_llc_ways + way
                        if lru_fast:
                            pol._clock += 1
                            llc_stamps[slc][slot] = pol._clock
                        else:
                            pol.touch(way, set_i)
                        if inclusive:
                            llc_cv[slc][slot] |= 1 << core
                        if write:
                            c = store_commit + rfo_llc[core][slc]
                        else:
                            c = load_lat[core][slc]
                        lv = 2
                    else:
                        cnt[EV_MISSES] += 1
                        c = (store_commit + rfo_dram) if write else dram_lat
                        lv = 3
                        if inclusive:
                            if inline_fill[core]:
                                # fill_llc + llc_fill, inlined for an
                                # unmasked LRU fill of a line the
                                # lookup above just missed.
                                cnt[EV_FILLS] += 1
                                base = set_i * n_llc_ways
                                tags = llc_tags[slc]
                                dirt = llc_dirty[slc]
                                stamp = llc_stamps[slc]
                                cv = llc_cv[slc]
                                pol = llc_pols[slc]
                                pol._clock += 1
                                slot = dirt.find(INVALID, base, base + n_llc_ways)
                                if slot >= 0:
                                    tags[slot] = line
                                    dirt[slot] = False
                                    where[line] = slot - base
                                    stamp[slot] = pol._clock
                                    cv[slot] = 1 << core
                                else:
                                    stamps = stamp[base:base + n_llc_ways].tolist()
                                    slot = base + stamps.index(min(stamps))
                                    vline = tags[slot]
                                    vdirty = dirt[slot]
                                    vcores = cv[slot]
                                    del where[vline]
                                    tags[slot] = line
                                    dirt[slot] = False
                                    where[line] = slot - base
                                    stamp[slot] = pol._clock
                                    cv[slot] = 1 << core
                                    cnt[EV_EVICT] += 1
                                    if vdirty:
                                        cnt[EV_WB] += 1
                                    # Inclusive back-invalidation of the
                                    # victim's core-valid cores.
                                    if vcores and invalidate_cores(vline, vcores):
                                        vdirty = True
                                    if vdirty:
                                        stats.dram_writebacks += 1
                                        c += wb_dram_visible
                            else:
                                c += fill_llc(core, line, False, slc, stats)
                    # fill_l2, inlined: the L2 probe above just missed,
                    # so the insert never refreshes.  The LLC hit or
                    # fill above set the core's bit for both private
                    # inserts of this line.  On an inclusive LLC the L2
                    # victim is LLC-resident (every LLC eviction, the
                    # fill above included, back-invalidates the private
                    # copies), so its drain only refreshes its slot and
                    # evicts nothing; a non-inclusive LLC never
                    # back-invalidates.
                    if len(s2) >= l2_ways:
                        vline = next(iter(s2))
                        vdirty = s2.pop(vline)
                        s2[line] = False
                        # A clean victim of an inclusive LLC drains to
                        # nothing: the LLC already holds it.
                        if vdirty or not inclusive:
                            c += drain_l2_victim(core, vline, vdirty, stats)
                    else:
                        s2[line] = False
                # fill_l1, inlined: the probe above just missed, so
                # the line cannot be resident and the insert never
                # refreshes.
                if len(s1) >= l1_ways:
                    vline = next(iter(s1))
                    vdirty = s1.pop(vline)
                    s1[line] = write
                    if vdirty:
                        c += wb_l1_visible + drain_l1_dirty(
                            core, vline, stats
                        )
                else:
                    s1[line] = write
                if lv > 1 and prefetchers[core] is not None:
                    run_prefetcher(core, line)
                ca(c)
                la(lv)
            cycles_arr = np.array(cycles_out, dtype=np.int64)
            levels_arr = np.array(levels_out, dtype=np.uint8)
            per_level = np.bincount(levels_arr, minlength=4)
            n_l1, n_l2, n_llc, n_dram = (int(v) for v in per_level)
            n_writes = sum(writes)
            stats.reads += n - n_writes
            stats.writes += n_writes
            stats.l1_hits += n_l1
            stats.l1_misses += n - n_l1
            stats.l2_hits += n_l2
            stats.l2_misses += n_llc + n_dram
            stats.llc_hits += n_llc
            stats.llc_misses += n_dram
            stats.dram_accesses += n_dram
            stats.cycles += int(cycles_arr.sum())
            return cycles_arr, levels_arr

        ddio_ways = llc.ddio_way_tuple
        # The common two-way DDIO config gets a branch-free victim
        # pick in the span loop (same first-free / first-of-equal-LRU
        # order as the general scan).
        two_ddio = len(ddio_ways) == 2
        dw0, dw1 = (ddio_ways if two_ddio else (0, 0))
        EV_DDIO_F, EV_DDIO_R = EVENT_DDIO_FILLS, EVENT_DDIO_READS

        def dma_fill_span(first, last, stats):
            # DdioEngine.dma_write with DDIO enabled, flattened:
            # per line, CacheHierarchy.dma_fill_line == invalidate_
            # private + _fill_llc(core=None, dirty=True, io=True).  On
            # an inclusive LLC only a line the LLC holds can have
            # private copies, on the cores its slot's core-valid bits
            # name; a non-inclusive LLC sweeps every active core.  Each
            # line's set is resolved afresh (slice from the hash's span
            # form, set and slot base by shift and mask).
            snoop = () if inclusive else [
                (l1_sets[c], l2_sets[c]) for c in active_cores
            ]
            n_lines = (last - first) // CACHE_LINE + 1
            for line, slc in zip(
                range(first, last + CACHE_LINE, CACHE_LINE),
                span_slices(first, n_lines),
            ):
                cnt = counts[slc]
                cnt[EV_DDIO_F] += 1
                cnt[EV_FILLS] += 1
                shift = line >> 6
                if snoop:
                    # Membership tests: the line is rarely there, and
                    # `in` costs no method call.
                    s1i = shift & l1_mask
                    s2i = shift & l2_mask
                    for sets1, sets2 in snoop:
                        held = sets1[s1i]
                        if line in held:
                            del held[line]
                        held = sets2[s2i]
                        if line in held:
                            del held[line]
                set_i = shift & llc_mask
                base = set_i * n_llc_ways
                where = llc_where[slc]
                pol = llc_pols[slc]
                existing = where.get(line)
                if existing is not None:
                    # Already resident: snoop its cores, then refresh
                    # and dirty it in place, before loading the set's
                    # buffers.
                    slot = base + existing
                    if inclusive:
                        cv = llc_cv[slc]
                        vcores = cv[slot]
                        if vcores:
                            invalidate_cores(line, vcores)
                            cv[slot] = 0
                    if lru_fast:
                        pol._clock += 1
                        llc_stamps[slc][slot] = pol._clock
                    else:
                        pol.touch(existing, set_i)
                    llc_dirty[slc][slot] = 1
                    continue
                stamp = llc_stamps[slc]
                dirt = llc_dirty[slc]
                tags = llc_tags[slc]
                if two_ddio and lru_fast:
                    s0 = base + dw0
                    s1 = base + dw1
                    if dirt[s0] == INVALID:
                        vw = dw0
                        vtag = None
                        vdirty = False
                    elif dirt[s1] == INVALID:
                        vw = dw1
                        vtag = None
                        vdirty = False
                    else:
                        vw = dw0 if stamp[s0] <= stamp[s1] else dw1
                        vtag = tags[base + vw]
                        vdirty = dirt[base + vw]
                        del where[vtag]
                else:
                    vw = -1
                    for w in ddio_ways:
                        if dirt[base + w] == INVALID:
                            vw = w
                            break
                    if vw < 0:
                        if lru_fast:
                            vw = min(
                                ddio_ways,
                                key=stamp[base:base + n_llc_ways].__getitem__,
                            )
                        else:
                            vw = pol.victim(ddio_ways, set_i)
                        vtag = tags[base + vw]
                        vdirty = dirt[base + vw]
                        del where[vtag]
                    else:
                        vtag = None
                        vdirty = False
                slot = base + vw
                tags[slot] = line
                dirt[slot] = 1
                where[line] = vw
                if lru_fast:
                    pol._clock += 1
                    stamp[slot] = pol._clock
                else:
                    pol.reset(vw, set_i)
                if vtag is None:
                    # A free slot's core-valid bits are already clear.
                    continue
                cnt[EV_EVICT] += 1
                if vdirty:
                    cnt[EV_WB] += 1
                if inclusive:
                    cv = llc_cv[slc]
                    vcores = cv[slot]
                    if vcores:
                        cv[slot] = 0
                        if invalidate_cores(vtag, vcores):
                            vdirty = True
                if vdirty:
                    stats.dram_writebacks += 1
            return n_lines

        def dma_read_span(first, last):
            # DdioEngine.dma_read, flattened: count the lookup and
            # probe without touching replacement state (reads never
            # allocate).  Returns (lines, hits).
            hits = 0
            n_lines = (last - first) // CACHE_LINE + 1
            for line, slc in zip(
                range(first, last + CACHE_LINE, CACHE_LINE),
                span_slices(first, n_lines),
            ):
                counts[slc][EV_DDIO_R] += 1
                if line in llc_where[slc]:
                    hits += 1
            return n_lines, hits

        def run_ops(ops, stats, ddios, multi):
            # Replay a recorded dataplane op stream (demand spans and
            # DMA spans interleaved in arrival order).  Each demand op
            # runs `run_batch`'s demand body per line, with aggregate
            # HierarchyStats applied at the end — identical outcomes to
            # the reference calls the ops stand for — and each DMA op
            # runs the flattened span path while keeping the owning
            # DdioEngine's stats exact.  *ops* is a list of ``(kind,
            # first, last, aux)`` tuples; ``aux`` is the issuing core
            # for demand ops and the DdioEngine index for DMA ops.
            single = None if multi else ddios[0]
            # As in run_batch; no user code runs mid-replay either, so
            # the CAT masks cannot change under the loop.
            inline_fill = [
                inline_llc_fill and cat_allowed(c) is None for c in range(n_cores)
            ]
            n_writes = n_l1 = n_l2 = n_llc = n_dram = 0
            total_c = 0
            out_list: list = []
            out_append = out_list.append
            for k, line, last, aux in ops:
                if k > OP_WRITE:
                    out_append(0)
                    ddio = single if single is not None else ddios[aux]
                    if k == OP_DMA_READ:
                        lines, hits = dma_read_span(line, last)
                        dstats = ddio.stats
                        dstats.read_lines += lines
                        dstats.read_hits += hits
                        dstats.read_misses += lines - hits
                    elif ddio.enabled:
                        ddio.stats.write_lines += dma_fill_span(line, last, stats)
                    else:
                        # Disabled DDIO stays on the reference per-line
                        # invalidate path (it is not a hot configuration).
                        ddio.dma_write(line, last - line + CACHE_LINE)
                    continue
                write = k == OP_WRITE
                core = aux
                active_cores.add(core)
                if write:
                    n_writes += (last - line) // CACHE_LINE + 1
                c = 0
                while True:
                    # run_batch's loop body; the slice is resolved on an
                    # L2 miss and each level counted in place.
                    shift = line >> 6
                    s1 = l1_sets[core][shift & l1_mask]
                    d = s1.pop(line, None)
                    if d is not None:
                        s1[line] = d or write
                        c += store_commit if write else l1_hit_lat
                        n_l1 += 1
                    else:
                        s2 = l2_sets[core][shift & l2_mask]
                        d = s2.pop(line, None)
                        if d is not None:
                            # A line in this core's L2 already carries
                            # its core-valid bit.
                            s2[line] = d
                            cc = (store_commit + rfo_l2) if write else l2_hit_lat
                            n_l2 += 1
                            lv = 1
                        else:
                            slc = line_slice(line)
                            cnt = counts[slc]
                            cnt[EV_LOOKUPS] += 1
                            set_i = shift & llc_mask
                            where = llc_where[slc]
                            way = where.get(line)
                            lv = 2
                            if way is not None:
                                cnt[EV_HITS] += 1
                                n_llc += 1
                                pol = llc_pols[slc]
                                slot = set_i * n_llc_ways + way
                                if lru_fast:
                                    pol._clock += 1
                                    llc_stamps[slc][slot] = pol._clock
                                else:
                                    pol.touch(way, set_i)
                                if inclusive:
                                    llc_cv[slc][slot] |= 1 << core
                                if write:
                                    cc = store_commit + rfo_llc[core][slc]
                                else:
                                    cc = load_lat[core][slc]
                            else:
                                cnt[EV_MISSES] += 1
                                n_dram += 1
                                cc = (store_commit + rfo_dram) if write else dram_lat
                                if inclusive:
                                    if inline_fill[core]:
                                        # run_batch's inlined unmasked
                                        # LRU fill of the line the lookup
                                        # above just missed.
                                        cnt[EV_FILLS] += 1
                                        base = set_i * n_llc_ways
                                        tags = llc_tags[slc]
                                        dirt = llc_dirty[slc]
                                        stamp = llc_stamps[slc]
                                        cv = llc_cv[slc]
                                        pol = llc_pols[slc]
                                        pol._clock += 1
                                        slot = dirt.find(INVALID, base, base + n_llc_ways)
                                        if slot >= 0:
                                            tags[slot] = line
                                            dirt[slot] = False
                                            where[line] = slot - base
                                            stamp[slot] = pol._clock
                                            cv[slot] = 1 << core
                                        else:
                                            stamps = stamp[base:base + n_llc_ways].tolist()
                                            slot = base + stamps.index(min(stamps))
                                            vline = tags[slot]
                                            vdirty = dirt[slot]
                                            vcores = cv[slot]
                                            del where[vline]
                                            tags[slot] = line
                                            dirt[slot] = False
                                            where[line] = slot - base
                                            stamp[slot] = pol._clock
                                            cv[slot] = 1 << core
                                            cnt[EV_EVICT] += 1
                                            if vdirty:
                                                cnt[EV_WB] += 1
                                            if vcores and invalidate_cores(vline, vcores):
                                                vdirty = True
                                            if vdirty:
                                                stats.dram_writebacks += 1
                                                cc += wb_dram_visible
                                    else:
                                        cc += fill_llc(core, line, False, slc, stats)
                            # fill_l2, inlined as in run_batch: the LLC
                            # hit or fill above set the core's bit.
                            if len(s2) >= l2_ways:
                                vline = next(iter(s2))
                                vdirty = s2.pop(vline)
                                s2[line] = False
                                # A clean victim of an inclusive LLC
                                # drains to nothing.
                                if vdirty or not inclusive:
                                    cc += drain_l2_victim(core, vline, vdirty, stats)
                            else:
                                s2[line] = False
                        # fill_l1, inlined as in run_batch.
                        if len(s1) >= l1_ways:
                            vline = next(iter(s1))
                            vdirty = s1.pop(vline)
                            s1[line] = write
                            if vdirty:
                                cc += wb_l1_visible + drain_l1_dirty(core, vline, stats)
                        else:
                            s1[line] = write
                        if lv > 1 and prefetchers[core] is not None:
                            run_prefetcher(core, line)
                        c += cc
                    if line >= last:
                        break
                    line += CACHE_LINE
                out_append(c)
                total_c += c
            # Every demand line landed at exactly one level.
            n_demand = n_l1 + n_l2 + n_llc + n_dram
            stats.reads += n_demand - n_writes
            stats.writes += n_writes
            stats.l1_hits += n_l1
            stats.l1_misses += n_demand - n_l1
            stats.l2_hits += n_l2
            stats.l2_misses += n_llc + n_dram
            stats.llc_hits += n_llc
            stats.llc_misses += n_dram
            stats.dram_accesses += n_dram
            stats.cycles += total_c
            return np.array(out_list, dtype=np.int64)

        if sanitizer is not None:
            # SlicedLLC.fill's per-fill way-mask check: a masked fill
            # that newly inserts its line must land inside the mask.
            # Bound only under a sanitizer (fixed at hierarchy
            # construction), so the unsanitized closures are untouched.
            # Rebinding the names below reaches every caller, since the
            # closures above look them up when they run.
            unchecked_llc_fill = llc_fill
            unchecked_dma_fill_span = dma_fill_span

            def llc_fill(line, core, dirty, slc):
                allowed = cat_allowed(core)
                where = llc_where[slc]
                was_resident = line in where
                victim = unchecked_llc_fill(line, core, dirty, slc)
                if allowed is not None and not was_resident:
                    sanitizer.check_fill_way(
                        llc, slc, line, where.get(line), allowed, False
                    )
                return victim

            def dma_fill_span(first, last, stats):
                # One line at a time, so each check runs right after its
                # fill, in the reference order.
                n_lines = 0
                for line in range(first, last + CACHE_LINE, CACHE_LINE):
                    slc = line_slice(line)
                    where = llc_where[slc]
                    was_resident = line in where
                    n_lines += unchecked_dma_fill_span(line, line, stats)
                    if not was_resident:
                        sanitizer.check_fill_way(
                            llc, slc, line, where.get(line), ddio_ways, True
                        )
                return n_lines

        self._access = access
        self._renumber_clocks = renumber_clocks
        self._run_batch = run_batch
        self._run_ops = run_ops
        self._dma_fill_span = dma_fill_span
        self._dma_read_span = dma_read_span
        self._slice_of_array = getattr(llc.hash, "slice_of_array", None)
        self._line_slice = line_slice
        self._key = self._snapshot_key()

    # ------------------------------------------------------------------
    # Batch API
    # ------------------------------------------------------------------

    def access_batch(
        self,
        addresses: Union[Sequence[int], np.ndarray],
        kinds=None,
        core: Union[int, Sequence[int]] = 0,
    ) -> BatchResult:
        """Resolve a whole vector of line accesses.

        Args:
            addresses: byte addresses (any offset within a line); each
                entry is one access to the line containing it.
            kinds: per-access write flags — ``None`` (all loads), one
                scalar, or a sequence (``True``/1 = store).
            core: issuing core — a scalar, or one core per access
                (interleaved multi-core streams).

        Returns:
            A :class:`BatchResult` with per-access cycles, levels and
            slice indices, exactly matching what sequential
            ``access_line`` calls would have produced.
        """
        self.refresh()
        self._renumber_clocks()
        h = self._hierarchy_ref()
        n = len(addresses)
        san = h.sanitizer
        if san is not None and n:
            san.tick(h, n)
        if n == 0:
            empty_i64 = np.zeros(0, dtype=np.int64)
            return BatchResult(
                cycles=empty_i64,
                levels=np.zeros(0, dtype=np.uint8),
                slices=np.zeros(0, dtype=np.int16),
            )
        addr_arr = np.asarray(addresses, dtype=np.uint64)
        lines_arr = addr_arr & np.uint64(_LINE_MASK & 0xFFFFFFFFFFFFFFFF)
        if self._slice_of_array is not None:
            slcs_arr = np.asarray(self._slice_of_array(lines_arr), dtype=np.int16)
        else:
            scalar_hash = self._line_slice
            slcs_arr = np.array(
                [scalar_hash(int(a)) for a in lines_arr.tolist()], dtype=np.int16
            )
        lines = lines_arr.tolist()
        writes = _as_bool_list(kinds, n)
        cores = _as_core_list(core, n)
        the_core = int(core) if cores is None else 0
        cycles_arr, levels_arr = self._run_batch(
            lines, writes, slcs_arr.tolist(), cores, the_core, h.stats
        )
        # Slice indices only apply to accesses that reached the LLC;
        # private-cache hits report -1, recovered here vectorised
        # instead of appending per access inside the hot loop.
        slices_arr = np.where(levels_arr >= LEVEL_LLC, slcs_arr, np.int16(-1))
        return BatchResult(cycles=cycles_arr, levels=levels_arr, slices=slices_arr)

    def run_op_stream(
        self,
        ops: Sequence[Tuple[int, int, int, int]],
        ddios: Sequence[object],
        multi_ddio: bool = False,
    ) -> np.ndarray:
        """Replay a recorded dataplane op stream; returns per-op cycles.

        *ops* is a list of ``(kind, first_line, last_line, aux)``
        tuples: op codes are :data:`OP_READ` … :data:`OP_DMA_READ`,
        the span covers ``[first_line, last_line]`` inclusive, and
        ``aux`` is the issuing core for demand ops or the index into
        *ddios* for DMA ops (only consulted when ``multi_ddio`` is
        set, e.g. one engine per fleet tenant).  Ops execute strictly
        in order, so a stream recorded from the per-item loops
        replays with bit-identical cache outcomes and exact
        ``DdioStats``.  Demand ops return their stall cycles; DMA ops
        contribute 0, mirroring the per-item loops where ``DdioEngine``
        calls are not charged to any packet.

        The caller must ensure no :class:`CacheSanitizer` is installed:
        deferred replay cannot reproduce the sanitizer's check/tick
        interleaving (``repro.net.dataplane.charges_per_item`` sends
        such streams through the per-item loops instead).
        """
        self.refresh()
        self._renumber_clocks()
        return self._run_ops(ops, self.hierarchy.stats, ddios, multi_ddio)

    # ------------------------------------------------------------------
    # Fast scalar API (installed over CacheHierarchy.read/write)
    # ------------------------------------------------------------------

    def read(self, core: int, address: int, size: int = CACHE_LINE) -> int:
        """Fast-path replacement for :meth:`CacheHierarchy.read`."""
        return self._span(core, address, size, False)

    def write(self, core: int, address: int, size: int = CACHE_LINE) -> int:
        """Fast-path replacement for :meth:`CacheHierarchy.write`."""
        return self._span(core, address, size, True)

    def _span(self, core: int, address: int, size: int, write: bool) -> int:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        first = address & _LINE_MASK
        last = (address + size - 1) & _LINE_MASK
        self._renumber_clocks()
        h = self._hierarchy_ref()
        san = h.sanitizer
        if san is not None:
            san.tick(h, (last - first) // CACHE_LINE + 1)
        stats = h.stats
        access = self._access
        if first == last:
            return access(core, first, write, stats)[0]
        cycles = 0
        for line in range(first, last + CACHE_LINE, CACHE_LINE):
            cycles += access(core, line, write, stats)[0]
        return cycles

    # ------------------------------------------------------------------
    # Fast DMA API (used by DdioEngine when the fast engine is active)
    # ------------------------------------------------------------------

    def dma_write_span(self, address: int, size: int) -> int:
        """Flattened :meth:`DdioEngine.dma_write` (DDIO enabled).

        Returns the number of lines written, with outcomes identical to
        per-line :meth:`CacheHierarchy.dma_fill_line` calls.
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.refresh()
        self._renumber_clocks()
        first = address & _LINE_MASK
        last = (address + size - 1) & _LINE_MASK
        return self._dma_fill_span(first, last, self.hierarchy.stats)

    def dma_read_span(self, address: int, size: int) -> Tuple[int, int]:
        """Flattened :meth:`DdioEngine.dma_read`; returns ``(lines, hits)``."""
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.refresh()
        first = address & _LINE_MASK
        last = (address + size - 1) & _LINE_MASK
        return self._dma_read_span(first, last)
