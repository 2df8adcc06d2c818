"""The sliced Last Level Cache.

One :class:`WayCache` per slice, a :class:`SliceHash` mapping physical
lines to slices, an :class:`Interconnect` giving per-(core, slice)
NUCA latency, per-slice uncore counters, and the way-mask plumbing for
CAT (core fills) and DDIO (I/O fills).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.cachesim.cache import Eviction, WayCache
from repro.cachesim.cat import CatController
from repro.cachesim.counters import (
    EVENT_DDIO_FILLS,
    EVENT_EVICTIONS,
    EVENT_FILLS,
    EVENT_HITS,
    EVENT_LOOKUPS,
    EVENT_MISSES,
    EVENT_WRITEBACKS,
    UncoreCounters,
)
from repro.cachesim.hashfn import SliceHash
from repro.cachesim.interconnect import Interconnect


class SlicedLLC:
    """A multi-slice LLC with Complex Addressing and NUCA latency.

    Args:
        slice_hash: maps physical line addresses to slice indices.
        interconnect: per-(core, slice) extra latency.
        n_sets: sets per slice.
        n_ways: ways per slice.
        base_latency: slice-pipeline latency in cycles, before the
            interconnect distance is added.
        ddio_ways: number of (topmost) ways DDIO fills may claim;
            Intel's default is 2 of the LLC's ways (§5, footnote on the
            10 % DDIO limit).
        policy: replacement policy for the slices.
        cat: optional CAT controller restricting core fills.
    """

    def __init__(
        self,
        slice_hash: SliceHash,
        interconnect: Interconnect,
        n_sets: int,
        n_ways: int,
        base_latency: int = 34,
        ddio_ways: int = 2,
        policy: str = "lru",
        cat: Optional[CatController] = None,
        seed: int = 0,
    ) -> None:
        if slice_hash.n_slices != interconnect.n_slices:
            raise ValueError(
                f"hash has {slice_hash.n_slices} slices but interconnect "
                f"has {interconnect.n_slices}"
            )
        if not 0 <= ddio_ways <= n_ways:
            raise ValueError(f"ddio_ways must be in 0..{n_ways}, got {ddio_ways}")
        self.hash = slice_hash
        self.interconnect = interconnect
        self.n_slices = slice_hash.n_slices
        self.n_sets = n_sets
        self.n_ways = n_ways
        self.base_latency = base_latency
        self.ddio_way_tuple: Tuple[int, ...] = tuple(
            range(n_ways - ddio_ways, n_ways)
        )
        self.cat = cat if cat is not None else CatController(n_ways, interconnect.n_cores)
        self.counters = UncoreCounters(self.n_slices)
        #: Optional CacheSanitizer verifying masked fills (attached by
        #: the owning hierarchy when sanitizing is on).
        self.sanitizer = None
        self.slices: List[WayCache] = [
            WayCache(n_sets, n_ways, policy=policy, name=f"llc-slice-{i}", seed=seed + i)
            for i in range(self.n_slices)
        ]

    @property
    def slice_capacity_bytes(self) -> int:
        """Capacity of a single slice in bytes."""
        return self.slices[0].capacity_bytes

    @property
    def capacity_bytes(self) -> int:
        """Total LLC capacity in bytes."""
        return self.slice_capacity_bytes * self.n_slices

    def slice_of(self, line_address: int) -> int:
        """Return the slice index the line maps to."""
        return self.hash.slice_of(line_address)

    def access_latency(self, core: int, slice_index: int) -> int:
        """Cycles for *core* to load from *slice_index* on an LLC hit."""
        return self.base_latency + self.interconnect.latency(core, slice_index)

    def lookup(self, line_address: int, write: bool = False) -> Tuple[bool, int]:
        """Probe the LLC; returns ``(hit, slice_index)`` and counts events."""
        slice_index = self.hash.slice_of(line_address)
        counters = self.counters.slices[slice_index]
        counters.count(EVENT_LOOKUPS)
        hit = self.slices[slice_index].lookup(line_address, write=write)
        counters.count(EVENT_HITS if hit else EVENT_MISSES)
        return hit, slice_index

    def contains(self, line_address: int) -> bool:
        """Probe without touching replacement state or counters."""
        return self.slices[self.hash.slice_of(line_address)].contains(line_address)

    def fill(
        self,
        line_address: int,
        core: Optional[int] = None,
        dirty: bool = False,
        io: bool = False,
    ) -> Optional[Eviction]:
        """Install a line, honouring CAT (core fills) or DDIO (I/O fills).

        Args:
            line_address: line to install.
            core: filling core (selects the CAT way mask); ignored for
                I/O fills.
            dirty: install in modified state.
            io: the fill comes from a DMA write (DDIO): restricted to
                the DDIO ways.

        Returns:
            The eviction the fill forced, if any.
        """
        slice_index = self.hash.slice_of(line_address)
        counters = self.counters.slices[slice_index]
        if io:
            allowed: Optional[Sequence[int]] = self.ddio_way_tuple
            counters.count(EVENT_DDIO_FILLS)
        elif core is not None and self.cat.is_enabled():
            allowed = self.cat.allowed_ways(core)
        else:
            allowed = None
        counters.count(EVENT_FILLS)
        slice_cache = self.slices[slice_index]
        # Refresh-in-place never migrates ways, so only a *new* insert
        # is held to the way mask by the sanitizer below.
        was_resident = (
            self.sanitizer is not None
            and allowed is not None
            and slice_cache.contains(line_address)
        )
        victim = slice_cache.insert(
            line_address, dirty=dirty, allowed_ways=allowed
        )
        if self.sanitizer is not None and allowed is not None and not was_resident:
            self.sanitizer.check_fill_way(
                self,
                slice_index,
                line_address,
                slice_cache.way_of(line_address),
                tuple(allowed),
                io,
            )
        if victim is not None:
            counters.count(EVENT_EVICTIONS)
            if victim[1]:
                counters.count(EVENT_WRITEBACKS)
        return victim

    def invalidate(self, line_address: int) -> Optional[bool]:
        """Drop a line (e.g. on ``clflush``); return its dirty bit."""
        return self.slices[self.hash.slice_of(line_address)].invalidate(line_address)

    def flush(self) -> List[Eviction]:
        """Empty every slice, returning all drained lines."""
        drained: List[Eviction] = []
        for slice_cache in self.slices:
            drained.extend(slice_cache.flush())
        return drained

    def occupancy(self) -> int:
        """Total valid lines across all slices."""
        return sum(s.occupancy() for s in self.slices)

    def slice_occupancy(self) -> List[int]:  # simcheck: ignore[SIM501] probe
        """Valid lines per slice, by slice index."""
        return [s.occupancy() for s in self.slices]

    def __repr__(self) -> str:
        return (
            f"SlicedLLC(n_slices={self.n_slices}, n_sets={self.n_sets}, "
            f"n_ways={self.n_ways}, base_latency={self.base_latency})"
        )
