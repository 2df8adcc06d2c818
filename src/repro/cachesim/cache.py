"""Set-associative cache models.

Two implementations share one interface:

* :class:`DictCache` — a fast LRU-only cache used for the per-core L1
  and L2 levels (insertion-ordered dicts give O(1) LRU).
* :class:`WayCache` — a way-indexed cache with pluggable replacement
  and *way-mask* support, used for LLC slices where CAT and DDIO
  restrict which ways a fill may claim.

Both store whole line addresses (the line address doubles as the tag;
the set index is derived from it), track a dirty bit per line, and
report evictions so the hierarchy can propagate write-backs.  A
``WayCache`` keeps its per-slot state in typed buffers (``array`` and
``bytearray``) that the garbage collector never walks element by
element, and one line -> way dict per slice.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, MutableSequence, Optional, Sequence, Tuple

from repro.cachesim.replacement import make_policy
from repro.mem.address import CACHE_LINE_BITS, is_power_of_two

#: An eviction: (line_address, was_dirty).
Eviction = Tuple[int, bool]

#: ``WayCache._dirty`` byte of an invalid way (valid ways hold 0 or 1).
INVALID_WAY = 2

#: ``WayCache._tags`` entry of an invalid way: all 64 bits set.  A line
#: address is a multiple of the line size, so it is never this value,
#: and every unsigned 64-bit line address still fits the buffer.
INVALID_TAG = (1 << 64) - 1


def _core_valid_buffer(n_cores: int, size: int) -> MutableSequence[int]:
    """*size* clear core-valid entries wide enough for *n_cores* bits."""
    if n_cores <= 8:
        return bytearray(size)
    if n_cores <= 64:
        return array("Q", bytes(8 * size))
    raise ValueError(f"core-valid bits cover at most 64 cores, got {n_cores}")


class DictCache:
    """LRU set-associative cache backed by insertion-ordered dicts.

    Args:
        n_sets: number of sets (power of two).
        n_ways: associativity.
        name: label used in ``repr`` and error messages.
    """

    def __init__(self, n_sets: int, n_ways: int, name: str = "cache") -> None:
        if not is_power_of_two(n_sets):
            raise ValueError(f"n_sets must be a power of two, got {n_sets}")
        if n_ways <= 0:
            raise ValueError(f"n_ways must be positive, got {n_ways}")
        self.n_sets = n_sets
        self.n_ways = n_ways
        self.name = name
        self._set_mask = n_sets - 1
        # Each set maps line_address -> dirty flag; dict order is LRU
        # order (oldest first).
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(n_sets)]

    @property
    def capacity_lines(self) -> int:
        """Total number of lines this cache can hold."""
        return self.n_sets * self.n_ways

    @property
    def capacity_bytes(self) -> int:
        """Total capacity in bytes."""
        return self.capacity_lines << CACHE_LINE_BITS

    def set_index(self, line_address: int) -> int:  # simcheck: ignore[SIM501] probe
        """Return the set index for a line address."""
        return (line_address >> CACHE_LINE_BITS) & self._set_mask

    def lookup(self, line_address: int, write: bool = False) -> bool:
        """Probe for a line; on hit, refresh LRU and merge dirty state."""
        cache_set = self._sets[(line_address >> CACHE_LINE_BITS) & self._set_mask]
        dirty = cache_set.pop(line_address, None)
        if dirty is None:
            return False
        cache_set[line_address] = dirty or write
        return True

    def contains(self, line_address: int) -> bool:
        """Probe without touching replacement state."""
        cache_set = self._sets[(line_address >> CACHE_LINE_BITS) & self._set_mask]
        return line_address in cache_set

    def insert(self, line_address: int, dirty: bool = False) -> Optional[Eviction]:
        """Fill a line, returning the eviction it forced (if any).

        Inserting a line that is already present refreshes it and
        merges the dirty bit without evicting anything.
        """
        cache_set = self._sets[(line_address >> CACHE_LINE_BITS) & self._set_mask]
        previous = cache_set.pop(line_address, None)
        if previous is not None:
            cache_set[line_address] = previous or dirty
            return None
        victim: Optional[Eviction] = None
        if len(cache_set) >= self.n_ways:
            victim_address = next(iter(cache_set))
            victim = (victim_address, cache_set.pop(victim_address))
        cache_set[line_address] = dirty
        return victim

    def invalidate(self, line_address: int) -> Optional[bool]:
        """Drop a line; return its dirty bit, or ``None`` if absent."""
        cache_set = self._sets[(line_address >> CACHE_LINE_BITS) & self._set_mask]
        return cache_set.pop(line_address, None)

    def flush(self) -> List[Eviction]:
        """Empty the cache, returning every line with its dirty bit."""
        drained: List[Eviction] = []
        for cache_set in self._sets:
            drained.extend(cache_set.items())
            cache_set.clear()
        return drained

    def occupancy(self) -> int:
        """Return the number of valid lines currently held."""
        return sum(len(cache_set) for cache_set in self._sets)

    def lines(self) -> List[int]:
        """Return every resident line address (unspecified order)."""
        resident: List[int] = []
        for cache_set in self._sets:
            resident.extend(cache_set.keys())
        return resident

    def __repr__(self) -> str:
        return (
            f"DictCache(name={self.name!r}, n_sets={self.n_sets}, "
            f"n_ways={self.n_ways})"
        )


class WayCache:
    """Way-indexed set-associative cache with way-mask support.

    Used for LLC slices: CAT restricts application fills to a subset of
    ways and DDIO restricts I/O fills to (by default) 2 ways, so victim
    selection must understand way identity.

    Slot state lives in typed buffers indexed ``set_i * n_ways + way``:
    ``_tags`` is an ``array('Q')`` of line addresses (:data:`INVALID_TAG`
    for an invalid way) and ``_dirty`` a ``bytearray`` holding ``0`` (clean),
    ``1`` (dirty) or :data:`INVALID_WAY`.  One policy object carries
    the replacement state of every set in the same kind of buffer.
    ``_where`` is one dict per slice mapping each resident line to its
    way; the set is derived from the line.  Nothing is kept per set,
    and the dict holds only ints, so the garbage collector visits no
    element of this cache per set or per slot.

    A slice of an inclusive LLC also keeps ``_core_valid``, one entry
    of core-valid bits per slot (bit *c* set: core *c*'s L1/L2 may
    hold the slot's line), allocated by :meth:`track_core_valid`.  The
    cache clears a slot's bits whenever the slot gets a new line or is
    invalidated; setting them is the hierarchy's job.  Without them
    (a non-inclusive LLC) ``_core_valid`` is ``None``.

    Args:
        n_sets: number of sets (power of two).
        n_ways: associativity.
        policy: replacement policy name (``lru``, ``plru``, ``random``,
            ``srrip``, ``brrip``).
        name: label for diagnostics.
        seed: seed for stochastic replacement policies; set ``i``
            draws from ``random.Random(seed + i)``.
    """

    def __init__(
        self,
        n_sets: int,
        n_ways: int,
        policy: str = "lru",
        name: str = "cache",
        seed: int = 0,
    ) -> None:
        if not is_power_of_two(n_sets):
            raise ValueError(f"n_sets must be a power of two, got {n_sets}")
        if n_ways <= 0:
            raise ValueError(f"n_ways must be positive, got {n_ways}")
        self.n_sets = n_sets
        self.n_ways = n_ways
        self.name = name
        self.policy_name = policy
        self._set_mask = n_sets - 1
        self._tags = array("Q", [INVALID_TAG]) * (n_sets * n_ways)
        self._dirty = bytearray([INVALID_WAY]) * (n_sets * n_ways)
        self._where: Dict[int, int] = {}
        self._core_valid: Optional[MutableSequence[int]] = None
        self._core_valid_cores = 0
        self._policy = make_policy(policy, n_ways, seed=seed, n_sets=n_sets)
        self._all_ways = tuple(range(n_ways))

    def track_core_valid(self, n_cores: int) -> None:
        """Keep core-valid bits for *n_cores* cores (all clear to start).

        One byte per slot covers up to 8 cores, eight bytes up to 64.
        A no-op when the bits are already kept.

        Raises:
            ValueError: for more than 64 cores.
        """
        if self._core_valid is None:
            self._core_valid = _core_valid_buffer(n_cores, self.n_sets * self.n_ways)
            self._core_valid_cores = n_cores

    def add_core_valid(self, line_address: int, core: int) -> None:
        """Set *core*'s core-valid bit for a resident line (if tracked)."""
        way = self._where.get(line_address)
        if way is not None and self._core_valid is not None:
            index = (line_address >> CACHE_LINE_BITS) & self._set_mask
            self._core_valid[index * self.n_ways + way] |= 1 << core

    def core_valid(self, line_address: int) -> int:
        """Core-valid bits of a resident line (0 if absent or untracked)."""
        way = self._where.get(line_address)
        if way is None or self._core_valid is None:
            return 0
        index = (line_address >> CACHE_LINE_BITS) & self._set_mask
        return self._core_valid[index * self.n_ways + way]

    @property
    def capacity_lines(self) -> int:
        """Total number of lines this cache can hold."""
        return self.n_sets * self.n_ways

    @property
    def capacity_bytes(self) -> int:
        """Total capacity in bytes."""
        return self.capacity_lines << CACHE_LINE_BITS

    def set_index(self, line_address: int) -> int:  # simcheck: ignore[SIM501] probe
        """Return the set index for a line address."""
        return (line_address >> CACHE_LINE_BITS) & self._set_mask

    def lookup(self, line_address: int, write: bool = False) -> bool:
        """Probe for a line; on hit, refresh replacement state."""
        way = self._where.get(line_address)
        if way is None:
            return False
        index = (line_address >> CACHE_LINE_BITS) & self._set_mask
        self._policy.touch(way, index)
        if write:
            self._dirty[index * self.n_ways + way] = 1
        return True

    def contains(self, line_address: int) -> bool:
        """Probe without touching replacement state."""
        return line_address in self._where

    def way_of(self, line_address: int) -> Optional[int]:
        """Return the way holding a line, or ``None``."""
        return self._where.get(line_address)

    def insert(
        self,
        line_address: int,
        dirty: bool = False,
        allowed_ways: Optional[Sequence[int]] = None,
    ) -> Optional[Eviction]:
        """Fill a line, optionally restricted to *allowed_ways*.

        Preference order: refresh in place if already resident
        (regardless of way mask — a hit never migrates ways), else an
        invalid allowed way, else evict the policy's victim among the
        allowed ways.

        Raises:
            ValueError: if *allowed_ways* is empty or names a way
                outside ``0..n_ways-1``.
        """
        index = (line_address >> CACHE_LINE_BITS) & self._set_mask
        where = self._where
        base = index * self.n_ways
        existing = where.get(line_address)
        if existing is not None:
            self._policy.touch(existing, index)
            if dirty:
                self._dirty[base + existing] = 1
            return None
        ways = self._all_ways if allowed_ways is None else tuple(allowed_ways)
        if not ways:
            raise ValueError("allowed_ways must be non-empty")
        if allowed_ways is not None:
            # A way past the set would alias a neighbour set's slot.
            for way in ways:
                if not 0 <= way < self.n_ways:
                    raise ValueError(
                        f"allowed way {way} outside 0..{self.n_ways - 1}"
                    )
        dirt = self._dirty
        for way in ways:
            if dirt[base + way] == INVALID_WAY:
                self._fill(index, way, line_address, dirty)
                return None
        victim_way = self._policy.victim(ways, index)
        victim_tag = self._tags[base + victim_way]
        victim_dirty = dirt[base + victim_way] == 1
        del where[victim_tag]
        self._fill(index, victim_way, line_address, dirty)
        return (victim_tag, victim_dirty)

    def _fill(self, index: int, way: int, line_address: int, dirty: bool) -> None:
        slot = index * self.n_ways + way
        self._tags[slot] = line_address
        self._dirty[slot] = 1 if dirty else 0
        self._where[line_address] = way
        self._policy.reset(way, index)
        if self._core_valid is not None:
            self._core_valid[slot] = 0

    def invalidate(self, line_address: int) -> Optional[bool]:
        """Drop a line; return its dirty bit, or ``None`` if absent."""
        way = self._where.pop(line_address, None)
        if way is None:
            return None
        index = (line_address >> CACHE_LINE_BITS) & self._set_mask
        slot = index * self.n_ways + way
        self._tags[slot] = INVALID_TAG
        dirty = self._dirty[slot] == 1
        self._dirty[slot] = INVALID_WAY
        if self._core_valid is not None:
            self._core_valid[slot] = 0
        return dirty

    def flush(self) -> List[Eviction]:
        """Empty the cache, returning every line with its dirty bit.

        The tag, dirty, line -> way and core-valid containers are
        cleared in place, so references to them stay valid;
        replacement state is left as is.
        """
        dirty = self._dirty
        mask = self._set_mask
        n_ways = self.n_ways
        drained: List[Eviction] = [
            (line, dirty[((line >> CACHE_LINE_BITS) & mask) * n_ways + way] == 1)
            for line, way in self._where.items()
        ]
        self._where.clear()
        size = len(self._tags)
        self._tags[:] = array("Q", [INVALID_TAG]) * size
        dirty[:] = bytearray([INVALID_WAY]) * size
        if self._core_valid is not None:
            self._core_valid[:] = _core_valid_buffer(self._core_valid_cores, size)
        return drained

    def occupancy(self) -> int:
        """Return the number of valid lines currently held."""
        return len(self._where)

    def lines(self) -> List[int]:
        """Return every resident line address (unspecified order)."""
        return list(self._where)

    def set_occupancy(self, index: int) -> int:  # simcheck: ignore[SIM501] probe
        """Return the number of valid lines in one set."""
        base = index * self.n_ways
        return self.n_ways - self._dirty.count(INVALID_WAY, base, base + self.n_ways)

    def __repr__(self) -> str:
        return (
            f"WayCache(name={self.name!r}, n_sets={self.n_sets}, "
            f"n_ways={self.n_ways}, policy={self.policy_name!r})"
        )
