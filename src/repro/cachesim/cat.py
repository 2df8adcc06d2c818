"""Cache Allocation Technology (CAT) — LLC way partitioning.

Intel CAT assigns each logical processor a *class of service* (CLOS);
each CLOS owns a contiguous bitmask of LLC ways, and fills triggered by
a core may only claim ways inside its CLOS mask.  The paper (§7) uses
CAT as the baseline cache-isolation mechanism that slice-aware
allocation is compared against.

The controller validates masks the way real hardware does: non-empty
and contiguous (the SDM requires contiguous capacity masks).
"""

from __future__ import annotations

from typing import Dict, List, Tuple


def _is_contiguous(mask: int) -> bool:
    """Return whether the set bits of *mask* form one contiguous run."""
    if mask == 0:
        return False
    shifted = mask >> (mask & -mask).bit_length() - 1
    return (shifted & (shifted + 1)) == 0


class CatController:
    """Way-mask bookkeeping for one socket's LLC.

    Args:
        n_ways: LLC associativity (masks are ``n_ways`` bits wide).
        n_cores: number of cores that can be associated with a CLOS.

    By default every core belongs to CLOS 0, which owns all ways —
    i.e. CAT disabled.
    """

    def __init__(self, n_ways: int, n_cores: int) -> None:
        if n_ways <= 0:
            raise ValueError(f"n_ways must be positive, got {n_ways}")
        if n_cores <= 0:
            raise ValueError(f"n_cores must be positive, got {n_cores}")
        self.n_ways = n_ways
        self.n_cores = n_cores
        self._full_mask = (1 << n_ways) - 1
        self._clos_masks: Dict[int, int] = {0: self._full_mask}
        self._core_clos: List[int] = [0] * n_cores
        self._ways_cache: Dict[int, Tuple[int, ...]] = {}
        #: Monotonic configuration version; bumped on every CLOS or
        #: core-association change so cached mask lookups (e.g. the
        #: fast engine's per-core way tables) can invalidate cheaply.
        self.generation = 0

    def define_clos(self, clos: int, way_mask: int) -> None:
        """Define or redefine a class of service.

        Raises:
            ValueError: if the mask is empty, non-contiguous, or wider
                than the cache (mirroring a #GP on the real MSR write).
        """
        if clos < 0:
            raise ValueError(f"clos must be non-negative, got {clos}")
        if way_mask & ~self._full_mask:
            raise ValueError(
                f"way mask {way_mask:#x} exceeds {self.n_ways} ways"
            )
        if not _is_contiguous(way_mask):
            raise ValueError(
                f"way mask {way_mask:#x} must be non-empty and contiguous"
            )
        self._clos_masks[clos] = way_mask
        self._ways_cache.clear()
        self.generation += 1

    def assign_core(self, core: int, clos: int) -> None:
        """Associate *core* with a previously defined CLOS."""
        if not 0 <= core < self.n_cores:
            raise IndexError(f"core {core} out of range 0..{self.n_cores - 1}")
        if clos not in self._clos_masks:
            raise KeyError(f"CLOS {clos} has not been defined")
        self._core_clos[core] = clos
        self.generation += 1

    def clos_of(self, core: int) -> int:  # simcheck: ignore[SIM501] probe
        """Return the CLOS currently associated with *core*."""
        return self._core_clos[core]

    def mask_of(self, core: int) -> int:  # simcheck: ignore[SIM501] probe
        """Return the way mask governing fills by *core*."""
        return self._clos_masks[self._core_clos[core]]

    def allowed_ways(self, core: int) -> Tuple[int, ...]:
        """Return the way indices *core* may fill into (cached)."""
        clos = self._core_clos[core]
        ways = self._ways_cache.get(clos)
        if ways is None:
            mask = self._clos_masks[clos]
            ways = tuple(w for w in range(self.n_ways) if mask & (1 << w))
            self._ways_cache[clos] = ways
        return ways

    def is_enabled(self) -> bool:
        """Return whether any core is restricted below the full mask."""
        return any(
            self._clos_masks[self._core_clos[c]] != self._full_mask
            for c in range(self.n_cores)
        )

    def reset(self) -> None:
        """Return to the power-on state: one CLOS owning every way."""
        self._clos_masks = {0: self._full_mask}
        self._core_clos = [0] * self.n_cores
        self._ways_cache.clear()
        self.generation += 1
