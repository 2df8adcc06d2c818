"""Hot-data monitoring and slice migration (§8 future work).

The paper notes that "applications which only use slice-aware memory
management for the 'hot' data due to their very large working set
should employ monitoring/migration techniques to deal with variability
of hot data".  This module implements that extension:

* :class:`AccessMonitor` — epoch-based access-frequency tracking with
  exponential decay, identifying the currently hot objects.
* :class:`MigratingObjectStore` — a key→line placement layer that
  serves accesses through the cache hierarchy and can *migrate*
  objects between normal (contiguous) lines and slice-local lines.
  Migrations are real work: the line is read from its old home and
  written to the new one, charged to the migrating core.

The ``ablation-migration`` lab experiment and
``tests/test_ablations.py::TestMigrationExperiment`` show the trade-off:
with a drifting hot set, migration follows the drift but pays for its
copies, so it only matches or beats static slice-aware placement when
the hot set drifts slowly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cachesim.hierarchy import CacheHierarchy
from repro.core.slice_aware import SliceAwareContext
from repro.mem.address import CACHE_LINE
from repro.mem.slice_array import SliceLocalArray


class AccessMonitor:
    """Epoch-decayed access counting.

    Args:
        decay: multiplier applied to every count at each epoch end
            (0 forgets everything; 1 never decays).
        epoch_accesses: accesses per epoch.
    """

    def __init__(self, decay: float = 0.5, epoch_accesses: int = 4096) -> None:
        if not 0.0 <= decay <= 1.0:
            raise ValueError(f"decay must be in [0, 1], got {decay}")
        if epoch_accesses <= 0:
            raise ValueError(f"epoch_accesses must be positive, got {epoch_accesses}")
        self.decay = decay
        self.epoch_accesses = epoch_accesses
        self._counts: Dict[int, float] = {}
        self._since_epoch = 0
        self.epochs = 0

    def record(self, key: int) -> None:
        """Record one access to *key*."""
        self._counts[key] = self._counts.get(key, 0.0) + 1.0
        self._since_epoch += 1
        if self._since_epoch >= self.epoch_accesses:
            self._end_epoch()

    def _end_epoch(self) -> None:
        self._since_epoch = 0
        self.epochs += 1
        if self.decay == 0.0:
            self._counts.clear()
            return
        dead = []
        for key in self._counts:
            self._counts[key] *= self.decay
            if self._counts[key] < 0.25:
                dead.append(key)
        for key in dead:
            del self._counts[key]

    def count(self, key: int) -> float:
        """Current (decayed) count for *key*."""
        return self._counts.get(key, 0.0)

    def hottest(self, n: int, min_count: float = 0.0) -> List[int]:
        """The *n* highest-count keys (count >= *min_count*), hottest
        first.  A threshold separates genuinely hot keys from the sea
        of once-seen cold ones — promoting the latter just thrashes."""
        if n <= 0:
            return []
        candidates = (
            self._counts
            if min_count <= 0.0
            else {k: c for k, c in self._counts.items() if c >= min_count}
        )
        return sorted(candidates, key=candidates.get, reverse=True)[:n]

    def __len__(self) -> int:
        return len(self._counts)


@dataclass
class MigrationStats:
    """Bookkeeping for migrations performed."""

    promotions: int = 0
    demotions: int = 0
    migration_cycles: int = 0


class MigratingObjectStore:
    """Key→cache-line placement with hot-set migration.

    Every key initially lives on a normal (contiguous) line.  A bounded
    number of keys can be *promoted* onto slice-local lines of the
    serving core's preferred slice; when the fast pool is full, the
    coldest promoted key is demoted to make room.

    Args:
        context: machine context.
        core: serving core.
        n_keys: key-space size.
        fast_lines: capacity of the slice-local pool (the promoted
            working set; the paper recommends sizing it to fit the
            slice).
        monitor: access monitor (a default one is built if omitted).
    """

    def __init__(
        self,
        context: SliceAwareContext,
        core: int,
        n_keys: int,
        fast_lines: int,
        monitor: Optional[AccessMonitor] = None,
    ) -> None:
        if n_keys <= 0:
            raise ValueError(f"n_keys must be positive, got {n_keys}")
        if fast_lines <= 0:
            raise ValueError(f"fast_lines must be positive, got {fast_lines}")
        self.context = context
        self.hierarchy: CacheHierarchy = context.hierarchy
        self.core = core
        self.n_keys = n_keys
        self.monitor = monitor if monitor is not None else AccessMonitor()
        self.stats = MigrationStats()
        normal_page = context.address_space.mmap_auto(n_keys * CACHE_LINE)
        self._normal_base = normal_page.phys
        target = context.preferred_slice(core)
        block = context.hash.n_slices
        fast_page = context.address_space.mmap_auto(fast_lines * block * CACHE_LINE)
        self._fast = SliceLocalArray(
            base_phys=fast_page.phys,
            n_lines=fast_lines,
            slice_hash=context.hash,
            target_slice=target,
            block_lines=block,
        )
        self.fast_lines = fast_lines
        # key -> fast-pool slot (promoted keys only).
        self._promoted: Dict[int, int] = {}
        self._free_slots: List[int] = list(range(fast_lines - 1, -1, -1))

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def address_of(self, key: int) -> int:
        """Current physical line of *key*."""
        self._check_key(key)
        slot = self._promoted.get(key)
        if slot is not None:
            return self._fast.line_address(slot)
        return self._normal_base + key * CACHE_LINE

    def access(self, key: int, write: bool = False) -> int:
        """Access *key* through the hierarchy; returns cycles."""
        self.monitor.record(key)
        address = self.address_of(key)
        if write:
            return self.hierarchy.write(self.core, address, 1)
        return self.hierarchy.read(self.core, address, 1)

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------

    def is_promoted(self, key: int) -> bool:  # simcheck: ignore[SIM501] probe
        """Whether *key* currently lives in the fast slice."""
        return key in self._promoted

    def promote(self, key: int) -> bool:
        """Move *key* onto a slice-local line; ``False`` if pool full."""
        self._check_key(key)
        if key in self._promoted:
            return True
        if not self._free_slots:
            return False
        old = self.address_of(key)
        slot = self._free_slots.pop()
        self._promoted[key] = slot
        self._migrate(old, self._fast.line_address(slot))
        self.stats.promotions += 1
        return True

    def demote(self, key: int) -> None:
        """Move *key* back to its normal line."""
        slot = self._promoted.pop(key, None)
        if slot is None:
            return
        self._free_slots.append(slot)
        self._migrate(
            self._fast.line_address(slot), self._normal_base + key * CACHE_LINE
        )
        self.stats.demotions += 1

    def _migrate(self, src: int, dst: int) -> None:
        cycles = self.hierarchy.read(self.core, src, 1)
        cycles += self.hierarchy.write(self.core, dst, 1)
        self.hierarchy.clflush(src)
        self.stats.migration_cycles += cycles

    def rebalance(
        self,
        budget: Optional[int] = None,
        min_count: float = 2.0,
    ) -> int:
        """Promote the monitor's hottest keys, demoting cooled ones.

        Hysteresis: keys must reach *min_count* (decayed) accesses to
        be promoted, and already-promoted keys are only demoted once
        they fall below half of it — otherwise boundary keys would
        bounce between placements, paying two copies per bounce.

        Args:
            budget: maximum number of migrations (promotions +
                demotions) this call may perform; unlimited if omitted.
            min_count: promotion threshold.

        Returns:
            Number of promotions performed.
        """
        wanted = self.monitor.hottest(self.fast_lines, min_count=min_count)
        wanted_set = set(wanted)
        migrations = 0
        # Demote promoted keys that genuinely cooled down.
        for key in list(self._promoted):
            if key not in wanted_set and self.monitor.count(key) < min_count / 2:
                if budget is not None and migrations >= budget:
                    return 0
                self.demote(key)
                migrations += 1
        promoted = 0
        for key in wanted:
            if budget is not None and migrations >= budget:
                break
            if key not in self._promoted:
                if not self.promote(key):
                    break
                migrations += 1
                promoted += 1
        return promoted

    def _check_key(self, key: int) -> None:
        if not 0 <= key < self.n_keys:
            raise KeyError(f"key {key} outside [0, {self.n_keys})")
