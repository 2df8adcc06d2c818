"""Machine models for the paper's two testbed CPUs.

* :data:`HASWELL_E5_2667V3` — Intel Xeon E5-2667 v3: 8 cores @
  3.2 GHz, 8 × 2.5 MB LLC slices (20 ways, 2048 sets — Table 1),
  inclusive LLC, ring interconnect, published Complex Addressing hash.
* :data:`SKYLAKE_GOLD_6134` — Intel Xeon Gold 6134: 8 cores @
  3.2 GHz, 18 × 1.375 MB LLC slices (11 ways), 1 MB L2, non-inclusive
  victim LLC, mesh interconnect (§6).  The Skylake hash is unpublished,
  so the model uses :class:`~repro.cachesim.hashfn.ModularSliceHash`
  and a measured-style latency table that realises the paper's Table 4
  core→slice preferences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.cachesim.cat import CatController
from repro.cachesim.hashfn import ModularSliceHash, SliceHash, haswell_complex_hash
from repro.cachesim.hierarchy import CacheHierarchy, LatencySpec
from repro.cachesim.interconnect import (
    Interconnect,
    RingInterconnect,
    TableInterconnect,
)
from repro.cachesim.llc import SlicedLLC

#: Paper Table 4 — primary preferable slice per core on the Gold 6134.
SKYLAKE_PRIMARY_SLICES: Dict[int, int] = {
    0: 0, 1: 4, 2: 8, 3: 12, 4: 10, 5: 14, 6: 3, 7: 15,
}

#: Paper Table 4 — secondary preferable slices per core.
SKYLAKE_SECONDARY_SLICES: Dict[int, Tuple[int, ...]] = {
    0: (2, 6), 1: (1,), 2: (11,), 3: (13,), 4: (7, 9), 5: (16,), 6: (5,), 7: (17,),
}


@dataclass(frozen=True)
class MachineSpec:
    """Static description of a simulated CPU socket."""

    name: str
    n_cores: int
    n_slices: int
    freq_ghz: float
    l1_sets: int
    l1_ways: int
    l2_sets: int
    l2_ways: int
    llc_sets: int
    llc_ways: int
    llc_base_latency: int
    inclusive: bool
    ddio_ways: int
    latency: LatencySpec
    hash_factory: Callable[[], SliceHash]
    interconnect_factory: Callable[[], Interconnect]

    @property
    def l1_bytes(self) -> int:
        """L1D capacity per core."""
        return self.l1_sets * self.l1_ways * 64

    @property
    def l2_bytes(self) -> int:
        """L2 capacity per core."""
        return self.l2_sets * self.l2_ways * 64

    @property
    def llc_slice_bytes(self) -> int:
        """Capacity of one LLC slice."""
        return self.llc_sets * self.llc_ways * 64

    @property
    def llc_bytes(self) -> int:
        """Total LLC capacity."""
        return self.llc_slice_bytes * self.n_slices

    @property
    def freq_hz(self) -> float:
        """Core frequency in Hz."""
        return self.freq_ghz * 1e9

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count to seconds at this machine's clock."""
        return cycles / self.freq_hz


def _skylake_interconnect() -> TableInterconnect:
    return TableInterconnect.from_preferences(
        n_cores=8,
        n_slices=18,
        primary=SKYLAKE_PRIMARY_SLICES,
        secondary={c: list(s) for c, s in SKYLAKE_SECONDARY_SLICES.items()},
        secondary_extra=4,
        far_base=10,
        far_spread=22,
    )


HASWELL_E5_2667V3 = MachineSpec(
    name="Intel Xeon E5-2667 v3 (Haswell)",
    n_cores=8,
    n_slices=8,
    freq_ghz=3.2,
    l1_sets=64,
    l1_ways=8,       # 32 kB (Table 1)
    l2_sets=512,
    l2_ways=8,       # 256 kB (Table 1)
    llc_sets=2048,
    llc_ways=20,     # 2.5 MB per slice (Table 1)
    llc_base_latency=34,
    inclusive=True,
    ddio_ways=2,
    latency=LatencySpec(l1_hit=4, l2_hit=11, dram=190),
    hash_factory=lambda: haswell_complex_hash(8),
    interconnect_factory=lambda: RingInterconnect(n_stops=8, hop_cycles=4, cross_penalty=14),
)

SKYLAKE_GOLD_6134 = MachineSpec(
    name="Intel Xeon Gold 6134 (Skylake-SP)",
    n_cores=8,
    n_slices=18,
    freq_ghz=3.2,
    l1_sets=64,
    l1_ways=8,        # 32 kB
    l2_sets=1024,
    l2_ways=16,       # 1 MB (quadrupled vs Haswell, §6)
    llc_sets=2048,
    llc_ways=11,      # 1.375 MB per slice (§6)
    llc_base_latency=44,
    inclusive=False,  # non-inclusive victim LLC (§6)
    ddio_ways=2,
    latency=LatencySpec(l1_hit=4, l2_hit=14, dram=190),
    hash_factory=lambda: ModularSliceHash(18),
    interconnect_factory=_skylake_interconnect,
)


def build_hierarchy(
    spec: MachineSpec,
    policy: str = "lru",
    ddio_ways: Optional[int] = None,
    cat: Optional[CatController] = None,
    latency: Optional[LatencySpec] = None,
    prefetchers: Optional[Sequence[object]] = None,
    seed: int = 0,
    sanitize: Optional[bool] = None,
) -> CacheHierarchy:
    """Instantiate a :class:`CacheHierarchy` from a machine spec.

    Args:
        spec: which machine to build.
        policy: LLC replacement policy name.
        ddio_ways: override the number of DDIO ways (default: spec's).
        cat: optional pre-configured CAT controller.
        latency: override the latency model.
        prefetchers: optional per-core prefetchers.
        seed: seed for stochastic replacement policies.
        sanitize: CacheSanitizer switch (``None`` = follow
            ``RF_SANITIZE``; see :mod:`repro.analysis.sanitizer`).
    """
    llc = SlicedLLC(
        slice_hash=spec.hash_factory(),
        interconnect=spec.interconnect_factory(),
        n_sets=spec.llc_sets,
        n_ways=spec.llc_ways,
        base_latency=spec.llc_base_latency,
        ddio_ways=spec.ddio_ways if ddio_ways is None else ddio_ways,
        policy=policy,
        cat=cat,
        seed=seed,
    )
    return CacheHierarchy(
        n_cores=spec.n_cores,
        llc=llc,
        l1_sets=spec.l1_sets,
        l1_ways=spec.l1_ways,
        l2_sets=spec.l2_sets,
        l2_ways=spec.l2_ways,
        latency=latency if latency is not None else spec.latency,
        inclusive=spec.inclusive,
        prefetchers=list(prefetchers) if prefetchers is not None else None,
        sanitize=sanitize,
    )
