"""Cycle-level Intel cache-hierarchy simulator.

This package is the substrate that stands in for the paper's testbed
hardware (see DESIGN.md §2).  It models:

* set-associative caches with pluggable replacement (:mod:`cache`,
  :mod:`replacement`),
* a sliced LLC addressed by Intel's reverse-engineered Complex
  Addressing hash (:mod:`hashfn`, :mod:`llc`),
* NUCA access latency over a ring (Haswell) or mesh (Skylake)
  interconnect (:mod:`interconnect`),
* per-core L1/L2 plus shared LLC plus DRAM with full cycle accounting
  (:mod:`hierarchy`),
* CBo/CHA-style uncore performance counters (:mod:`counters`),
* Data Direct I/O — NIC DMA into a limited number of LLC ways
  (:mod:`ddio`),
* Cache Allocation Technology way masks (:mod:`cat`),
* L2 hardware prefetchers (:mod:`prefetch`), and
* ready-made machine models for the paper's two CPUs
  (:mod:`machines`).
"""

from repro.cachesim.cache import DictCache, WayCache
from repro.cachesim.cat import CatController
from repro.cachesim.counters import SliceCounters, UncoreCounters
from repro.cachesim.ddio import DdioEngine
from repro.cachesim.hashfn import (
    ComplexAddressingHash,
    ModularSliceHash,
    SliceHash,
    haswell_complex_hash,
)
from repro.cachesim.hierarchy import AccessResult, CacheHierarchy
from repro.cachesim.interconnect import (
    Interconnect,
    RingInterconnect,
)
from repro.cachesim.llc import SlicedLLC
from repro.cachesim.machines import (
    HASWELL_E5_2667V3,
    SKYLAKE_GOLD_6134,
    MachineSpec,
    build_hierarchy,
)

__all__ = [
    "AccessResult",
    "CacheHierarchy",
    "CatController",
    "ComplexAddressingHash",
    "DdioEngine",
    "DictCache",
    "HASWELL_E5_2667V3",
    "Interconnect",
    "MachineSpec",
    "ModularSliceHash",
    "RingInterconnect",
    "SKYLAKE_GOLD_6134",
    "SliceCounters",
    "SliceHash",
    "SlicedLLC",
    "UncoreCounters",
    "WayCache",
    "build_hierarchy",
    "haswell_complex_hash",
]
