"""Slice-latency profiling — the paper's §2.2 methodology.

For a chosen core and target slice the procedure is exactly the
paper's:

1. pick twenty cache lines (the LLC's associativity) that share one
   set index in L1, L2 *and* the LLC slice — i.e. identical address
   bits 6–16 — and whose physical addresses hash to the target slice;
2. write to all twenty, then ``clflush`` everything to DRAM;
3. read all twenty — afterwards all twenty sit in the LLC set, but
   only the last eight survive in the 8-way L1/L2;
4. read the *first eight* again: they must be served by the LLC slice,
   so their cost is the core→slice access latency.

The measured numbers include one extra L1 hit per access for the
pointer-array dereference the paper notes ("the addresses of the cache
lines … are saved in an array of pointers"), so they land in the same
range as Fig. 5a rather than Intel's nominal 34 cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cachesim.hierarchy import CacheHierarchy
from repro.cachesim.interconnect import Interconnect
from repro.mem.address import CACHE_LINE
from repro.mem.hugepage import HugepageBuffer

#: Address bits that must collide for L1, L2 and LLC-slice set indexes
#: to match on the Haswell part (Table 1: index bits 16–6).
SET_COLLISION_BITS = 0x1FFC0  # bits 6..16 inclusive


@dataclass
class SliceLatencyProfile:
    """Measured per-slice access latencies from one core.

    ``fastest_slice`` is the slice with the lowest read latency and
    ``read_spread`` the max-minus-min read latency (the NUCA spread).
    """

    core: int
    read_cycles: List[float]
    write_cycles: List[float]
    fastest_slice: int = field(init=False)
    read_spread: float = field(init=False)

    def __post_init__(self) -> None:
        self.fastest_slice = min(
            range(self.n_slices), key=self.read_cycles.__getitem__
        )
        self.read_spread = max(self.read_cycles) - min(self.read_cycles)

    @property
    def n_slices(self) -> int:
        """Number of profiled slices."""
        return len(self.read_cycles)


def find_lines_with_bits(
    buffer: HugepageBuffer,
    collision_mask: int,
    set_bits_value: int,
    count: int,
) -> List[int]:
    """Find *count* physical line addresses in *buffer* with
    ``phys & collision_mask == set_bits_value`` (any slice)."""
    lines: List[int] = []
    phys = buffer.phys
    end = buffer.phys + buffer.size
    while phys < end and len(lines) < count:
        if (phys & collision_mask) == set_bits_value:
            lines.append(phys)
        phys += CACHE_LINE
    if len(lines) < count:
        raise LookupError(
            f"only {len(lines)} of {count} lines with bits "
            f"{set_bits_value:#x}/{collision_mask:#x} found"
        )
    return lines


def find_set_colliding_lines(
    buffer: HugepageBuffer,
    slice_of_phys,
    target_slice: int,
    count: int,
    collision_mask: int = SET_COLLISION_BITS,
    set_bits_value: int = 0,
) -> List[int]:
    """Find *count* physical line addresses in *buffer* that share set
    index bits (``collision_mask``) and map to *target_slice*.

    Args:
        buffer: hugepage to search.
        slice_of_phys: callable mapping a physical address to a slice.
        target_slice: required slice index.
        count: how many lines to return.
        collision_mask: address bits that must equal *set_bits_value*.
        set_bits_value: required value of the masked bits (line-aligned).

    Raises:
        LookupError: if the buffer does not contain enough such lines.
    """
    lines: List[int] = []
    phys = buffer.phys
    end = buffer.phys + buffer.size
    while phys < end and len(lines) < count:
        if (phys & collision_mask) == set_bits_value and slice_of_phys(phys) == target_slice:
            lines.append(phys)
        phys += CACHE_LINE
    if len(lines) < count:
        raise LookupError(
            f"only {len(lines)} of {count} colliding lines for slice "
            f"{target_slice} found in a {buffer.size >> 20} MiB buffer"
        )
    return lines


def measure_slice_latencies(
    hierarchy: CacheHierarchy,
    buffer: HugepageBuffer,
    pagemap,
    core: int = 0,
    runs: int = 10,
    pointer_chase_overhead: Optional[int] = None,
) -> SliceLatencyProfile:
    """Run the §2.2 experiment: per-slice read/write cycles from *core*.

    Args:
        hierarchy: machine under test.
        buffer: hugepage providing physically known lines.
        pagemap: virtual→physical translator for *buffer*.
        core: measuring core.
        runs: repetitions averaged per slice.
        pointer_chase_overhead: cycles added per access for the pointer
            array dereference; defaults to the machine's L1 latency.
    """
    llc = hierarchy.llc
    n_ways = llc.n_ways
    probe_ways = min(8, n_ways)  # paper reads the first 8 of 20 lines
    if pointer_chase_overhead is None:
        pointer_chase_overhead = hierarchy.latency.l1_hit
    read_cycles: List[float] = []
    write_cycles: List[float] = []
    # On a non-inclusive (victim) LLC, lines only enter the LLC when L2
    # evicts them, so after the priming reads we stream a conflict set
    # through the same L2 set (different LLC set: bit 16 high) to push
    # the probe lines out of L1/L2 and into the LLC (§6).
    conflict_lines: List[int] = []
    if not hierarchy.inclusive:
        l2_conflicts = hierarchy.l2s[core].n_ways + 1
        conflict_lines = find_lines_with_bits(
            buffer, SET_COLLISION_BITS, 1 << 16, l2_conflicts
        )
    for target_slice in range(llc.n_slices):
        lines = find_set_colliding_lines(
            buffer, llc.hash.slice_of, target_slice, count=n_ways
        )
        total_read = 0.0
        total_write = 0.0
        for _ in range(runs):
            # (2) write all lines, then flush the hierarchy.
            for phys in lines:
                hierarchy.write(core, phys)
            for phys in lines:
                hierarchy.clflush(phys)
            # (3) read all lines: populates the LLC set; only the tail
            # survives in the smaller L1/L2.
            for phys in lines:
                hierarchy.read(core, phys)
            for phys in conflict_lines:
                hierarchy.read(core, phys)
            # (4) timed: re-read the first lines — LLC hits.
            for phys in lines[:probe_ways]:
                total_read += hierarchy.read(core, phys) + pointer_chase_overhead
            # (5) timed writes after a flush — absorbed by the store
            # buffer, hence flat (Fig. 5b).
            for phys in lines:
                hierarchy.clflush(phys)
            for phys in lines[:probe_ways]:
                total_write += hierarchy.write(core, phys) + pointer_chase_overhead
        samples = runs * probe_ways
        read_cycles.append(total_read / samples)
        write_cycles.append(total_write / samples)
    return SliceLatencyProfile(core=core, read_cycles=read_cycles, write_cycles=write_cycles)


def derive_preference_table(
    interconnect: Interconnect,
) -> Dict[int, Tuple[int, Tuple[int, ...]]]:
    """Derive each core's primary and secondary slices (paper Table 4).

    Returns a mapping ``core -> (primary, secondaries)`` where the
    primary is the unique cheapest slice and the secondaries are every
    slice at the second-cheapest latency.
    """
    table: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
    for core in range(interconnect.n_cores):
        latencies = [
            (interconnect.latency(core, s), s) for s in range(interconnect.n_slices)
        ]
        latencies.sort()
        primary = latencies[0][1]
        second_latency = None
        secondaries: List[int] = []
        for latency, slice_index in latencies[1:]:
            if second_latency is None:
                second_latency = latency
            if latency == second_latency:
                secondaries.append(slice_index)
            else:
                break
        table[core] = (primary, tuple(secondaries))
    return table


def measure_all_cores(  # simcheck: ignore[SIM501] paper claim: all cores follow the same behaviour (§2.2)
    hierarchy: CacheHierarchy,
    buffer: HugepageBuffer,
    pagemap,
    runs: int = 3,
) -> List[SliceLatencyProfile]:
    """The full core x slice latency matrix.

    The paper notes "Results for all of the cores follow the same
    behavior" (§2.2); this runs the Fig. 5 measurement from every core
    so that claim is checkable rather than assumed.
    """
    return [
        measure_slice_latencies(hierarchy, buffer, pagemap, core=core, runs=runs)
        for core in range(hierarchy.n_cores)
    ]
