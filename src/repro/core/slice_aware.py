"""Slice-aware memory management — the application-facing API (§3).

:class:`SliceAwareContext` bundles a machine model, a simulated
physical address space and the two allocators, and answers the two
questions an application has:

1. *Which slice should core ``c`` use?* — from the NUCA latency model
   (or a measured profile), via :meth:`preferred_slice`.
2. *Give me memory that lives there* — via :meth:`allocate_slice_aware`
   (scattered lines filtered by the Complex Addressing hash) or
   :meth:`allocate_normal` (the contiguous baseline).

Both allocation flavours return objects with the same tiny interface
(``address_of``/``line_of``/``n_lines``/``size``) so benchmark code is
placement-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cachesim.hierarchy import CacheHierarchy
from repro.cachesim.interconnect import preferred_slices
from repro.cachesim.machines import MachineSpec, build_hierarchy
from repro.mem.address import CACHE_LINE, PAGE_1G
from repro.mem.allocator import (
    ContiguousAllocator,
    ScatteredBuffer,
    SliceFilteredAllocator,
)
from repro.mem.hugepage import HugepageBuffer, PhysicalAddressSpace


@dataclass
class LinearBuffer:
    """A contiguous buffer exposing the :class:`ScatteredBuffer` interface.

    ``base`` is the *physical* base address (the address the cache
    hierarchy sees); ``virt_base`` is the user-space view.
    """

    base: int
    size: int
    virt_base: Optional[int] = None

    @property
    def n_lines(self) -> int:
        """Number of cache lines the buffer spans (base is line-aligned)."""
        return (self.size + CACHE_LINE - 1) // CACHE_LINE

    def address_of(self, offset: int) -> int:
        """Virtual address of logical byte *offset*."""
        if not 0 <= offset < self.size:
            raise IndexError(f"offset {offset} outside buffer of {self.size} bytes")
        return self.base + offset

    def line_of(self, index: int) -> int:
        """Virtual address of the *index*-th cache line."""
        if not 0 <= index < self.n_lines:
            raise IndexError(f"line {index} outside buffer of {self.n_lines} lines")
        return self.base + index * CACHE_LINE


class SliceAwareContext:
    """Everything an application needs for slice-aware placement.

    Args:
        spec: machine model to simulate.
        hierarchy: optionally, a pre-built hierarchy (e.g. with CAT or
            custom latencies); built from *spec* when omitted.
        hugepage_bytes: size of the backing hugepage pool.
        seed: physical-layout scrambling seed.
    """

    def __init__(
        self,
        spec: MachineSpec,
        hierarchy: Optional[CacheHierarchy] = None,
        hugepage_bytes: int = 2 * PAGE_1G,
        seed: int = 0,
        placement_hash=None,
    ) -> None:
        self.spec = spec
        self.hierarchy = hierarchy if hierarchy is not None else build_hierarchy(spec, seed=seed)
        self.address_space = PhysicalAddressSpace(
            size=max(8 * hugepage_bytes, 64 * PAGE_1G), seed=seed
        )
        self.hugepage: HugepageBuffer = self.address_space.mmap_hugepage(hugepage_bytes)
        # The hash used for *placement decisions*.  By default this is
        # the machine's true hash; deployments that reverse-engineered
        # the mapping pass their recovered predictor instead (see
        # :meth:`with_recovered_hash`), and any disagreement with the
        # hardware shows up as mis-placed lines — exactly as it would
        # on a real machine.
        self.hash = placement_hash if placement_hash is not None else self.hierarchy.llc.hash
        self._contiguous = ContiguousAllocator(self.hugepage)
        self._filtered = SliceFilteredAllocator(self.hugepage, self.hash)

    @classmethod
    def with_recovered_hash(  # simcheck: ignore[SIM501] paper claim: placement on the recovered hash (§2.2)
        cls,
        spec: MachineSpec,
        seed: int = 0,
        hugepage_bytes: int = 2 * PAGE_1G,
        polls: int = 2,
    ) -> "SliceAwareContext":
        """Build a context whose placement uses a hash recovered by
        CBo-counter polling — the full real-hardware deployment flow
        (§2.1 then §3), with no ground-truth shortcut.

        Only defined for machines with XOR-linear (power-of-two slice)
        hashes, like the paper's Haswell part.
        """
        from repro.core.reverse_engineering import (
            MultiPageOracle,
            recover_complex_hash,
        )
        from repro.mem.address import is_power_of_two

        if not is_power_of_two(spec.n_slices):
            raise ValueError(
                f"{spec.name} has {spec.n_slices} slices; XOR recovery "
                "requires a power-of-two slice count"
            )
        hierarchy = build_hierarchy(spec, seed=seed)
        # Recovering the full hash (bits up to 34) requires probe
        # addresses whose single-bit toggles stay in owned memory: a
        # contiguous run of 1 GB hugepages covering 32 GB (seed=None
        # makes the simulated allocator back-to-back, as a freshly
        # booted machine's hugepage pool is).
        space = PhysicalAddressSpace(size=max(8 * hugepage_bytes, 64 * PAGE_1G), seed=None)
        probe_pages = [space.mmap_hugepage(PAGE_1G) for _ in range(32)]
        oracle = MultiPageOracle(hierarchy, probe_pages, core=0, polls=polls)
        # Bases sit in the middle page of the run so that every
        # single-bit toggle (including bits 30-34) lands in an owned
        # sibling page.
        middle = probe_pages[len(probe_pages) // 2].phys
        recovered = recover_complex_hash(
            oracle,
            n_slices=spec.n_slices,
            base_addresses=[middle + off for off in (0x40, 0x333000, 0x1F000000)],
            address_bits=range(6, 35),
            max_address=probe_pages[-1].phys + probe_pages[-1].size,
        )
        return cls(
            spec,
            hierarchy=hierarchy,
            hugepage_bytes=hugepage_bytes,
            seed=seed + 1,
            placement_hash=recovered,
        )

    # ------------------------------------------------------------------
    # Placement policy
    # ------------------------------------------------------------------

    def preferred_slice(self, core: int) -> int:
        """The slice with the lowest access latency from *core*."""
        return self.preferred_slices(core)[0]

    def preferred_slices(self, core: int, count: Optional[int] = None) -> List[int]:
        """Slices sorted cheapest-first from *core* (optionally top *count*)."""
        order = preferred_slices(self.hierarchy.llc.interconnect, core)
        return order if count is None else order[:count]

    def slice_of_virt(self, virt_address: int) -> int:  # simcheck: ignore[SIM501] probe
        """LLC slice of the line holding a virtual address."""
        return self._filtered.slice_of_virt(virt_address)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate_normal(self, size: int) -> LinearBuffer:
        """Contiguous allocation — the paper's baseline placement."""
        virt = self._contiguous.allocate(size, align=CACHE_LINE)
        return LinearBuffer(
            base=self.hugepage.virt_to_phys(virt), size=size, virt_base=virt
        )

    def allocate_slice_aware(
        self,
        size: int,
        core: Optional[int] = None,
        slice_indices: Optional[Sequence[int]] = None,
    ) -> ScatteredBuffer:
        """Allocate *size* bytes mapped to chosen slices.

        Exactly one of *core* (use its preferred slice) or
        *slice_indices* (explicit placement) must be given.
        """
        if (core is None) == (slice_indices is None):
            raise ValueError("pass exactly one of core or slice_indices")
        if slice_indices is None:
            assert core is not None
            slice_indices = [self.preferred_slice(core)]
        return self._filtered.allocate(size, slice_indices)

    def allocate_lines(self, n_lines: int, slice_index: int) -> List[int]:  # simcheck: ignore[SIM501] e2ebench
        """Allocate raw cache lines mapping to *slice_index*."""
        return self._filtered.allocate_lines(n_lines, slice_index)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    @property
    def contiguous_allocator(self) -> ContiguousAllocator:
        """The underlying bump allocator (for substrates like DPDK
        pools that place their own structures)."""
        return self._contiguous

    def virt_to_phys(self, virt_address: int) -> int:
        """Translate a context-owned virtual address to physical."""
        return self.address_space.pagemap.virt_to_phys(virt_address)

    def __repr__(self) -> str:
        return f"SliceAwareContext(spec={self.spec.name!r})"
