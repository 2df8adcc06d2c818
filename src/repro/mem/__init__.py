"""Simulated physical memory management substrate.

The paper's slice-aware memory management operates on *physical*
addresses: the Complex Addressing hash consumes physical address bits,
and allocation is done out of 1 GB hugepages whose physical layout is
discovered via ``/proc/self/pagemap``.  Python cannot observe or choose
physical addresses, so this package provides a deterministic simulated
physical address space with the same moving parts:

* :mod:`repro.mem.address` — cache-line/page geometry helpers,
* :mod:`repro.mem.hugepage` — hugepage-backed buffers plus a pagemap
  that translates simulated virtual addresses to physical ones,
* :mod:`repro.mem.allocator` — a contiguous (normal) allocator and the
  slice-filtered allocator used by slice-aware memory management.
"""

from repro.mem.address import (
    CACHE_LINE,
    align_up,
    iter_lines,
    line_address,
    line_index,
)
from repro.mem.allocator import (
    AllocationError,
    ContiguousAllocator,
    SliceFilteredAllocator,
)
from repro.mem.hugepage import HugepageBuffer, Pagemap, PhysicalAddressSpace

__all__ = [
    "CACHE_LINE",
    "AllocationError",
    "ContiguousAllocator",
    "HugepageBuffer",
    "Pagemap",
    "PhysicalAddressSpace",
    "SliceFilteredAllocator",
    "align_up",
    "iter_lines",
    "line_address",
    "line_index",
]
