"""Simulated hugepages and virtual→physical translation.

The paper's methodology (§2.2) is: ``mmap`` a buffer backed by a 1 GB
hugepage, then read ``/proc/self/pagemap`` to learn its physical
address; because a 1 GB hugepage is physically contiguous, virtual
offset arithmetic then gives the physical address of every byte.

Here the operating system is simulated: a :class:`PhysicalAddressSpace`
hands out physically contiguous hugepages (at configurable, slightly
randomised physical bases, as a real allocator would), and a
:class:`Pagemap` plays the role of ``/proc/self/pagemap``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.mem.address import PAGE_1G, PAGE_2M, PAGE_4K, align_up


class OutOfMemoryError(MemoryError):
    """Raised when the simulated physical address space is exhausted."""


@dataclass(frozen=True)
class HugepageBuffer:
    """A physically contiguous, hugepage-backed buffer.

    Attributes:
        virt: simulated virtual base address.
        phys: physical base address.
        size: buffer length in bytes.
        page_size: backing page size (4 KiB, 2 MiB or 1 GiB).
    """

    virt: int
    phys: int
    size: int
    page_size: int

    def virt_to_phys(self, virt_address: int) -> int:
        """Translate a virtual address inside this buffer to physical."""
        if not self.contains(virt_address):
            raise ValueError(
                f"virtual address {virt_address:#x} outside buffer "
                f"[{self.virt:#x}, {self.virt + self.size:#x})"
            )
        return self.phys + (virt_address - self.virt)

    def phys_to_virt(self, phys_address: int) -> int:
        """Translate a physical address inside this buffer to virtual."""
        if not (self.phys <= phys_address < self.phys + self.size):
            raise ValueError(
                f"physical address {phys_address:#x} outside buffer "
                f"[{self.phys:#x}, {self.phys + self.size:#x})"
            )
        return self.virt + (phys_address - self.phys)

    def contains(self, virt_address: int) -> bool:
        """Return whether *virt_address* lies inside this buffer."""
        return self.virt <= virt_address < self.virt + self.size


class PhysicalAddressSpace:
    """A simulated physical address space handing out hugepages.

    Pages are carved from a bump pointer; an optional deterministic RNG
    inserts gaps between allocations so that physical layouts are not
    accidentally "nice" (real hugepage physical addresses are arbitrary
    page-aligned values, and slice-aware code must not depend on them).

    Args:
        size: total physical bytes available (default 128 GiB, matching
            the paper's testbed RAM).
        base: physical address of the first usable byte.
        seed: seed for the gap-inserting RNG; ``None`` disables gaps so
            allocations are back-to-back.
    """

    def __init__(
        self,
        size: int = 128 * PAGE_1G,
        base: int = PAGE_1G,
        seed: Optional[int] = 0,
    ) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.size = size
        self.base = base
        self._cursor = base
        self._end = base + size
        self._rng = random.Random(seed) if seed is not None else None
        self._next_virt = 0x7F00_0000_0000  # arbitrary canonical user VA
        self.pagemap = Pagemap()

    def mmap_hugepage(self, size: int, page_size: int = PAGE_1G) -> HugepageBuffer:
        """Allocate a hugepage-backed buffer, as ``mmap(MAP_HUGETLB)`` would.

        The returned buffer is physically contiguous and *page_size*
        aligned, and is registered with the :class:`Pagemap` so it can
        be translated later.
        """
        if page_size not in (PAGE_4K, PAGE_2M, PAGE_1G):
            raise ValueError(f"unsupported page size {page_size}")
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        size = align_up(size, page_size)
        phys = align_up(self._cursor, page_size)
        if self._rng is not None:
            # Skip a random number of pages to scramble physical layout.
            phys += self._rng.randrange(0, 8) * page_size
        if phys + size > self._end:
            raise OutOfMemoryError(
                f"cannot allocate {size:#x} bytes: only "
                f"{self._end - self._cursor:#x} bytes left"
            )
        self._cursor = phys + size
        virt = self._next_virt
        self._next_virt = align_up(virt + size + page_size, page_size)
        buffer = HugepageBuffer(virt=virt, phys=phys, size=size, page_size=page_size)
        self.pagemap.register(buffer)
        return buffer

    def mmap_auto(self, size: int) -> HugepageBuffer:
        """Allocate with the smallest hugepage size that fits.

        Small regions use 2 MiB pages so simulated address space is
        not wasted on 1 GiB rounding; large regions use 1 GiB pages as
        the paper's buffers do.
        """
        page_size = PAGE_1G if size >= PAGE_1G // 4 else PAGE_2M
        return self.mmap_hugepage(size, page_size=page_size)


class Pagemap:
    """Simulated ``/proc/self/pagemap``: virtual→physical lookup.

    Real pagemap maps 4 KiB virtual pages to physical frame numbers;
    user code combines the frame number with the in-page offset.  The
    simulated version records whole buffers and performs the same
    arithmetic.
    """

    def __init__(self) -> None:
        self._buffers: List[HugepageBuffer] = []
        self._by_virt: Dict[int, HugepageBuffer] = {}

    def register(self, buffer: HugepageBuffer) -> None:
        """Record *buffer* as a mapped region."""
        self._buffers.append(buffer)
        self._by_virt[buffer.virt] = buffer

    def virt_to_phys(self, virt_address: int) -> int:
        """Translate any registered virtual address to physical.

        Raises:
            KeyError: if *virt_address* is not inside a mapped region
                (the real pagemap would report the page as not present).
        """
        buffer = self.find(virt_address)
        if buffer is None:
            raise KeyError(f"virtual address {virt_address:#x} is not mapped")
        return buffer.virt_to_phys(virt_address)

    def find(self, virt_address: int) -> Optional[HugepageBuffer]:
        """Return the buffer containing *virt_address*, or ``None``."""
        for buffer in self._buffers:
            if buffer.contains(virt_address):
                return buffer
        return None

    def __len__(self) -> int:
        return len(self._buffers)
