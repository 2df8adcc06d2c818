"""Memory allocators: contiguous (normal) and slice-filtered.

*Normal* allocation is a bump allocator over a hugepage — what
``rte_malloc``/``malloc`` effectively give the paper's baseline.

*Slice-filtered* allocation is the mechanism behind slice-aware memory
management (§3): walk the hugepage's cache lines, keep only those whose
*physical* address hashes to the requested LLC slice(s), and hand out
buffers composed of those lines.  Because Complex Addressing remaps
roughly every 64 B, the result is inherently non-contiguous — callers
get a :class:`ScatteredBuffer` that presents a flat logical offset
space over scattered lines (the paper's KVS and micro-benchmarks do the
same with arrays of pointers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cachesim.hashfn import SliceHash
from repro.mem.address import CACHE_LINE, align_up
from repro.mem.hugepage import HugepageBuffer


class AllocationError(MemoryError):
    """Raised when an allocator cannot satisfy a request."""


class ContiguousAllocator:
    """Bump allocator over one physically contiguous buffer."""

    def __init__(self, buffer: HugepageBuffer) -> None:
        self.buffer = buffer
        self._cursor = buffer.virt

    @property
    def bytes_free(self) -> int:
        """Bytes still available."""
        return self.buffer.virt + self.buffer.size - self._cursor

    def allocate(self, size: int, align: int = CACHE_LINE) -> int:
        """Return the virtual address of a fresh *size*-byte region."""
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        start = align_up(self._cursor, align)
        if start + size > self.buffer.virt + self.buffer.size:
            raise AllocationError(
                f"contiguous allocator exhausted: need {size} bytes, "
                f"have {self.bytes_free}"
            )
        self._cursor = start + size
        return start

    def allocate_lines(self, n_lines: int) -> List[int]:
        """Allocate *n_lines* consecutive cache lines; return their addresses."""
        start = self.allocate(n_lines * CACHE_LINE, align=CACHE_LINE)
        return [start + i * CACHE_LINE for i in range(n_lines)]


@dataclass
class ScatteredBuffer:
    """A logical buffer made of non-contiguous cache lines.

    Logical byte offset ``o`` lives in line ``o // 64`` at in-line
    offset ``o % 64``; :meth:`address_of` performs that translation,
    which is what the paper's pointer-array benchmarks do in C.

    ``lines`` holds *physical* line addresses — the addresses the cache
    hierarchy hashes and caches (a real CPU translates virtual→physical
    in the TLB before the cache sees anything; the simulator has no TLB
    so buffers expose physical addresses directly).  The corresponding
    virtual addresses are kept in ``virt_lines`` for code that mimics
    the user-space view (e.g. pagemap round-trips).
    """

    lines: List[int]
    slice_indices: List[int]
    virt_lines: Optional[List[int]] = None

    def __post_init__(self) -> None:
        if len(self.lines) != len(self.slice_indices):
            raise ValueError("lines and slice_indices must have equal length")
        if self.virt_lines is not None and len(self.virt_lines) != len(self.lines):
            raise ValueError("virt_lines must match lines in length")

    @property
    def size(self) -> int:
        """Logical buffer size in bytes."""
        return len(self.lines) * CACHE_LINE

    @property
    def n_lines(self) -> int:
        """Number of cache lines backing the buffer."""
        return len(self.lines)

    def address_of(self, offset: int) -> int:
        """Physical address of logical byte *offset*."""
        if not 0 <= offset < self.size:
            raise IndexError(f"offset {offset} outside buffer of {self.size} bytes")
        return self.lines[offset // CACHE_LINE] + (offset % CACHE_LINE)

    def line_of(self, index: int) -> int:
        """Physical address of the *index*-th backing line."""
        return self.lines[index]

    def virt_line_of(self, index: int) -> int:  # simcheck: ignore[SIM501] probe
        """Virtual address of the *index*-th backing line."""
        if self.virt_lines is None:
            raise ValueError("buffer carries no virtual addresses")
        return self.virt_lines[index]


class SliceFilteredAllocator:
    """Hand out cache lines that map to chosen LLC slices.

    Args:
        buffer: hugepage to carve lines from.
        slice_hash: the machine's Complex Addressing hash (or a mapping
            recovered by the reverse-engineering tooling).

    The allocator indexes the hugepage lazily: lines are classified by
    slice on first demand, in address order, so allocation cost is
    proportional to the scanned span (the paper reports the same
    scan-the-hugepage approach).
    """

    def __init__(self, buffer: HugepageBuffer, slice_hash: SliceHash) -> None:
        self.buffer = buffer
        self.hash = slice_hash
        self._free: Dict[int, List[int]] = {s: [] for s in range(slice_hash.n_slices)}
        self._scan_cursor = buffer.virt
        self._end = buffer.virt + buffer.size

    @property
    def n_slices(self) -> int:
        """Number of LLC slices the hash distinguishes."""
        return self.hash.n_slices

    def slice_of_virt(self, virt_address: int) -> int:
        """Return the LLC slice of the line containing a virtual address."""
        phys = self.buffer.virt_to_phys(virt_address)
        return self.hash.slice_of(phys)

    #: Lines classified per vectorised scan chunk.
    _SCAN_CHUNK = 1 << 14

    def _scan(self, target: int, want: int) -> None:
        """Classify lines until *want* lines of *target* are free (or OOM).

        Uses the hash's vectorised path when available — classifying a
        1 GB hugepage line by line in Python would take minutes.
        """
        free = self._free
        vectorised = getattr(self.hash, "slice_of_array", None)
        while len(free[target]) < want and self._scan_cursor < self._end:
            if vectorised is not None:
                import numpy as np

                chunk = min(
                    self._SCAN_CHUNK,
                    (self._end - self._scan_cursor) // CACHE_LINE,
                )
                virts = self._scan_cursor + CACHE_LINE * np.arange(chunk, dtype=np.int64)
                self._scan_cursor += chunk * CACHE_LINE
                delta = self.buffer.phys - self.buffer.virt
                slices = vectorised(virts + delta)
                for slice_index in range(self.hash.n_slices):
                    free[slice_index].extend(
                        int(v) for v in virts[slices == slice_index]
                    )
            else:
                virt = self._scan_cursor
                self._scan_cursor += CACHE_LINE
                phys = self.buffer.phys + (virt - self.buffer.virt)
                free[self.hash.slice_of(phys)].append(virt)

    def allocate_lines(self, n_lines: int, slice_index: int) -> List[int]:
        """Allocate *n_lines* lines mapping to *slice_index*.

        Returns *physical* line addresses (use
        :meth:`allocate_virt_lines` for the user-space view).
        """
        delta = self.buffer.phys - self.buffer.virt
        return [virt + delta for virt in self.allocate_virt_lines(n_lines, slice_index)]

    def allocate_virt_lines(self, n_lines: int, slice_index: int) -> List[int]:
        """Allocate *n_lines* lines of *slice_index*; return virtual addresses."""
        if n_lines <= 0:
            raise ValueError(f"n_lines must be positive, got {n_lines}")
        if not 0 <= slice_index < self.n_slices:
            raise IndexError(
                f"slice {slice_index} out of range 0..{self.n_slices - 1}"
            )
        self._scan(slice_index, n_lines)
        free = self._free[slice_index]
        if len(free) < n_lines:
            raise AllocationError(
                f"hugepage exhausted: wanted {n_lines} lines of slice "
                f"{slice_index}, found {len(free)}"
            )
        taken = free[:n_lines]
        del free[:n_lines]
        return taken

    def allocate(
        self, size: int, slice_indices: Sequence[int]
    ) -> ScatteredBuffer:
        """Allocate *size* logical bytes spread over *slice_indices*.

        Lines are taken round-robin from the requested slices (a single
        slice gives pure slice-aware placement; multiple slices realise
        the "use multiple preferable slices" strategy of §8).
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if not slice_indices:
            raise ValueError("at least one slice index is required")
        n_lines = (size + CACHE_LINE - 1) // CACHE_LINE
        per_slice = [n_lines // len(slice_indices)] * len(slice_indices)
        for i in range(n_lines % len(slice_indices)):
            per_slice[i] += 1
        chunks = [
            self.allocate_virt_lines(count, s) if count else []
            for s, count in zip(slice_indices, per_slice)
        ]
        virt_lines: List[int] = []
        slices: List[int] = []
        for round_index in range(max(per_slice)):
            for chunk, s in zip(chunks, slice_indices):
                if round_index < len(chunk):
                    virt_lines.append(chunk[round_index])
                    slices.append(s)
        delta = self.buffer.phys - self.buffer.virt
        return ScatteredBuffer(
            lines=[virt + delta for virt in virt_lines],
            slice_indices=slices,
            virt_lines=virt_lines,
        )
