"""O(1)-addressable arrays of cache lines confined to one LLC slice.

With the published XOR hash, every aligned block of ``n_slices`` lines
contains exactly one line per slice, so the *k*-th slice-local line of
a region lives inside block *k* — no scanning or free lists needed.
This is the workhorse behind large slice-aware arrays (the KVS value
store, the Fig. 6/7 micro-benchmarks): the cost is an ``n_slices``-fold
larger physical address span, the "memory fragmentation" §7 mentions.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.cachesim.hashfn import SliceHash
from repro.mem.address import CACHE_LINE


class SliceLocalArray:
    """O(1)-addressable array of cache lines in one LLC slice.

    Args:
        base_phys: physical base, aligned to the block size.
        n_lines: number of slice-local lines (array capacity).
        slice_hash: the machine's hash.
        target_slice: slice every line must map to.
        block_lines: lines per search block; with the XOR hash the
            target always appears within ``n_slices`` lines, other
            hashes may need more (a LookupError reports exhaustion).
    """

    def __init__(
        self,
        base_phys: int,
        n_lines: int,
        slice_hash: SliceHash,
        target_slice: int,
        block_lines: Optional[int] = None,
    ) -> None:
        if n_lines <= 0:
            raise ValueError(f"n_lines must be positive, got {n_lines}")
        self.hash = slice_hash
        self.target_slice = target_slice
        self.block_lines = (
            block_lines if block_lines is not None else 2 * slice_hash.n_slices
        )
        self.block_bytes = self.block_lines * CACHE_LINE
        if base_phys % CACHE_LINE:
            raise ValueError(f"base {base_phys:#x} must be line-aligned")
        # Blocks must align with the hash's own block grid (anchored at
        # address 0 for both hash families): an unaligned probe window
        # can straddle two hash blocks and miss the target slice.
        remainder = base_phys % self.block_bytes
        self.base_phys = base_phys + (self.block_bytes - remainder if remainder else 0)
        self.n_lines = n_lines
        # Per-index probe offsets, built lazily in one vectorised pass
        # (a flat list, not a dict — ~8 B/entry even for multi-million
        # line arrays).  ``None`` marks blocks the vector pass could
        # not resolve; they fall back to the scalar probe.
        self._offsets: Optional[List[Optional[int]]] = None

    @property
    def span_bytes(self) -> int:
        """Physical address span the array occupies."""
        return self.n_lines * self.block_bytes

    def line_address(self, index: int) -> int:
        """Physical address of the *index*-th slice-local line."""
        if not 0 <= index < self.n_lines:
            raise IndexError(f"index {index} outside array of {self.n_lines}")
        offsets = self._offsets
        if offsets is None:
            offsets = self._fill_offsets()
        offset = offsets[index]
        block_base = self.base_phys + index * self.block_bytes
        if offset is None:
            offset = self._probe(block_base)
            offsets[index] = offset
        return block_base + offset * CACHE_LINE

    def line_addresses(self) -> np.ndarray:
        """Every line's physical address, as one ``uint64`` vector.

        Equal to ``[line_address(i) for i in range(n_lines)]``, built
        from the vectorised probe offsets; blocks that pass left
        unresolved go through :meth:`line_address` one at a time.
        """
        offsets = self._offsets
        if offsets is None:
            offsets = self._fill_offsets()
        if None in offsets:
            for index, offset in enumerate(offsets):
                if offset is None:
                    self.line_address(index)
        block_bases = np.uint64(self.base_phys) + np.arange(
            self.n_lines, dtype=np.uint64
        ) * np.uint64(self.block_bytes)
        return block_bases + np.array(offsets, dtype=np.uint64) * np.uint64(CACHE_LINE)

    def _fill_offsets(self) -> List[Optional[int]]:
        """Probe every block in one vectorised pass over the hash.

        Replaces up to ``n_lines * block_lines`` scalar ``slice_of``
        calls with chunked ``slice_of_array`` sweeps on first use;
        blocks missing the target slice are left to the scalar path so
        :meth:`_probe` still raises its diagnostic LookupError.
        """
        offsets: List[Optional[int]] = [None] * self.n_lines
        self._offsets = offsets
        slice_of_array = getattr(self.hash, "slice_of_array", None)
        if slice_of_array is None:
            return offsets
        block_lines = self.block_lines
        line_offsets = np.arange(block_lines, dtype=np.uint64) * np.uint64(CACHE_LINE)
        chunk = max(1, (1 << 21) // block_lines)
        for start in range(0, self.n_lines, chunk):
            count = min(chunk, self.n_lines - start)
            bases = (
                np.uint64(self.base_phys)
                + np.arange(start, start + count, dtype=np.uint64)
                * np.uint64(self.block_bytes)
            )
            slices = slice_of_array(bases[:, None] + line_offsets[None, :])
            matches = slices == self.target_slice
            found = matches.any(axis=1)
            offs = matches.argmax(axis=1).tolist()
            if found.all():
                offsets[start : start + count] = offs
            else:
                for i, ok in enumerate(found.tolist()):
                    if ok:
                        offsets[start + i] = offs[i]
        return offsets

    def _probe(self, block_base: int) -> int:
        slice_of = self.hash.slice_of
        for off in range(self.block_lines):
            if slice_of(block_base + off * CACHE_LINE) == self.target_slice:
                return off
        raise LookupError(
            f"no line of slice {self.target_slice} within "
            f"{self.block_lines} lines of {block_base:#x}"
        )
