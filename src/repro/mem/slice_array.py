"""O(1)-addressable arrays of cache lines confined to one LLC slice.

With the published XOR hash, every aligned block of ``n_slices`` lines
contains exactly one line per slice, so the *k*-th slice-local line of
a region lives inside block *k* — no scanning or free lists needed.
This is the workhorse behind large slice-aware arrays (the KVS value
store, the Fig. 6/7 micro-benchmarks): the cost is an ``n_slices``-fold
larger physical address span, the "memory fragmentation" §7 mentions.

Which line of a block is the slice-local one is computed, not
searched: both hash families invert in closed form over their own
block grid (``block_offsets`` in :mod:`repro.cachesim.hashfn` — the
XOR hash by linearity, the modular hash by a modular inverse; the
recovered hash of :mod:`repro.core.reverse_engineering` inherits the
XOR inverse).  A hash without that inverse (a test double) or a window
off its grid falls back to probing each block line by line.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.cachesim.hashfn import SliceHash
from repro.mem.address import CACHE_LINE

#: Blocks resolved per closed-form call: bounds the numpy temporaries
#: of a first use, whatever the array's length.
_FILL_CHUNK = 1 << 16


class SliceLocalArray:
    """O(1)-addressable array of cache lines in one LLC slice.

    Args:
        base_phys: physical base, aligned to the block size.
        n_lines: number of slice-local lines (array capacity).
        slice_hash: the machine's hash.
        target_slice: slice every line must map to.
        block_lines: lines per block; both hash families place one
            line per slice in every aligned ``n_slices``-line block, so
            ``n_slices`` suffices for them; must be positive.  A
            block without a target-slice line raises LookupError on
            first use.
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
        if self.block_lines <= 0:
            raise ValueError(f"block_lines must be positive, got {self.block_lines}")
        self.block_bytes = self.block_lines * CACHE_LINE
        if base_phys % CACHE_LINE:
            raise ValueError(f"base {base_phys:#x} must be line-aligned")
        # Blocks must align with the hash's own block grid (anchored at
        # address 0 for both hash families): an unaligned window can
        # straddle two hash blocks and miss the target slice.
        remainder = base_phys % self.block_bytes
        self.base_phys = base_phys + (self.block_bytes - remainder if remainder else 0)
        self.n_lines = n_lines
        # Per-block line offsets, resolved on first use (a flat list,
        # not a dict — ~8 B/entry even for multi-million line arrays).
        self._offsets: Optional[List[int]] = None

    def line_address(self, index: int) -> int:
        """Physical address of the *index*-th slice-local line."""
        if not 0 <= index < self.n_lines:
            raise IndexError(f"index {index} outside array of {self.n_lines}")
        offsets = self._offsets
        if offsets is None:
            offsets = self._fill_offsets()
        return self.base_phys + index * self.block_bytes + offsets[index] * CACHE_LINE

    def line_addresses(self) -> np.ndarray:
        """Every line's physical address, as one ``uint64`` vector.

        Equal to ``[line_address(i) for i in range(n_lines)]``.
        """
        offsets = self._offsets
        if offsets is None:
            offsets = self._fill_offsets()
        block_bases = np.uint64(self.base_phys) + np.arange(
            self.n_lines, dtype=np.uint64
        ) * np.uint64(self.block_bytes)
        return block_bases + np.array(offsets, dtype=np.uint64) * np.uint64(CACHE_LINE)

    def _fill_offsets(self) -> List[int]:
        """Resolve every block's offset, on first use.

        Asks the hash's closed-form ``block_offsets`` one chunk of
        blocks at a time; where the hash has none, or declines this
        window, each block goes through :meth:`_probe`.  A block
        without a target-slice line raises :meth:`_probe`'s
        LookupError either way.
        """
        block_offsets = getattr(self.hash, "block_offsets", None)
        offsets: List[int] = []
        for start in range(0, self.n_lines, _FILL_CHUNK):
            count = min(_FILL_CHUNK, self.n_lines - start)
            base = self.base_phys + start * self.block_bytes
            chunk = (
                block_offsets(base, count, self.block_lines, self.target_slice)
                if block_offsets is not None
                else None
            )
            if chunk is None:
                offsets += [
                    self._probe(base + k * self.block_bytes) for k in range(count)
                ]
                continue
            missing = np.flatnonzero(chunk < 0)
            if missing.size:
                raise self._exhausted(base + int(missing[0]) * self.block_bytes)
            offsets += chunk.tolist()
        self._offsets = offsets
        return offsets

    def _probe(self, block_base: int) -> int:
        """First target-slice line of one block, by hashing each line."""
        slice_of = self.hash.slice_of
        for off in range(self.block_lines):
            if slice_of(block_base + off * CACHE_LINE) == self.target_slice:
                return off
        raise self._exhausted(block_base)

    def _exhausted(self, block_base: int) -> LookupError:
        return LookupError(
            f"no line of slice {self.target_slice} within "
            f"{self.block_lines} lines of {block_base:#x}"
        )
