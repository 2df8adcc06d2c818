"""Intel LLC Complex Addressing hash functions.

The slice a physical address maps to is ``h(PA)`` for an undocumented
hash ``h``.  For CPUs with ``2**n`` cores, Maurice et al. (RAID '15)
showed — and the paper verified for its Xeon E5-2667 v3 (Fig. 4) —
that each output bit of ``h`` is the XOR (parity) of a fixed subset of
physical address bits.  :class:`ComplexAddressingHash` implements that
family; :data:`HASWELL_MASKS_8_SLICE` is the published 8-slice function.

Skylake-SP parts have a non-power-of-two slice count (the paper's Xeon
Gold 6134 exposes 18 slices for 8 cores) and their hash has not been
published; :class:`ModularSliceHash` is our documented substitution — a
deterministic, uniform, line-granularity mixer reduced modulo the slice
count.  It preserves the properties the paper relies on: stable mapping,
64 B granularity, and near-uniform distribution across slices.

Both families also invert in closed form over their own block grid:
``block_offsets`` gives, for a run of aligned blocks, the first line
of each that maps to a given slice.  The XOR hash inverts by linearity
(exact for power-of-two blocks aligned to their size), the modular
hash by the modular inverse of its per-block multiplier (exact for
blocks made of whole ``n_slices``-line hash blocks).  Off that grid
``block_offsets`` returns None and callers probe line by line, as
they must for any hash that has no ``block_offsets`` at all.

``slice_of_array`` returns ``uint8`` slice indices, so both families
reject more than :data:`MAX_SLICES` slices at construction rather than
wrap past 255 (no shipped machine has more than 18).
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence, Tuple

from repro.mem.address import CACHE_LINE_BITS, parity


def _mask_from_bits(bits: Sequence[int]) -> int:
    """Build an integer mask with the given bit positions set."""
    mask = 0
    for position in bits:
        if position < 0:
            raise ValueError(f"bit positions must be non-negative, got {position}")
        mask |= 1 << position
    return mask


#: Address bits feeding each slice-select output bit, as reverse
#: engineered by Maurice et al. and confirmed by the paper (Fig. 4).
#: ``o0`` applies to all >=2-slice parts, ``o0..o1`` to 4-slice parts,
#: ``o0..o2`` to 8-slice parts such as the Xeon E5-2667 v3.
O0_BITS: Tuple[int, ...] = (6, 10, 12, 14, 16, 17, 18, 20, 22, 24, 25, 26, 27, 28, 30, 32, 33)
O1_BITS: Tuple[int, ...] = (7, 11, 13, 15, 17, 19, 20, 21, 22, 23, 24, 26, 28, 29, 31, 33, 34)
O2_BITS: Tuple[int, ...] = (8, 12, 16, 18, 19, 22, 23, 25, 26, 27, 30, 31)

#: Slice indices travel as ``uint8`` through every vectorised path.
MAX_SLICES = 256

HASWELL_MASKS_2_SLICE: Tuple[int, ...] = (_mask_from_bits(O0_BITS),)
HASWELL_MASKS_4_SLICE: Tuple[int, ...] = (
    _mask_from_bits(O0_BITS),
    _mask_from_bits(O1_BITS),
)
HASWELL_MASKS_8_SLICE: Tuple[int, ...] = (
    _mask_from_bits(O0_BITS),
    _mask_from_bits(O1_BITS),
    _mask_from_bits(O2_BITS),
)


class SliceHash(Protocol):
    """Anything that maps a physical address to an LLC slice index."""

    n_slices: int

    def slice_of(self, phys_address: int) -> int:
        """Return the slice index for *phys_address*."""


class ComplexAddressingHash:
    """XOR-of-address-bits slice hash for ``2**k``-slice CPUs.

    Args:
        masks: one mask per output bit; output bit *i* is the parity of
            ``phys_address & masks[i]``.  ``masks[0]`` is the LSB of the
            slice index.
    """

    def __init__(self, masks: Sequence[int]) -> None:
        if not masks:
            raise ValueError("at least one mask is required")
        if 1 << len(masks) > MAX_SLICES:
            raise ValueError(
                f"{len(masks)} masks give {1 << len(masks)} slices; "
                f"at most {MAX_SLICES} are supported"
            )
        self.masks: Tuple[int, ...] = tuple(masks)
        self.n_slices = 1 << len(self.masks)

    def slice_of(self, phys_address: int) -> int:
        """Return the slice index of the line containing *phys_address*."""
        index = 0
        for position, mask in enumerate(self.masks):
            index |= parity(phys_address & mask) << position
        return index

    def slice_of_array(self, phys_addresses) -> "numpy.ndarray":
        """Vectorised :meth:`slice_of` over a numpy array of addresses.

        Used by allocator scans classifying millions of lines; each
        output bit is the low bit of a per-element popcount.
        """
        import numpy as np

        addresses = np.asarray(phys_addresses, dtype=np.uint64)
        out = np.zeros(addresses.shape, dtype=np.uint8)
        for position, mask in enumerate(self.masks):
            bit = np.bitwise_count(addresses & np.uint64(mask)) & np.uint8(1)
            out |= bit << np.uint8(position)
        return out

    def block_offsets(
        self, base: int, n_blocks: int, block_lines: int, target: int
    ) -> "Optional[numpy.ndarray]":
        """First line of slice *target* in each of *n_blocks* blocks.

        The blocks are ``block_lines`` lines each, back to back from
        *base*.  Entry *k* is the offset (in lines) of block *k*'s
        first *target* line, or ``-1`` where the block has none.

        Closed form by linearity over GF(2): a base aligned to
        ``2**k`` lines has zero low line bits, so ``slice(base + 64j)
        = slice(base) ^ slice(64j)`` for ``j < 2**k``, and one table of
        each ``slice(64j)``'s first ``j`` maps ``slice(base) ^ target``
        to the offset.  For the published 2/4/8-slice masks the low
        bits' matrix is the identity, so ``j = slice(base) ^ target``.
        Exact only on that grid: returns None (probe the blocks
        instead) when *block_lines* is not a power of two, *base* is
        not aligned to it, or *target* is not a slice.
        """
        import numpy as np

        block_bytes = block_lines << CACHE_LINE_BITS
        if (
            block_lines & (block_lines - 1)
            or base % block_bytes
            or not 0 <= target < self.n_slices
        ):
            return None
        low = self.slice_of_array(
            np.arange(block_lines, dtype=np.uint64) << np.uint64(CACHE_LINE_BITS)
        )
        first = np.full(self.n_slices, -1, dtype=np.int64)
        slices, at = np.unique(low, return_index=True)
        first[slices] = at
        bases = np.uint64(base) + np.arange(n_blocks, dtype=np.uint64) * np.uint64(
            block_bytes
        )
        return first[self.slice_of_array(bases) ^ np.uint8(target)]

    def output_bit(self, phys_address: int, position: int) -> int:  # simcheck: ignore[SIM501] oracle for slice_of
        """Return one output bit of the hash (used by the RE tooling)."""
        return parity(phys_address & self.masks[position])

    def uses_bit(self, address_bit: int) -> bool:  # simcheck: ignore[SIM501] probe
        """Return whether any output consumes the given address bit."""
        probe = 1 << address_bit
        return any(mask & probe for mask in self.masks)

    def __repr__(self) -> str:
        masks = ", ".join(f"{mask:#x}" for mask in self.masks)
        return f"ComplexAddressingHash([{masks}])"


class ModularSliceHash:
    """Block-balanced line-granularity hash for any slice count.

    Substitution for the unpublished Skylake-SP hash (DESIGN.md §2).
    Every aligned block of ``n_slices`` consecutive lines is assigned a
    pseudorandom *permutation* of the slice indices (an affine map
    ``a*i + b mod n`` with per-block coefficients drawn from a
    SplitMix64 mix).  This preserves the two properties the paper's
    techniques rely on, both of which the published XOR hash provably
    has:

    * adjacent lines map to different slices (so dynamic headroom can
      always reach any slice within ``n_slices`` lines), and
    * slice-filtered allocations are *balanced*: exactly one line per
      slice per block, so slice-local arrays load cache sets evenly
      instead of with Poisson variance.
    """

    _MASK64 = (1 << 64) - 1

    def __init__(self, n_slices: int, seed: int = 0x9E3779B97F4A7C15) -> None:
        if not 0 < n_slices <= MAX_SLICES:
            raise ValueError(
                f"n_slices must be in 1..{MAX_SLICES}, got {n_slices}"
            )
        self.n_slices = n_slices
        self.seed = seed
        self._coprimes = [
            a for a in range(1, max(2, n_slices)) if _gcd(a, n_slices) == 1
        ] or [1]
        self._inverses = [pow(a, -1, n_slices) for a in self._coprimes]

    def _mix(self, block: int) -> int:
        z = (block + self.seed) & self._MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK64
        return (z ^ (z >> 31)) & self._MASK64

    def slice_of(self, phys_address: int) -> int:
        """Return the slice index of the line containing *phys_address*."""
        line = phys_address >> CACHE_LINE_BITS
        block, index = divmod(line, self.n_slices)
        r = self._mix(block)
        coprimes = self._coprimes
        a = coprimes[r % len(coprimes)]
        b = (r >> 16) % self.n_slices
        return (a * index + b) % self.n_slices

    def _coefficients(self, blocks) -> "Tuple[numpy.ndarray, numpy.ndarray]":
        """Vectorised per-block ``(index into _coprimes, b)``."""
        import numpy as np

        with np.errstate(over="ignore"):
            z = blocks + np.uint64(self.seed & self._MASK64)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z ^= z >> np.uint64(31)
        choice = (z % np.uint64(len(self._coprimes))).astype(np.int64)
        return choice, (z >> np.uint64(16)) % np.uint64(self.n_slices)

    def slice_of_array(self, phys_addresses) -> "numpy.ndarray":
        """Vectorised :meth:`slice_of` over a numpy array of addresses."""
        import numpy as np

        addresses = np.asarray(phys_addresses, dtype=np.uint64)
        lines = addresses >> np.uint64(CACHE_LINE_BITS)
        n = np.uint64(self.n_slices)
        choice, b = self._coefficients(lines // n)
        a = np.array(self._coprimes, dtype=np.uint64)[choice]
        return ((a * (lines % n) + b) % n).astype(np.uint8)

    def block_offsets(
        self, base: int, n_blocks: int, block_lines: int, target: int
    ) -> "Optional[numpy.ndarray]":
        """First line of slice *target* in each of *n_blocks* blocks.

        The blocks are ``block_lines`` lines each, back to back from
        *base*; entry *k* is block *k*'s offset (in lines).  Closed
        form: a hash block's permutation ``a*i + b mod n`` inverts to
        ``i = (target - b) * a^-1 mod n``, and a window made of whole
        hash blocks holds its first *target* line in its first hash
        block.  Exact only on that grid: returns None (probe the
        blocks instead) when *block_lines* is not a multiple of
        ``n_slices``, *base* is not aligned to ``n_slices`` lines, or
        *target* is not a slice.
        """
        import numpy as np

        n = self.n_slices
        if (
            block_lines % n
            or base % (n << CACHE_LINE_BITS)
            or not 0 <= target < n
        ):
            return None
        blocks = np.uint64((base >> CACHE_LINE_BITS) // n) + np.arange(
            n_blocks, dtype=np.uint64
        ) * np.uint64(block_lines // n)
        choice, b = self._coefficients(blocks)
        a_inverse = np.array(self._inverses, dtype=np.uint64)[choice]
        offsets = (np.uint64(target + n) - b) * a_inverse % np.uint64(n)
        return offsets.astype(np.int64)

    def __repr__(self) -> str:
        return f"ModularSliceHash(n_slices={self.n_slices}, seed={self.seed:#x})"


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def haswell_complex_hash(n_slices: int = 8) -> ComplexAddressingHash:
    """Return the published Complex Addressing hash for 2/4/8 slices."""
    table = {
        2: HASWELL_MASKS_2_SLICE,
        4: HASWELL_MASKS_4_SLICE,
        8: HASWELL_MASKS_8_SLICE,
    }
    if n_slices not in table:
        raise ValueError(
            f"published XOR masks exist only for 2, 4 or 8 slices, got {n_slices}"
        )
    return ComplexAddressingHash(table[n_slices])
