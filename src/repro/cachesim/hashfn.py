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

Per-line callers (the fast engine's write-back drains and op replay)
use ``fast_slice_of``, an exact scalar form of ``slice_of`` each
family provides, and DMA spans ``fast_span_slices(first, n_lines)``,
the slices of consecutive lines as ``bytes``.  The XOR hash is linear,
so it splits the masked address bits into two or more chunks and XORs
one small lookup table per chunk; the tables are built once per mask
tuple and shared by every hash with those masks.  A span inside one
low-chunk table run is then a slice of that table translated by the
high chunk's entry.  The modular hash caches each block's permutation
row (one of the ``n_slices * phi(n_slices)`` affine ones, all built
once per hash), so a line costs one dict probe instead of the
SplitMix64 mix and a span joins row slices.

``slice_of_array`` returns ``uint8`` slice indices, so both families
reject more than :data:`MAX_SLICES` slices at construction rather than
wrap past 255 (no shipped machine has more than 18).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional, Protocol, Sequence, Tuple

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

#: Widest address chunk one XOR lookup table covers (a 64 KiB table).
_XOR_CHUNK_BITS = 16


#: The scalar and the span form of one hash (see the module docstring).
_SliceForms = Tuple[Callable[[int], int], Callable[[int, int], bytes]]


def _span_by_lines(slice_of: Callable[[int], int]) -> Callable[[int, int], bytes]:
    """Span form that asks *slice_of* line by line."""

    def span_slices(first: int, n_lines: int) -> bytes:
        return bytes(slice_of(first + (k << CACHE_LINE_BITS)) for k in range(n_lines))

    return span_slices


@lru_cache(maxsize=8)
def _xor_forms(masks: Tuple[int, ...]) -> _SliceForms:
    """Table-driven ``ComplexAddressingHash(masks).slice_of``, and its
    span form.

    The masked bits ``lo..hi`` split into the fewest chunks of at most
    :data:`_XOR_CHUNK_BITS` bits; chunk *k*'s table maps each value
    ``v`` of its bits to the slice of ``v << shift``, and by linearity
    the slice of an address is the XOR of its chunks' entries.  Bits
    outside ``lo..hi`` feed no mask, so the chunk masks drop them.
    """
    union = 0
    for mask in masks:
        union |= mask
    if not union:
        return (lambda phys_address: 0), (lambda first, n_lines: bytes(n_lines))
    lo = (union & -union).bit_length() - 1
    hi = union.bit_length()
    n_chunks = -(-(hi - lo) // _XOR_CHUNK_BITS)
    width = -(-(hi - lo) // n_chunks)
    chunks = []
    for shift in range(lo, hi, width):
        bits = min(width, hi - shift)
        # Doubling by linearity: the values with bit i set are the
        # values below 2**i XOR the slice of bit i alone (one byte
        # translation, as slice indices fit a byte).
        table = bytearray(1)
        for i in range(bits):
            probe = 1 << (shift + i)
            unit = 0
            for position, mask in enumerate(masks):
                unit |= parity(probe & mask) << position
            table += table.translate(bytes(x ^ unit for x in range(256)))
        chunks.append((shift, (1 << bits) - 1, bytes(table)))
    if len(chunks) == 1:
        ((s0, m0, t0),) = chunks

        def slice_of(phys_address: int) -> int:
            return t0[(phys_address >> s0) & m0]
    elif len(chunks) == 2:
        (s0, m0, t0), (s1, m1, t1) = chunks

        def slice_of(phys_address: int) -> int:
            return t0[(phys_address >> s0) & m0] ^ t1[(phys_address >> s1) & m1]
    else:
        frozen = tuple(chunks)

        def slice_of(phys_address: int) -> int:
            index = 0
            for shift, mask, table in frozen:
                index ^= table[(phys_address >> shift) & mask]
            return index

    by_lines = _span_by_lines(slice_of)
    if len(chunks) != 2 or s0 != CACHE_LINE_BITS:
        return slice_of, by_lines
    # Consecutive lines step the low chunk by one; while it does not
    # wrap, the high chunk (the bits right above it) stays put.
    flips = [bytes(x ^ h for x in range(256)) for h in range(1 << len(masks))]

    def span_slices(first: int, n_lines: int) -> bytes:
        i0 = (first >> s0) & m0
        if i0 + n_lines > m0 + 1:
            return by_lines(first, n_lines)
        return t0[i0:i0 + n_lines].translate(flips[t1[(first >> s1) & m1]])

    return slice_of, span_slices


class SliceHash(Protocol):
    """Anything that maps a physical address to an LLC slice index."""

    n_slices: int

    def slice_of(self, phys_address: int) -> int:
        """Return the slice index for *phys_address*."""


def scalar_slice_of(slice_hash: SliceHash) -> Callable[[int], int]:
    """The hash's exact fast scalar form, else its ``slice_of``."""
    fast = getattr(slice_hash, "fast_slice_of", None)
    return fast if fast is not None else slice_hash.slice_of


def span_slices_of(slice_hash: SliceHash) -> Callable[[int, int], bytes]:
    """The hash's exact span form, else ``slice_of`` line by line."""
    fast = getattr(slice_hash, "fast_span_slices", None)
    return fast if fast is not None else _span_by_lines(slice_hash.slice_of)


class _FastForms:
    """Sets ``fast_slice_of`` and ``fast_span_slices`` (closures, built
    by ``_fast_forms``), keeps them out of pickles and copies, and
    rebuilds them on the way back in."""

    fast_slice_of: Callable[[int], int]
    fast_span_slices: Callable[[int, int], bytes]

    def _fast_forms(self) -> _SliceForms:
        raise NotImplementedError

    def _set_fast_forms(self) -> None:
        self.fast_slice_of, self.fast_span_slices = self._fast_forms()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["fast_slice_of"], state["fast_span_slices"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._set_fast_forms()


class ComplexAddressingHash(_FastForms):
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
        # Exact table-driven forms of slice_of (module docstring).
        self._set_fast_forms()

    def _fast_forms(self) -> _SliceForms:
        return _xor_forms(self.masks)

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


class ModularSliceHash(_FastForms):
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
        # Exact block-cached forms of slice_of (module docstring).
        self._set_fast_forms()

    def _fast_forms(self) -> _SliceForms:
        return _modular_forms(self.n_slices, self.seed, tuple(self._coprimes))

    def slice_of(self, phys_address: int) -> int:
        """Return the slice index of the line containing *phys_address*."""
        line = phys_address >> CACHE_LINE_BITS
        block, index = divmod(line, self.n_slices)
        r = _splitmix64(block, self.seed)
        coprimes = self._coprimes
        a = coprimes[r % len(coprimes)]
        b = (r >> 16) % self.n_slices
        return (a * index + b) % self.n_slices

    def _coefficients(self, blocks) -> "Tuple[numpy.ndarray, numpy.ndarray]":
        """Vectorised per-block ``(index into _coprimes, b)``."""
        import numpy as np

        with np.errstate(over="ignore"):
            z = blocks + np.uint64(self.seed & _MASK64)
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


_MASK64 = (1 << 64) - 1

#: Blocks one :class:`ModularSliceHash` remembers before it starts over
#: (each entry is a dict slot and a block number; the permutations
#: themselves are shared).
_BLOCK_CACHE_MAX = 1 << 16


def _splitmix64(block: int, seed: int) -> int:
    """SplitMix64 finaliser of ``block + seed`` (the per-block draw)."""
    z = (block + seed) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _modular_forms(n: int, seed: int, coprimes: Tuple[int, ...]) -> _SliceForms:
    """Block-cached ``ModularSliceHash(n, seed).slice_of``, and its
    span form.

    Block ``k``'s permutation ``i -> (a*i + b) mod n`` is one of the
    ``len(coprimes) * n`` affine ones, each built once as a ``bytes``
    row; the cache maps a block to its shared row, so it holds only
    ints and bytes and the collector never tracks it.
    """
    rows = [
        bytes((a * i + b) % n for i in range(n)) for a in coprimes for b in range(n)
    ]
    n_coprimes = len(coprimes)
    cache: dict = {}
    cached = cache.get

    def row_of(block: int) -> bytes:
        r = _splitmix64(block, seed)
        row = rows[(r % n_coprimes) * n + (r >> 16) % n]
        if len(cache) >= _BLOCK_CACHE_MAX:
            cache.clear()
        cache[block] = row
        return row

    def slice_of(phys_address: int) -> int:
        line = phys_address >> CACHE_LINE_BITS
        block = line // n
        row = cached(block)
        if row is None:
            row = row_of(block)
        return row[line - block * n]

    def span_slices(first: int, n_lines: int) -> bytes:
        line = first >> CACHE_LINE_BITS
        block = line // n
        start = line - block * n
        out = (cached(block) or row_of(block))[start:start + n_lines]
        while len(out) < n_lines:
            block += 1
            out += (cached(block) or row_of(block))[:n_lines - len(out)]
        return out

    return slice_of, span_slices


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
