"""KVS storage layout: index and value arrays.

The paper's emulated KVS stores 2^24 64 B values (1 GB) plus an index.
Two value placements are compared:

* **normal** — values contiguous: value *k* at ``base + 64k``; Complex
  Addressing spreads them over all slices.
* **slice-aware** — every value on a line mapping to the serving
  core's preferred slice.  With the published XOR hash each aligned
  8-line block contains exactly one line per slice, so the *k*-th
  slice-local line is found inside block *k* — :class:`SliceLocalArray`
  exploits that, paying 8× the physical address span for single-slice
  residency (the "memory fragmentation" cost §7 mentions).
"""

from __future__ import annotations

from repro.core.slice_aware import SliceAwareContext
from repro.mem.slice_array import SliceLocalArray
from repro.mem.address import CACHE_LINE, align_up


class KvsStore:
    """Index + value arrays for the emulated KVS.

    Args:
        context: machine context (provides hugepages and the hash).
        core: serving core (its preferred slice hosts values when
            slice-aware).
        n_keys: key-space size.
        slice_aware: placement policy for values.
        index_entry_bytes: bytes per index entry (key is the index, as
            in the paper's direct-indexed emulation).
    """

    VALUE_SIZE = 64  # the paper's 64 B values

    def __init__(
        self,
        context: SliceAwareContext,
        core: int,
        n_keys: int,
        slice_aware: bool,
        index_entry_bytes: int = 8,
        value_size: int = VALUE_SIZE,
    ) -> None:
        if n_keys <= 0:
            raise ValueError(f"n_keys must be positive, got {n_keys}")
        if value_size <= 0 or value_size % CACHE_LINE:
            raise ValueError(
                f"value_size must be a positive multiple of {CACHE_LINE}, "
                f"got {value_size}"
            )
        self.context = context
        self.core = core
        self.n_keys = n_keys
        self.slice_aware = slice_aware
        self.index_entry_bytes = index_entry_bytes
        self.value_size = value_size
        self.lines_per_value = value_size // CACHE_LINE
        self.target_slice = context.preferred_slice(core)
        index_bytes = align_up(n_keys * index_entry_bytes, CACHE_LINE)
        index_page = context.address_space.mmap_auto(index_bytes)
        self._index_base = index_page.phys
        n_value_lines = n_keys * self.lines_per_value
        if slice_aware:
            # Both hash families place one line per slice in every
            # aligned n_slices-line block, so n_slices-line blocks
            # would do for either.  The modular hash keeps its 4*n
            # window only because the fleet-zipf digest and the fleet
            # goldens pin the value addresses it yields.
            # Values larger than one line scatter over consecutive
            # slice-local lines — §8's linked-list scheme.
            from repro.cachesim.hashfn import ComplexAddressingHash

            if isinstance(context.hash, ComplexAddressingHash):
                block_lines = context.hash.n_slices
            else:
                block_lines = 4 * context.hash.n_slices
            span = n_value_lines * block_lines * CACHE_LINE
            value_page = context.address_space.mmap_auto(span)
            self._values = SliceLocalArray(
                base_phys=value_page.phys,
                n_lines=n_value_lines,
                slice_hash=context.hash,
                target_slice=self.target_slice,
                block_lines=block_lines,
            )
            self._value_base = None
        else:
            value_page = context.address_space.mmap_auto(n_value_lines * CACHE_LINE)
            self._values = None
            self._value_base = value_page.phys

    def index_address(self, key: int) -> int:
        """Physical address of the index entry's cache line."""
        self._check_key(key)
        return (self._index_base + key * self.index_entry_bytes) & ~(CACHE_LINE - 1)

    def value_address(self, key: int) -> int:
        """Physical address of the value's first cache line."""
        self._check_key(key)
        if self._values is not None:
            return self._values.line_address(key * self.lines_per_value)
        assert self._value_base is not None
        return self._value_base + key * self.value_size

    def value_addresses(self, key: int) -> list:
        """Physical addresses of every line of the value (§8: values
        larger than 64 B scatter over a slice-local linked list)."""
        self._check_key(key)
        if self._values is not None:
            first = key * self.lines_per_value
            return [
                self._values.line_address(first + i)
                for i in range(self.lines_per_value)
            ]
        assert self._value_base is not None
        base = self._value_base + key * self.value_size
        return [base + i * CACHE_LINE for i in range(self.lines_per_value)]

    def _check_key(self, key: int) -> None:
        if not 0 <= key < self.n_keys:
            raise KeyError(f"key {key} outside [0, {self.n_keys})")

    def __repr__(self) -> str:
        placement = "slice-aware" if self.slice_aware else "normal"
        return f"KvsStore(n_keys={self.n_keys}, placement={placement})"
