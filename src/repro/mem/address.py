"""Physical-address and cache-line geometry helpers.

Everything in the reproduction works on 64-bit physical addresses with
the canonical Intel 64 B cache-line granularity (the paper, §2,
considers "a CPU cache that is organized with a minimum unit of a 64 B
cache line").
"""

from __future__ import annotations

from typing import Iterator

#: Cache-line size in bytes, fixed at 64 B as on every modern Intel CPU.
CACHE_LINE = 64

#: log2 of the cache-line size; the low 6 address bits are the offset.
CACHE_LINE_BITS = 6

#: 4 KiB base page.
PAGE_4K = 4 * 1024

#: 2 MiB hugepage.
PAGE_2M = 2 * 1024 * 1024

#: 1 GiB hugepage — the paper allocates its buffers from these.
PAGE_1G = 1024 * 1024 * 1024


def is_power_of_two(value: int) -> bool:
    """Return ``True`` when *value* is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def align_up(address: int, alignment: int = CACHE_LINE) -> int:
    """Round *address* up to a multiple of *alignment* (a power of two)."""
    if not is_power_of_two(alignment):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    return (address + alignment - 1) & ~(alignment - 1)


def line_address(address: int) -> int:
    """Return the address of the cache line containing *address*."""
    return address & ~(CACHE_LINE - 1)


def line_index(address: int) -> int:
    """Return the global cache-line number containing *address*."""
    return address >> CACHE_LINE_BITS


def iter_lines(address: int, size: int) -> Iterator[int]:
    """Yield the line-aligned addresses covering ``[address, address+size)``.

    A zero-*size* range yields nothing.  This is the access pattern of a
    DMA engine or a ``memcpy`` touching every line of a buffer.
    """
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    if size == 0:
        return
    first = line_address(address)
    last = line_address(address + size - 1)
    for line in range(first, last + CACHE_LINE, CACHE_LINE):
        yield line


def span_lines(address: int, size: int) -> int:
    """Return how many cache lines ``[address, address+size)`` touches."""
    if size <= 0:
        return 0
    return (line_index(address + size - 1) - line_index(address)) + 1


def bit(value: int, position: int) -> int:
    """Return bit *position* (0 = LSB) of *value* as 0 or 1."""
    return (value >> position) & 1


if hasattr(int, "bit_count"):  # Python >= 3.10

    def parity(value: int) -> int:
        """Return the XOR (parity) of all bits of *value*.

        This is the primitive from which Intel's Complex Addressing
        hash is built: each slice-selection bit is the parity of the
        physical address masked by a per-bit mask.
        """
        return value.bit_count() & 1

else:

    def parity(value: int) -> int:
        """Return the XOR (parity) of all bits of *value*.

        This is the primitive from which Intel's Complex Addressing
        hash is built: each slice-selection bit is the parity of the
        physical address masked by a per-bit mask.
        """
        value ^= value >> 32
        value ^= value >> 16
        value ^= value >> 8
        value ^= value >> 4
        value ^= value >> 2
        value ^= value >> 1
        return value & 1
