"""Intel Data Direct I/O (DDIO).

DDIO lets PCIe devices (NICs) DMA directly into the LLC instead of
DRAM.  Two properties matter for the paper:

* *Write allocations are confined to a small number of LLC ways*
  (2 of 20 on the testbed — the "10 % limit" of §5), so heavy I/O can
  only pollute that fraction of each slice; and
* the *slice* an I/O write lands in is still chosen by Complex
  Addressing from the buffer's physical address — which is exactly the
  hook CacheDirector exploits: pick the buffer address, pick the slice.

:class:`DdioEngine` is the device-side interface: the NIC calls
:meth:`dma_write` when receiving a packet into host memory and
:meth:`dma_read` when fetching a packet for transmission.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cachesim.counters import EVENT_DDIO_READS
from repro.cachesim.hierarchy import CacheHierarchy
from repro.mem.address import CACHE_LINE, iter_lines


@dataclass
class DdioStats:
    """Aggregate I/O statistics of one DDIO engine."""

    write_lines: int = 0
    read_lines: int = 0
    read_hits: int = 0
    read_misses: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        self.write_lines = 0
        self.read_lines = 0
        self.read_hits = 0
        self.read_misses = 0


class DdioEngine:
    """DMA engine writing into (and reading from) the LLC.

    Args:
        hierarchy: the cache hierarchy whose LLC receives I/O.
        enabled: with DDIO disabled, DMA writes invalidate cached
            copies and go to DRAM (pre-DDIO behaviour), making the
            benefit measurable.
    """

    def __init__(self, hierarchy: CacheHierarchy, enabled: bool = True) -> None:
        self.hierarchy = hierarchy
        self.enabled = enabled
        self.stats = DdioStats()

    def dma_write(self, address: int, size: int) -> int:
        """DMA *size* bytes at *address* into the host; returns lines touched.

        With DDIO enabled each line is allocated into the DDIO ways of
        its LLC slice (evicting as needed); otherwise the line ends up
        only in DRAM and every cached copy is invalidated.
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        hierarchy = self.hierarchy
        san = hierarchy.sanitizer
        if san is not None:
            # Checked before any line lands: an overrun must be caught
            # pre-corruption, with the offending span in hand.
            san.check_dma_span(hierarchy, address, size, write=True)
            san.tick(hierarchy, (size + CACHE_LINE - 1) // CACHE_LINE)
        if self.enabled and hierarchy.engine_name == "fast":
            # Flattened per-span path: identical outcomes, one closure
            # call per packet instead of three method calls per line
            # (machine-checked by the differential harness).
            lines = hierarchy.fast_engine().dma_write_span(address, size)
            self.stats.write_lines += lines
            return lines
        lines = 0
        for line in iter_lines(address, size):
            if self.enabled:
                hierarchy.dma_fill_line(line)
            else:
                hierarchy.invalidate_private(line)
                hierarchy.llc.invalidate(line)
            lines += 1
        self.stats.write_lines += lines
        return lines

    def dma_read(self, address: int, size: int) -> int:
        """DMA *size* bytes out of the host (TX path); returns lines touched.

        Reads are served from the LLC when the line is resident (DDIO
        reads do not allocate on miss — they read DRAM directly).
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        san = self.hierarchy.sanitizer
        if san is not None:
            san.check_dma_span(self.hierarchy, address, size, write=False)
        if self.hierarchy.engine_name == "fast":
            lines, hits = self.hierarchy.fast_engine().dma_read_span(address, size)
            self.stats.read_lines += lines
            self.stats.read_hits += hits
            self.stats.read_misses += lines - hits
            return lines
        lines = 0
        llc = self.hierarchy.llc
        for line in iter_lines(address, size):
            slice_index = llc.hash.slice_of(line)
            llc.counters.count(slice_index, EVENT_DDIO_READS)
            if llc.slices[slice_index].contains(line):
                self.stats.read_hits += 1
            else:
                self.stats.read_misses += 1
            lines += 1
        self.stats.read_lines += lines
        return lines
