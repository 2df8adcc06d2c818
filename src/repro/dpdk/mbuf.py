"""Packet buffers (``rte_mbuf``).

Layout mirrors DPDK (§4.1, Fig. 9): a metadata struct occupying exactly
two cache lines (128 B), then the buffer region — headroom followed by
the data room.  CacheDirector's whole trick is that the headroom is
*dynamic*: moving the data start by whole cache lines moves the header
line to a different LLC slice (Fig. 10).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.mem.address import CACHE_LINE, iter_lines

#: The rte_mbuf struct is two cache lines (Fig. 9).
MBUF_STRUCT_SIZE = 128

#: DPDK's default fixed headroom (RTE_PKTMBUF_HEADROOM).
DEFAULT_HEADROOM = 128

#: DPDK's default data room.
DEFAULT_DATAROOM = 2048


class Mbuf:
    """One packet buffer.

    Args:
        pool: owning mempool (``None`` for standalone buffers in tests).
        index: element index within the pool.
        base_phys: physical address of the metadata struct (line
            aligned); the buffer region starts ``MBUF_STRUCT_SIZE``
            bytes later.
        buf_len: bytes in the buffer region (headroom + data room).
        default_headroom: headroom applied by :meth:`reset`.
    """

    __slots__ = (
        "pool",
        "index",
        "base_phys",
        "buf_len",
        "default_headroom",
        "headroom",
        "data_len",
        "pkt_len",
        "udata64",
        "next",
        "payload",
        "port",
        "queue",
        "rss_hash",
        "fcs_ok",
        "san",
    )

    def __init__(
        self,
        pool: Optional[object],
        index: int,
        base_phys: int,
        buf_len: int = DEFAULT_HEADROOM + DEFAULT_DATAROOM,
        default_headroom: int = DEFAULT_HEADROOM,
    ) -> None:
        if base_phys % CACHE_LINE:
            raise ValueError(f"mbuf base {base_phys:#x} must be line-aligned")
        if buf_len <= default_headroom:
            raise ValueError(
                f"buf_len {buf_len} leaves no data room after "
                f"{default_headroom} B of headroom"
            )
        self.pool = pool
        self.index = index
        self.base_phys = base_phys
        self.buf_len = buf_len
        self.default_headroom = default_headroom
        self.udata64 = 0
        self.next: Optional[Mbuf] = None
        self.payload: Optional[object] = None
        #: CacheSanitizer shadowing this mbuf's pool, or ``None`` — set
        #: by the owning Mempool when sanitizing is on.
        self.san: Optional[object] = None
        self.reset()

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def buf_phys(self) -> int:
        """Physical address of the buffer region (headroom start)."""
        return self.base_phys + MBUF_STRUCT_SIZE

    @property
    def data_phys(self) -> int:
        """Physical address of the first data byte (the packet start)."""
        return self.buf_phys + self.headroom

    @property
    def tailroom(self) -> int:
        """Bytes left after the current data."""
        return self.buf_len - self.headroom - self.data_len

    @property
    def data_room(self) -> int:
        """Bytes available for data at the current headroom."""
        return self.buf_len - self.headroom

    def struct_lines(self) -> List[int]:
        """The two cache lines of the metadata struct."""
        return [self.base_phys, self.base_phys + CACHE_LINE]

    def data_lines(self) -> Iterator[int]:  # simcheck: ignore[SIM501] probe
        """Line addresses covering the current data segment."""
        return iter_lines(self.data_phys, self.data_len)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Return to the freshly-allocated state (default headroom)."""
        self.headroom = self.default_headroom
        self.data_len = 0
        self.pkt_len = 0
        self.next = None
        self.payload = None
        self.port = 0
        self.queue = 0
        self.rss_hash = 0
        # Frame-check-sequence verdict from the NIC; fault injection
        # flips it to False and the PMD discards the frame on poll.
        self.fcs_ok = True

    def set_headroom(self, headroom: int) -> None:
        """Apply a (CacheDirector-chosen) headroom before DMA.

        Raises:
            ValueError: if the headroom is not line-aligned relative to
                the buffer start or exceeds the buffer.
        """
        if self.san is not None:
            self.san.check_mbuf_live(self, "set_headroom")
        if headroom < 0 or headroom >= self.buf_len:
            raise ValueError(
                f"headroom {headroom} outside buffer of {self.buf_len} B"
            )
        if (self.buf_phys + headroom) % CACHE_LINE:
            raise ValueError(
                f"headroom {headroom} does not line-align the data start"
            )
        self.headroom = headroom

    def append(self, length: int) -> int:
        """Extend the data segment; returns the physical write offset.

        Mirrors ``rte_pktmbuf_append``: fails (raises) when the data
        room cannot hold the extra bytes — the caller must then chain
        another mbuf.
        """
        if self.san is not None:
            self.san.check_mbuf_live(self, "append")
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        if length > self.tailroom:
            raise ValueError(
                f"append of {length} B exceeds tailroom {self.tailroom}"
            )
        offset = self.data_phys + self.data_len
        self.data_len += length
        return offset

    def chain_length(self) -> int:  # simcheck: ignore[SIM501] probe
        """Number of mbufs in this chain (1 for unchained)."""
        count = 0
        node: Optional[Mbuf] = self
        while node is not None:
            count += 1
            node = node.next
        return count

    def segments(self) -> Iterator["Mbuf"]:
        """Iterate over the chain starting at this mbuf."""
        node: Optional[Mbuf] = self
        while node is not None:
            yield node
            node = node.next

    def __repr__(self) -> str:
        return (
            f"Mbuf(index={self.index}, base={self.base_phys:#x}, "
            f"headroom={self.headroom}, data_len={self.data_len}, "
            f"pkt_len={self.pkt_len})"
        )
