"""The flow identity and the bulk packet record.

:class:`Packet` is a slotted record of the fields the simulators need
(size, flow 5-tuple, arrival time), cheap enough to create by the
million.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

PROTO_TCP = 6
PROTO_UDP = 17


class FiveTuple(NamedTuple):
    """Flow identity: the classic 5-tuple."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    proto: int

    def reversed(self) -> "FiveTuple":
        """The reply direction of this flow."""
        return FiveTuple(self.dst_ip, self.src_ip, self.dst_port, self.src_port, self.proto)


class Packet:
    """Bulk simulation record: one frame on the wire."""

    __slots__ = ("size", "flow", "arrival_ns", "timestamp_ns", "packet_id")

    def __init__(
        self,
        size: int,
        flow: FiveTuple,
        arrival_ns: float = 0.0,
        packet_id: int = 0,
    ) -> None:
        if size < 64:
            raise ValueError(f"minimum Ethernet frame is 64 B, got {size}")
        self.size = size
        self.flow = flow
        self.arrival_ns = arrival_ns
        self.timestamp_ns = arrival_ns  # LoadGen writes its TX time
        self.packet_id = packet_id

    @property
    def flow_key(self) -> Tuple[int, int, int, int, int]:
        """Hashable flow key for steering."""
        return tuple(self.flow)

    def __repr__(self) -> str:
        return f"Packet(size={self.size}, flow={tuple(self.flow)}, id={self.packet_id})"
