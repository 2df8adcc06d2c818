"""Power-of-two circular FIFO queues (``rte_ring``).

RX/TX queues between the NIC model and the poll-mode driver are rings
of mbuf references, like DPDK's descriptor-backed software rings.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, List, Optional, TypeVar

from repro.mem.address import is_power_of_two

T = TypeVar("T")


class Ring(Generic[T]):
    """Bounded FIFO with burst enqueue/dequeue.

    Args:
        size: capacity; must be a power of two (as ``rte_ring_create``
            requires).
        name: diagnostic label.
    """

    def __init__(self, size: int, name: str = "ring") -> None:
        if not is_power_of_two(size):
            raise ValueError(f"ring size must be a power of two, got {size}")
        self.size = size
        self.name = name
        self._items: Deque[T] = deque()
        self.enqueue_drops = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def free_count(self) -> int:  # simcheck: ignore[SIM501] probe
        """Free slots remaining."""
        return self.size - len(self._items)

    @property
    def full(self) -> bool:
        """Whether the ring has no free slots."""
        return len(self._items) >= self.size

    @property
    def empty(self) -> bool:
        """Whether the ring holds no items."""
        return not self._items

    def enqueue(self, item: T) -> bool:
        """Append one item; ``False`` (and a drop count) when full."""
        if len(self._items) >= self.size:
            self.enqueue_drops += 1
            return False
        self._items.append(item)
        return True

    def dequeue(self) -> Optional[T]:
        """Pop the oldest item, or ``None`` when empty."""
        if not self._items:
            return None
        return self._items.popleft()

    def dequeue_burst(self, max_items: int) -> List[T]:
        """Pop up to *max_items* oldest items."""
        if max_items <= 0:
            raise ValueError(f"max_items must be positive, got {max_items}")
        burst: List[T] = []
        items = self._items
        while items and len(burst) < max_items:
            burst.append(items.popleft())
        return burst

    def peek(self) -> Optional[T]:
        """Return the oldest item without removing it."""
        return self._items[0] if self._items else None

    def __repr__(self) -> str:
        return f"Ring(name={self.name!r}, size={self.size}, used={len(self._items)})"
