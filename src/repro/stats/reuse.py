"""Reuse-distance (Mattson stack-distance) analysis.

For a reference stream, an access's *reuse distance* is the number of
distinct keys touched since the previous access to the same key.  An
LRU cache of capacity C hits exactly the accesses with distance < C —
so one pass over a workload yields the full hit-rate-vs-capacity
curve.  This is the tool behind EXPERIMENTS.md's Fig. 8 analysis: it
computes, from the actual Zipf stream, how much hit rate one slice
(~41 k lines) versus the whole LLC (~330 k lines) can possibly
deliver.

Implementation: classic O(n log n) Fenwick-tree counting of "last
occurrence" markers.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np


class _Fenwick:
    """Binary indexed tree over positions (prefix sums of 0/1 marks)."""

    def __init__(self, size: int) -> None:
        self._tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        index += 1
        tree = self._tree
        while index < len(tree):
            tree[index] += delta
            index += index & (-index)

    def prefix_sum(self, index: int) -> int:
        """Sum of marks at positions [0, index]."""
        index += 1
        total = 0
        tree = self._tree
        while index > 0:
            total += tree[index]
            index -= index & (-index)
        return total


def reuse_distances(keys: Sequence[int]) -> np.ndarray:  # simcheck: ignore[SIM501] paper claim: the Fig. 8 one-slice capacity gap
    """Per-access LRU stack distances; -1 marks cold (first) accesses.

    Args:
        keys: the reference stream (any hashable-as-int keys).

    Returns:
        An int64 array: ``out[i]`` is the number of distinct keys
        accessed strictly between accesses i and the previous access
        to ``keys[i]`` (0 = immediate re-reference), or -1 for the
        first access to a key.
    """
    keys = np.asarray(keys)
    n = keys.size
    out = np.full(n, -1, dtype=np.int64)
    fenwick = _Fenwick(n)
    last_position: Dict[int, int] = {}
    for i in range(n):
        key = int(keys[i])
        previous = last_position.get(key)
        if previous is not None:
            # Distinct keys since the previous access = marked
            # positions in (previous, i); every key's latest position
            # is marked, so the count is exact.
            out[i] = fenwick.prefix_sum(i - 1) - fenwick.prefix_sum(previous)
            fenwick.add(previous, -1)
        fenwick.add(i, +1)
        last_position[key] = i
    return out


def hit_rate_at(distances: np.ndarray, capacity: int) -> float:  # simcheck: ignore[SIM501] paper claim: the Fig. 8 one-slice capacity gap
    """Fraction of accesses an LRU cache of *capacity* lines serves.

    Cold misses count as misses.
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    if distances.size == 0:
        raise ValueError("empty distance array")
    return float(np.mean((distances >= 0) & (distances < capacity)))
