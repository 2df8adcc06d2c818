"""NUCA interconnect latency models.

Accessing an LLC slice costs the base LLC pipeline latency plus a
distance term that depends on which core asks and which slice answers.
The paper measures this distance term empirically (Fig. 5a for the
Haswell ring, Fig. 16 for the Skylake mesh) rather than deriving it
from the die floorplan, and so do we: the models here are *parametric
latency matrices* calibrated to reproduce the measured structure.

* :class:`RingInterconnect` — Haswell-style bidirectional ring.  The
  measured pattern is bimodal (even slices cheap from even cores, §2.2):
  same-parity slices sit on the requesting core's side of the ring and
  cost ``hop_cycles`` per stop, opposite-parity slices additionally pay
  a ring-crossing penalty.
* :class:`TableInterconnect` — explicit per-(core, slice) latency
  matrix, used to encode measured Skylake data (Fig. 16 / Table 4).
"""

from __future__ import annotations

from typing import Dict, List, Protocol, Sequence


class Interconnect(Protocol):
    """Distance-latency provider between cores and LLC slices."""

    n_cores: int
    n_slices: int

    def latency(self, core: int, slice_index: int) -> int:
        """Extra cycles to reach *slice_index* from *core* (>= 0)."""


def preferred_slices(interconnect: Interconnect, core: int) -> List[int]:
    """Return slice indices sorted from cheapest to most expensive.

    Ties break toward lower slice indices, making the result
    deterministic; the first element is the core's *primary* slice in
    the paper's Table 4 terminology.
    """
    return sorted(
        range(interconnect.n_slices),
        key=lambda s: (interconnect.latency(core, s), s),
    )


class RingInterconnect:
    """Bidirectional ring with a parity-crossing penalty (Haswell).

    Cores and slices are co-located at ring stops (core *i* shares a
    stop with slice *i*).  Stops of equal parity lie on the same
    physical side of the ring; reaching the other side pays
    ``cross_penalty`` cycles.  Within a side, cost is ``hop_cycles``
    per hop of the 4-stop sub-ring.

    With the defaults and 8 stops this yields, from core 0:
    slices 0/2/4/6 at +0/+4/+8/+4 cycles and slices 1/3/5/7 at
    +14/+18/+22/+18 — the bimodal, ~20-cycle-spread structure of
    Fig. 5a.
    """

    def __init__(
        self,
        n_stops: int = 8,
        hop_cycles: int = 4,
        cross_penalty: int = 14,
    ) -> None:
        if n_stops <= 0 or n_stops % 2:
            raise ValueError(f"n_stops must be positive and even, got {n_stops}")
        if hop_cycles < 0 or cross_penalty < 0:
            raise ValueError("latencies must be non-negative")
        self.n_cores = n_stops
        self.n_slices = n_stops
        self.hop_cycles = hop_cycles
        self.cross_penalty = cross_penalty
        self._half = n_stops // 2

    def latency(self, core: int, slice_index: int) -> int:
        """Extra cycles from *core* to *slice_index*."""
        self._check(core, slice_index)
        position_a = core // 2
        position_b = slice_index // 2
        distance = abs(position_a - position_b)
        distance = min(distance, self._half - distance)
        cost = self.hop_cycles * distance
        if (core ^ slice_index) & 1:
            cost += self.cross_penalty
        return cost

    def _check(self, core: int, slice_index: int) -> None:
        if not 0 <= core < self.n_cores:
            raise IndexError(f"core {core} out of range 0..{self.n_cores - 1}")
        if not 0 <= slice_index < self.n_slices:
            raise IndexError(
                f"slice {slice_index} out of range 0..{self.n_slices - 1}"
            )

    def __repr__(self) -> str:
        return (
            f"RingInterconnect(n_stops={self.n_cores}, "
            f"hop_cycles={self.hop_cycles}, cross_penalty={self.cross_penalty})"
        )


class TableInterconnect:
    """Explicit per-(core, slice) extra-latency matrix.

    Used to encode empirically measured NUCA matrices — exactly what
    the paper does for its Skylake part, where the hash and floorplan
    are unknown but the latencies are measurable via polling.
    """

    def __init__(self, matrix: Sequence[Sequence[int]]) -> None:
        if not matrix or not matrix[0]:
            raise ValueError("matrix must be non-empty")
        width = len(matrix[0])
        for row in matrix:
            if len(row) != width:
                raise ValueError("matrix rows must have equal length")
            for value in row:
                if value < 0:
                    raise ValueError("latencies must be non-negative")
        self._matrix: List[List[int]] = [list(row) for row in matrix]
        self.n_cores = len(self._matrix)
        self.n_slices = width

    def latency(self, core: int, slice_index: int) -> int:
        """Extra cycles from *core* to *slice_index*."""
        return self._matrix[core][slice_index]

    @classmethod
    def from_preferences(
        cls,
        n_cores: int,
        n_slices: int,
        primary: Dict[int, int],
        secondary: Dict[int, Sequence[int]],
        secondary_extra: int = 4,
        far_base: int = 10,
        far_spread: int = 20,
    ) -> "TableInterconnect":
        """Build a matrix realising a primary/secondary preference table.

        Every core's primary slice costs +0, its secondary slices
        ``secondary_extra``, and all remaining slices a deterministic
        value in ``[far_base, far_base + far_spread)`` derived from the
        (core, slice) pair — mimicking the scatter of measured far
        latencies without disturbing the preference order.
        """
        if far_base <= secondary_extra:
            raise ValueError("far_base must exceed secondary_extra")
        matrix: List[List[int]] = []
        for core in range(n_cores):
            row: List[int] = []
            secondaries = set(secondary.get(core, ()))
            for slice_index in range(n_slices):
                if slice_index == primary.get(core):
                    row.append(0)
                elif slice_index in secondaries:
                    row.append(secondary_extra)
                else:
                    jitter = (7 * core + 5 * slice_index + 3) % max(1, far_spread)
                    row.append(far_base + (jitter & ~1))
            matrix.append(row)
        return cls(matrix)

    def __repr__(self) -> str:
        return f"TableInterconnect(n_cores={self.n_cores}, n_slices={self.n_slices})"
