"""CacheDirector — slice-aware placement of packet headers (§4.2).

CacheDirector extends DDIO: instead of letting the mbuf's fixed
headroom decide (arbitrarily) which LLC slice the first 64 B of a
packet lands in, it *moves the data start* — a dynamic headroom — so
that the header line's physical address hashes to the slice closest to
the core that will process the packet.

Mechanics reproduced from the paper:

* **Small chunks** — only the first 64 B (the header) is steered; the
  hash remaps every line, so steering whole packets is impossible
  without fragmentation.
* **Dynamic headroom** — the headroom grows by whole cache lines until
  the data line hits the target slice.  With the published XOR hash the
  low three line-number bits map bijectively onto the slice bits, so at
  most 7 extra lines are ever needed; the mbuf's data room must be
  provisioned for the maximum (the paper picked 832 B after measuring
  a campus trace).
* **Pre-computation** — at pool-initialisation time the per-slice line
  offsets are computed once per mbuf and packed 4 bits per slice into
  the 64-bit ``udata64`` metadata field ("4 bits is sufficient for
  each core: our solution would be scalable up to 16 cores").
* **RX-time selection** — the driver, knowing the consuming core,
  unpacks the pre-computed offset and sets the headroom just before
  posting the buffer to the NIC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.cachesim.hashfn import SliceHash
from repro.mem.address import CACHE_LINE

#: Default DPDK headroom (RTE_PKTMBUF_HEADROOM).
DEFAULT_BASE_HEADROOM = 128

#: Bits of udata64 used per slice entry.
UDATA_BITS_PER_SLICE = 4

#: Maximum slices addressable through udata64 packing.
UDATA_MAX_SLICES = 64 // UDATA_BITS_PER_SLICE


def headroom_lines_for_slice(
    data_base_phys: int,
    slice_hash: SliceHash,
    target_slice: int,
    max_lines: int = 16,
) -> Optional[int]:
    """Smallest line count ``k`` with ``hash(data_base + 64k) == target``.

    Args:
        data_base_phys: physical address where the data region would
            start with zero extra headroom (line-aligned).
        slice_hash: the machine's slice hash.
        target_slice: desired LLC slice.
        max_lines: search bound; returns ``None`` when no line within
            the bound maps to the target (cannot happen for the
            published XOR hash with ``max_lines >= n_slices``).
    """
    if data_base_phys % CACHE_LINE:
        raise ValueError(
            f"data base {data_base_phys:#x} must be cache-line aligned"
        )
    for k in range(max_lines):
        if slice_hash.slice_of(data_base_phys + k * CACHE_LINE) == target_slice:
            return k
    return None


def pack_headrooms(lines_per_slice: Sequence[int]) -> int:  # simcheck: ignore[SIM501] oracle for precompute_udata
    """Pack per-slice line offsets into a udata64 value (4 bits each)."""
    if len(lines_per_slice) > UDATA_MAX_SLICES:
        raise ValueError(
            f"udata64 packs at most {UDATA_MAX_SLICES} slices, "
            f"got {len(lines_per_slice)}"
        )
    packed = 0
    for slice_index, lines in enumerate(lines_per_slice):
        if not 0 <= lines < (1 << UDATA_BITS_PER_SLICE):
            raise ValueError(
                f"line offset {lines} for slice {slice_index} does not "
                f"fit in {UDATA_BITS_PER_SLICE} bits"
            )
        packed |= lines << (UDATA_BITS_PER_SLICE * slice_index)
    return packed


def unpack_headroom(udata64: int, slice_index: int) -> int:
    """Extract one slice's line offset from a packed udata64 value."""
    if not 0 <= slice_index < UDATA_MAX_SLICES:
        raise IndexError(f"slice {slice_index} out of udata64 range")
    return (udata64 >> (UDATA_BITS_PER_SLICE * slice_index)) & (
        (1 << UDATA_BITS_PER_SLICE) - 1
    )


@dataclass
class HeadroomStats:
    """Distribution of dynamic headroom sizes chosen at RX time (§4.2)."""

    samples: List[int] = field(default_factory=list)

    def record(self, headroom_bytes: int) -> None:
        """Record one chosen headroom."""
        self.samples.append(headroom_bytes)

    def summary(self) -> dict:
        """Median / 95th percentile / max, as the paper reports them."""
        if not self.samples:
            return {"count": 0}
        ordered = sorted(self.samples)
        count = len(ordered)
        return {
            "count": count,
            "median": ordered[count // 2],
            "p95": ordered[min(count - 1, (95 * count) // 100)],
            "max": ordered[-1],
        }


class CacheDirector:
    """Computes and applies dynamic mbuf headrooms.

    Args:
        slice_hash: the machine's Complex Addressing hash (known or
            recovered via :mod:`repro.core.reverse_engineering`).
        core_to_slice: preferred slice per core (from the NUCA profile).
        base_headroom: fixed headroom always reserved (DPDK default
            128 B) before the dynamic part.
        max_lines: bound on the dynamic displacement in lines, at most
            16 so every offset fits its 4-bit udata64 field.
    """

    def __init__(
        self,
        slice_hash: SliceHash,
        core_to_slice: Sequence[int],
        base_headroom: int = DEFAULT_BASE_HEADROOM,
        max_lines: int = 16,
    ) -> None:
        if not core_to_slice:
            raise ValueError("core_to_slice must be non-empty")
        if base_headroom % CACHE_LINE:
            raise ValueError(
                f"base headroom must be line-aligned, got {base_headroom}"
            )
        if not 1 <= max_lines <= 1 << UDATA_BITS_PER_SLICE:
            raise ValueError(
                f"max_lines must be in 1..{1 << UDATA_BITS_PER_SLICE} (the "
                f"{UDATA_BITS_PER_SLICE}-bit udata64 field), got {max_lines}"
            )
        self.hash = slice_hash
        self.core_to_slice = list(core_to_slice)
        self.base_headroom = base_headroom
        self.max_lines = max_lines
        self.stats = HeadroomStats()

    @property
    def max_headroom(self) -> int:
        """Largest headroom this director can ever choose, in bytes.

        Mempools must provision the data room for this value so the
        dynamic headroom never shrinks the usable data area below a
        full packet (the paper's 832 B sizing argument).
        """
        return self.base_headroom + (self.max_lines - 1) * CACHE_LINE

    def precompute_udata(self, buf_phys: Sequence[int]) -> List[int]:
        """Pre-compute packed per-slice offsets for a whole mempool.

        The ``len(buf_phys) x max_lines`` matrix of candidate data
        lines is hashed once (vectorised when the hash has
        ``slice_of_array``); each target slice then takes the first
        matching line of every row, exactly as
        :func:`headroom_lines_for_slice` would.

        Args:
            buf_phys: physical address of each mbuf's buffer region
                (where headroom starts); each must be line-aligned.

        Returns:
            One packed udata64 value per buffer.  Slices with no
            reachable line within ``max_lines`` encode offset 0 (the
            director then falls back to the base headroom for those
            targets).
        """
        bufs = np.asarray(buf_phys, dtype=np.uint64)
        if bufs.ndim != 1:
            raise ValueError("buf_phys must be a flat sequence of buffer addresses")
        misaligned = bufs[bufs % np.uint64(CACHE_LINE) != 0]
        if misaligned.size:
            raise ValueError(
                f"buffer {int(misaligned[0]):#x} must be cache-line aligned"
            )
        steps = np.arange(self.max_lines, dtype=np.uint64) * np.uint64(CACHE_LINE)
        lines = (bufs + np.uint64(self.base_headroom))[:, None] + steps[None, :]
        slice_of_array = getattr(self.hash, "slice_of_array", None)
        if slice_of_array is not None:
            slices = np.asarray(slice_of_array(lines))
        else:
            slice_of = self.hash.slice_of
            slices = np.array(
                [slice_of(a) for a in lines.ravel().tolist()], dtype=np.int64
            ).reshape(lines.shape)
        packed = np.zeros(len(bufs), dtype=np.uint64)
        for target in range(min(self.hash.n_slices, UDATA_MAX_SLICES)):
            # argmax is the first hit of each row, and 0 for a row
            # without one: the "no reachable line" encoding.
            first = np.argmax(slices == target, axis=1).astype(np.uint64)
            packed |= first << np.uint64(UDATA_BITS_PER_SLICE * target)
        return packed.tolist()

    def headroom_for_core(self, udata64: int, core: int) -> int:
        """Headroom (bytes) placing the first data line in *core*'s slice.

        Called by the driver just before handing the buffer to the NIC
        for DMA; also records the §4.2 distribution sample.
        """
        target = self.core_to_slice[core]
        lines = unpack_headroom(udata64, target)
        headroom = self.base_headroom + lines * CACHE_LINE
        self.stats.record(headroom)
        return headroom

    def headroom_for_slice_direct(self, buf_phys: int, target_slice: int) -> int:  # simcheck: ignore[SIM501] oracle for precompute_udata
        """Compute a headroom without pre-computation (slow path)."""
        k = headroom_lines_for_slice(
            buf_phys + self.base_headroom, self.hash, target_slice, self.max_lines
        )
        return self.base_headroom + (k or 0) * CACHE_LINE
