"""Reverse-engineering Complex Addressing via uncore counters (§2.1).

Two stages, mirroring Maurice et al. (RAID '15) as the paper applies
them:

**Polling** — to learn the slice of one physical address: snapshot
every slice's lookup counter, hammer the address with accesses that are
guaranteed to reach the LLC (flush + load), and attribute the address
to the slice whose counter grew the most.  :class:`PollingOracle`
implements this against the simulated CBo counters; it works with any
slice count and needs no knowledge of the hash.

**Hash construction** — for CPUs with ``2**n`` slices the hash is
XOR-linear, so for any base address ``a`` and bit ``b``,
``slice(a) XOR slice(a ^ (1 << b))`` equals the hash of ``1 << b``
alone: a constant column of the XOR masks.  Probing each bit from a
handful of bases (and checking they agree) reconstructs the masks.
:func:`recover_complex_hash` does exactly that, and
:func:`verify_recovered_hash` replays the paper's final validation
sweep over a range of addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from repro.cachesim.counters import EVENT_LOOKUPS
from repro.cachesim.hashfn import ComplexAddressingHash
from repro.cachesim.hierarchy import CacheHierarchy
from repro.mem.address import CACHE_LINE_BITS, is_power_of_two
from repro.mem.hugepage import HugepageBuffer

#: Type of a slice oracle: physical address -> slice index.
SliceOracle = Callable[[int], int]


class PollingOracle:
    """Slice oracle built from CBo lookup-counter polling.

    Args:
        hierarchy: the machine whose counters are polled.
        buffer: a hugepage owned by the experimenter — polling can only
            target addresses whose physical location is known, exactly
            as on real hardware.
        core: core used to issue the polling loads.
        polls: accesses per address; more polls dominate background
            noise (the simulator has none, but the loop shape is kept).
    """

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        buffer: HugepageBuffer,
        core: int = 0,
        polls: int = 8,
    ) -> None:
        if polls <= 0:
            raise ValueError(f"polls must be positive, got {polls}")
        self.hierarchy = hierarchy
        self.buffer = buffer
        self.core = core
        self.polls = polls
        self.addresses_polled = 0

    def phys_to_virt(self, phys_address: int) -> int:
        """Translate a physical address inside the owned hugepage."""
        return self.buffer.phys_to_virt(phys_address)

    def __call__(self, phys_address: int) -> int:
        """Return the slice of *phys_address*, determined by polling."""
        hierarchy = self.hierarchy
        # Check the address is really ours (user space would fault
        # otherwise); the simulator has no TLB, so accesses below use
        # the physical address directly.
        self.phys_to_virt(phys_address)
        counters = hierarchy.llc.counters
        before = counters.snapshot(EVENT_LOOKUPS)
        for _ in range(self.polls):
            # Flush so the next load is an LLC lookup, then load.
            hierarchy.clflush(phys_address)
            hierarchy.read(self.core, phys_address)
        self.addresses_polled += 1
        return counters.busiest_slice(EVENT_LOOKUPS, before)


class MultiPageOracle:
    """Polling oracle spanning several hugepages.

    Recovering high address bits (e.g. bit 30+ on 1 GB pages) needs
    probe addresses whose single-bit toggles leave the page; owning a
    *contiguous run* of hugepages makes those toggles land in sibling
    pages the experimenter also owns — the standard practice on real
    hardware.
    """

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        buffers,
        core: int = 0,
        polls: int = 2,
    ) -> None:
        if not buffers:
            raise ValueError("at least one buffer is required")
        self.hierarchy = hierarchy
        self.buffers = list(buffers)
        self.core = core
        self.polls = polls
        self.addresses_polled = 0

    def owns(self, phys_address: int) -> bool:
        """Whether some owned buffer contains *phys_address*."""
        return any(
            b.phys <= phys_address < b.phys + b.size for b in self.buffers
        )

    def __call__(self, phys_address: int) -> int:
        """Return the slice of *phys_address*, determined by polling."""
        if not self.owns(phys_address):
            raise ValueError(f"address {phys_address:#x} is not owned")
        hierarchy = self.hierarchy
        counters = hierarchy.llc.counters
        before = counters.snapshot(EVENT_LOOKUPS)
        for _ in range(self.polls):
            hierarchy.clflush(phys_address)
            hierarchy.read(self.core, phys_address)
        self.addresses_polled += 1
        return counters.busiest_slice(EVENT_LOOKUPS, before)


@dataclass
class RecoveredHash:
    """Outcome of a hash-recovery run.

    Polling inside one hugepage cannot observe the contribution of
    address bits that never vary (everything above the page size);
    their combined parity appears as a constant XOR ``residual`` on
    the slice index, learned from the first base address.  Predictions
    are therefore exact for any address sharing the un-probed bits
    with the probed region — which is all a slice-aware allocator
    operating inside that hugepage needs.

    The prediction is itself a slice hash (an affine map over GF(2):
    the recovered XOR hash plus the residual), so a slice-aware
    context allocates through it directly, vectorised paths included.
    """

    hash: ComplexAddressingHash
    probed_bits: List[int]
    ambiguous_bits: List[int]
    residual: int = 0

    @property
    def n_slices(self) -> int:
        """Slice count of the recovered hash."""
        return self.hash.n_slices

    def slice_of(self, phys_address: int) -> int:
        """Predicted slice, including the constant residual."""
        return self.hash.slice_of(phys_address) ^ self.residual

    def slice_of_array(self, phys_addresses) -> np.ndarray:
        """Vectorised :meth:`slice_of`: the inner hash's slices XOR the
        residual."""
        return self.hash.slice_of_array(phys_addresses) ^ np.uint8(self.residual)

    def block_offsets(
        self, base: int, n_blocks: int, block_lines: int, target: int
    ) -> Optional[np.ndarray]:
        """Closed-form block offsets: a line predicts *target* exactly
        where the inner hash gives ``target ^ residual``."""
        if not 0 <= target < self.n_slices:
            return None
        return self.hash.block_offsets(
            base, n_blocks, block_lines, target ^ self.residual
        )


def recover_complex_hash(
    oracle: SliceOracle,
    n_slices: int,
    base_addresses: Sequence[int],
    address_bits: Iterable[int] = range(6, 35),
    max_address: Optional[int] = None,
) -> RecoveredHash:
    """Reconstruct the XOR masks of a ``2**n``-slice Complex Addressing hash.

    Args:
        oracle: physical address -> slice (polling-based or otherwise).
        n_slices: slice count (must be a power of two).
        base_addresses: sample physical addresses to probe from; all
            must be reachable by the oracle, as must their single-bit
            toggles.
        address_bits: candidate physical-address bits to test.
        max_address: highest probe-able physical address + 1; bits whose
            toggle would leave the range are reported as *ambiguous*
            (unknowable — e.g. bits above a 1 GB hugepage).

    Returns:
        A :class:`RecoveredHash` with the reconstructed function and
        the lists of successfully probed and ambiguous bits.

    Raises:
        ValueError: if two base addresses disagree about a bit's
            contribution (the hash is then not XOR-linear over the
            probed bits).
    """
    if not is_power_of_two(n_slices):
        raise ValueError(f"n_slices must be a power of two, got {n_slices}")
    if not base_addresses:
        raise ValueError("at least one base address is required")
    n_out = n_slices.bit_length() - 1
    masks = [0] * n_out
    probed: List[int] = []
    ambiguous: List[int] = []
    base_slices = {a: oracle(a) for a in base_addresses}
    for bit_position in address_bits:
        if bit_position < CACHE_LINE_BITS:
            # Bits inside the line offset cannot affect the line's slice.
            continue
        probe = 1 << bit_position
        contribution: Optional[int] = None
        usable = False
        for base in base_addresses:
            flipped = base ^ probe
            if max_address is not None and not 0 <= flipped < max_address:
                continue
            usable = True
            diff = base_slices[base] ^ oracle(flipped)
            if contribution is None:
                contribution = diff
            elif contribution != diff:
                raise ValueError(
                    f"bit {bit_position} contributes inconsistently "
                    f"({contribution} vs {diff}): hash is not XOR-linear"
                )
        if not usable:
            ambiguous.append(bit_position)
            continue
        probed.append(bit_position)
        assert contribution is not None
        for out in range(n_out):
            if (contribution >> out) & 1:
                masks[out] |= probe
    recovered = ComplexAddressingHash(masks)
    first_base = base_addresses[0]
    residual = base_slices[first_base] ^ recovered.slice_of(first_base)
    return RecoveredHash(
        hash=recovered,
        probed_bits=probed,
        ambiguous_bits=ambiguous,
        residual=residual,
    )


def verify_recovered_hash(
    recovered: RecoveredHash,
    oracle: SliceOracle,
    addresses: Iterable[int],
) -> float:
    """Fraction of *addresses* where the recovered hash matches the oracle.

    The paper "verified by assessing a wide range of addresses and
    comparing the output of the hash function with the actual mapping";
    this is that sweep.  Addresses must share their un-probed high
    bits with the recovery region (see :class:`RecoveredHash`).
    """
    total = 0
    correct = 0
    for address in addresses:
        total += 1
        if recovered.slice_of(address) == oracle(address):
            correct += 1
    if total == 0:
        raise ValueError("no addresses supplied")
    return correct / total
