"""Fig. 4 — reverse-engineering the Complex Addressing hash (§2.1).

Ground truth in the simulator is the published XOR hash; the
experiment recovers it *purely through CBo-counter polling* over a
hugepage, then verifies the reconstruction over a sweep of addresses,
and renders the Fig. 4 bit matrix.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import List

from repro.cachesim.machines import HASWELL_E5_2667V3, MachineSpec, build_hierarchy
from repro.core.reverse_engineering import (
    PollingOracle,
    RecoveredHash,
    recover_complex_hash,
    verify_recovered_hash,
)
from repro.mem.address import CACHE_LINE, PAGE_1G
from repro.mem.hugepage import PhysicalAddressSpace


@dataclass
class HashRecoveryResult:
    """Outcome of the Fig. 4 reproduction.

    The fields are the payload: the recovered hash's masks, bits and
    residual, then the verification.  ``recovered`` itself, the hash a
    slice-aware context can allocate through, is kept as a plain
    attribute.
    """

    recovered: InitVar[RecoveredHash]
    match_fraction: float
    ground_truth_match: bool
    addresses_polled: int
    masks: List[int] = field(init=False)
    probed_bits: List[int] = field(init=False)
    ambiguous_bits: List[int] = field(init=False)
    residual: int = field(init=False)

    def __post_init__(self, recovered: RecoveredHash) -> None:
        self.recovered = recovered
        self.masks = list(recovered.hash.masks)
        self.probed_bits = list(recovered.probed_bits)
        self.ambiguous_bits = list(recovered.ambiguous_bits)
        self.residual = recovered.residual


def run_fig04(
    spec: MachineSpec = HASWELL_E5_2667V3,
    n_bases: int = 4,
    verify_addresses: int = 512,
    seed: int = 0,
) -> HashRecoveryResult:
    """Recover the hash by polling and verify it.

    Args:
        spec: machine to attack (must have a power-of-two slice count).
        n_bases: base addresses probed per bit.
        verify_addresses: size of the verification sweep.
        seed: physical-layout seed.
    """
    hierarchy = build_hierarchy(spec, seed=seed)
    space = PhysicalAddressSpace(seed=seed)
    buffer = space.mmap_hugepage(PAGE_1G)
    oracle = PollingOracle(hierarchy, buffer, core=0, polls=4)
    bases = [
        buffer.phys + (i * 37 + 5) * 64 * 1024 for i in range(n_bases)
    ]
    recovered = recover_complex_hash(
        oracle,
        n_slices=spec.n_slices,
        base_addresses=bases,
        address_bits=range(6, 30),  # bits togglable inside a 1 GB page
        max_address=buffer.phys + buffer.size,
    )
    sweep = [
        buffer.phys + ((i * 2654435761) % (buffer.size - CACHE_LINE)) // CACHE_LINE * CACHE_LINE
        for i in range(verify_addresses)
    ]
    match = verify_recovered_hash(recovered, oracle, sweep)
    truth = spec.hash_factory()
    # Compare against ground truth on the recoverable bits only.
    bit_window = (1 << 30) - 1
    truth_masks = [mask & bit_window for mask in truth.masks]
    return HashRecoveryResult(
        recovered=recovered,
        match_fraction=match,
        ground_truth_match=list(recovered.hash.masks) == truth_masks,
        addresses_polled=oracle.addresses_polled,
    )


def format_fig04(result: HashRecoveryResult, max_bit: int = 30) -> str:
    """Render the recovered masks as the Fig. 4 bit matrix."""
    lines: List[str] = []
    lines.append("Fig. 4 — recovered Complex Addressing hash (polled bits 6..29)")
    header = "bit   " + " ".join(f"{b:>2}" for b in range(max_bit - 1, 5, -1))
    lines.append(header)
    for out, mask in enumerate(result.masks):
        row = [f"o{out}   "]
        for b in range(max_bit - 1, 5, -1):
            row.append(" X" if mask & (1 << b) else " .")
        lines.append(" ".join(row))
    lines.append(
        f"verification sweep match: {result.match_fraction:.1%} "
        f"({result.addresses_polled} addresses polled); "
        f"matches ground truth: {result.ground_truth_match}"
    )
    return "\n".join(lines)
