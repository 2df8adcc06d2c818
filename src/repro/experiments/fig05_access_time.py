"""Figs. 5 & 16 — access time from core 0 to every LLC slice (§2.2, §6).

Fig. 5a/5b: the Haswell ring — bimodal read latencies (even slices
cheaper from core 0), flat write latencies.  Fig. 16: the Skylake mesh
with 18 slices.  Both use the identical measurement procedure in
:mod:`repro.core.profiles`.
"""

from __future__ import annotations

from typing import List

from repro.cachesim.machines import HASWELL_E5_2667V3, SKYLAKE_GOLD_6134, MachineSpec
from repro.core.profiles import SliceLatencyProfile, measure_slice_latencies
from repro.core.slice_aware import SliceAwareContext


def run_fig05(
    spec: MachineSpec = HASWELL_E5_2667V3,
    core: int = 0,
    runs: int = 10,
    seed: int = 0,
) -> SliceLatencyProfile:
    """Measure per-slice read/write cycles from one core."""
    context = SliceAwareContext(spec, seed=seed)
    return measure_slice_latencies(
        context.hierarchy,
        context.hugepage,
        context.address_space.pagemap,
        core=core,
        runs=runs,
    )


def run_fig16(core: int = 0, runs: int = 10, seed: int = 0) -> SliceLatencyProfile:
    """Fig. 16: the same measurement on the Skylake model."""
    return run_fig05(spec=SKYLAKE_GOLD_6134, core=core, runs=runs, seed=seed)


def format_profile(profile: SliceLatencyProfile, title: str) -> str:
    """Render the per-slice bar values the figures plot."""
    lines: List[str] = [title]
    lines.append("slice | read cycles | write cycles")
    for s in range(profile.n_slices):
        lines.append(
            f"{s:>5} | {profile.read_cycles[s]:>11.1f} | {profile.write_cycles[s]:>12.1f}"
        )
    lines.append(
        f"read spread (NUCA): {profile.read_spread:.1f} cycles; "
        f"fastest slice from core {profile.core}: {profile.fastest_slice}"
    )
    return "\n".join(lines)
