"""Fig. 17 — slice isolation vs Intel CAT under a noisy neighbour (§7).

Skylake model; the main application random-accesses a 2 MB working set
(three-quarters of a slice plus the L2, the paper's sizing) while a
noisy neighbour streams through the LLC from another core.  Three
scenarios:

* **NoCAT** — both share all 11 ways, normal allocation.
* **2W isolated** — CAT gives the main application 2 ways (~18 % of
  the LLC), the neighbour the other 9.
* **Slice-0 isolated** — the main application's working set lives
  entirely in its core's primary slice (~5 % of the LLC); the
  neighbour's buffer maps everywhere *except* that slice.

The paper finds slice isolation ~11 % faster than 2-way CAT for both
reads and writes despite owning less capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.cachesim.cat import CatController
from repro.cachesim.machines import SKYLAKE_GOLD_6134, MachineSpec, build_hierarchy
from repro.core.isolation import configure_cat_way_isolation, plan_slice_isolation
from repro.core.slice_aware import SliceAwareContext
from repro.mem.address import CACHE_LINE

SCENARIOS = ("nocat", "cat-2w", "slice-isolated")


@dataclass
class IsolationResult:
    """Average main-application execution time per scenario (seconds),
    and the speedup of slice isolation over 2-way CAT (paper: ~11 %)."""

    read_seconds: Dict[str, float]
    write_seconds: Dict[str, float]
    slice_vs_cat_read_pct: float = field(init=False)
    slice_vs_cat_write_pct: float = field(init=False)

    def __post_init__(self) -> None:
        def speedup(table: Dict[str, float]) -> float:
            return (table["cat-2w"] - table["slice-isolated"]) / table["cat-2w"] * 100

        self.slice_vs_cat_read_pct = speedup(self.read_seconds)
        self.slice_vs_cat_write_pct = speedup(self.write_seconds)


def _interleaved_run(
    hierarchy,
    main_core: int,
    main_lines: List[int],
    neighbour_core: int,
    neighbour_lines: List[int],
    n_ops: int,
    write: bool,
    neighbour_ratio: int,
    seed: int,
) -> int:
    """Main app ops interleaved with neighbour streaming; main cycles."""
    rng = np.random.default_rng(seed)
    main_idx = rng.integers(0, len(main_lines), size=n_ops)
    neighbour_pos = 0
    cycles = 0
    for i in range(n_ops):
        address = main_lines[main_idx[i]]
        if write:
            cycles += hierarchy.write(main_core, address, 1)
        else:
            cycles += hierarchy.read(main_core, address, 1)
        # The noisy neighbour streams sequentially, thrashing the LLC.
        for _ in range(neighbour_ratio):
            hierarchy.read(
                neighbour_core, neighbour_lines[neighbour_pos], 1
            )
            neighbour_pos = (neighbour_pos + 1) % len(neighbour_lines)
    return cycles


def run_fig17(
    spec: MachineSpec = SKYLAKE_GOLD_6134,
    main_core: int = 0,
    neighbour_core: int = 4,
    working_set_bytes: int = None,
    neighbour_bytes: int = 64 << 20,
    n_ops: int = 6000,
    neighbour_ratio: int = 2,
    main_ways: int = 2,
    seed: int = 0,
) -> IsolationResult:
    """Run the three Fig. 17 scenarios for reads and writes.

    Args:
        spec: machine (paper uses the Skylake part).
        main_core: core of the measured application.
        neighbour_core: core of the noisy neighbour.
        working_set_bytes: main working set (default: 3/4 slice + L2,
            the paper's 2 MB on the Gold 6134).
        neighbour_bytes: neighbour streaming buffer.
        n_ops: measured main-application accesses.
        neighbour_ratio: neighbour accesses per main access.
        main_ways: CAT ways granted to the main application.
        seed: RNG seed.
    """
    if working_set_bytes is None:
        working_set_bytes = 3 * spec.llc_slice_bytes // 4 + spec.l2_bytes
    n_lines = working_set_bytes // CACHE_LINE
    read_seconds: Dict[str, float] = {}
    write_seconds: Dict[str, float] = {}
    for write in (False, True):
        for scenario in SCENARIOS:
            cat = CatController(spec.llc_ways, spec.n_cores)
            if scenario == "cat-2w":
                configure_cat_way_isolation(
                    cat, main_core, main_ways, [neighbour_core]
                )
            hierarchy = build_hierarchy(spec, cat=cat, seed=seed)
            context = SliceAwareContext(spec, hierarchy=hierarchy, seed=seed)
            if scenario == "slice-isolated":
                plan = plan_slice_isolation(
                    context, main_core, working_set_bytes, neighbour_bytes
                )
                main_lines = [plan.main_buffer.line_of(i) for i in range(n_lines)]
                neighbour_lines = [
                    plan.neighbour_buffer.line_of(i)
                    for i in range(plan.neighbour_buffer.n_lines)
                ]
            else:
                main_buffer = context.allocate_normal(working_set_bytes)
                neighbour_buffer = context.allocate_normal(neighbour_bytes)
                main_lines = [
                    main_buffer.base + i * CACHE_LINE for i in range(n_lines)
                ]
                neighbour_lines = [
                    neighbour_buffer.base + i * CACHE_LINE
                    for i in range(neighbour_bytes // CACHE_LINE)
                ]
            # Warm the main working set, then measure under contention.
            for address in main_lines:
                if write:
                    hierarchy.write(main_core, address, 1)
                else:
                    hierarchy.read(main_core, address, 1)
            cycles = _interleaved_run(
                hierarchy,
                main_core,
                main_lines,
                neighbour_core,
                neighbour_lines,
                n_ops,
                write,
                neighbour_ratio,
                seed,
            )
            seconds = spec.cycles_to_seconds(cycles)
            # Scale to the paper's 10 000-op runs for comparable axes.
            seconds *= 10_000 / n_ops
            if write:
                write_seconds[scenario] = seconds
            else:
                read_seconds[scenario] = seconds
    return IsolationResult(read_seconds=read_seconds, write_seconds=write_seconds)


def format_fig17(result: IsolationResult) -> str:
    """Render the Fig. 17 bars."""
    out = ["Fig. 17 — main application execution time under a noisy neighbour"]
    out.append("scenario        |  read (ms) | write (ms)")
    for scenario in SCENARIOS:
        out.append(
            f"{scenario:<15} | {result.read_seconds[scenario] * 1e3:>10.4f} "
            f"| {result.write_seconds[scenario] * 1e3:>10.4f}"
        )
    out.append(
        f"slice isolation vs CAT: read {result.slice_vs_cat_read_pct:+.1f}%, "
        f"write {result.slice_vs_cat_write_pct:+.1f}% (paper: ~11.5/11.8 %)"
    )
    return "\n".join(out)
