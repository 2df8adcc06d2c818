"""Fig. 6 — slice-aware vs normal allocation speedup per target slice (§3).

Core 0 performs random accesses over a 1.375 MB working set (half a
slice plus the L2, exactly the paper's sizing) allocated either
normally (contiguous — lines spread over all slices) or slice-aware to
each target slice in turn.  The per-slice average speedup over the
normal baseline reproduces Fig. 6: positive for the slices close to
core 0, negative for the far ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.cachesim.machines import HASWELL_E5_2667V3, MachineSpec
from repro.core.slice_aware import SliceAwareContext
from repro.mem.address import CACHE_LINE
from repro.mem.slice_array import SliceLocalArray


@dataclass
class SliceSpeedupResult:
    """Per-slice average speedup for read and write workloads."""

    read_speedup_pct: List[float]
    write_speedup_pct: List[float]
    normal_read_cycles: float
    normal_write_cycles: float


def _access_all(hierarchy, core: int, addresses, write: bool) -> int:
    """One batch over *addresses* in order; total cycles.

    Identical to one ``hierarchy.read``/``write`` per address (the
    differential tests replay it that way).
    """
    return int(hierarchy.access_batch(addresses, write, core).cycles.sum())


def _run_workload(hierarchy, core: int, line_addresses, n_ops: int, write: bool, rng) -> int:
    """Random single-line accesses over a buffer; returns total cycles."""
    indices = rng.integers(0, len(line_addresses), size=n_ops)
    return _access_all(hierarchy, core, np.asarray(line_addresses)[indices], write)


def run_fig06(
    spec: MachineSpec = HASWELL_E5_2667V3,
    core: int = 0,
    working_set_bytes: int = None,
    n_ops: int = 10_000,
    seed: int = 0,
) -> SliceSpeedupResult:
    """Measure Fig. 6's per-slice speedups.

    Args:
        spec: machine model.
        core: accessing core (paper uses core 0).
        working_set_bytes: buffer size; defaults to half a slice plus
            the L2 size, the paper's 1.375 MB on Haswell.
        n_ops: random accesses per run (paper: 10 000).
        seed: RNG seed.
    """
    if working_set_bytes is None:
        working_set_bytes = spec.llc_slice_bytes // 2 + spec.l2_bytes
    n_lines = working_set_bytes // CACHE_LINE
    rng = np.random.default_rng(seed)

    def fresh_context() -> SliceAwareContext:
        return SliceAwareContext(spec, seed=seed)

    def measure(lines: List[int], write: bool) -> int:
        ctx = fresh_context()
        hierarchy = ctx.hierarchy
        # Warm the full working set (the paper repeats the experiment
        # 100 times over the same buffer, so measurements are steady
        # state), then warm with the same operation type: sustained
        # writes leave a dirty steady state whose eviction drains
        # Fig. 6b measures.
        _access_all(hierarchy, core, lines, write)
        _run_workload(ctx.hierarchy, core, lines, n_ops, write, np.random.default_rng(seed))
        return _run_workload(
            ctx.hierarchy, core, lines, n_ops, write, np.random.default_rng(seed + 1)
        )

    # Baseline: contiguous allocation.
    context = fresh_context()
    normal = context.allocate_normal(working_set_bytes)
    normal_lines = [normal.base + i * CACHE_LINE for i in range(n_lines)]
    normal_read = measure(normal_lines, write=False)
    normal_write = measure(normal_lines, write=True)

    read_speedups: List[float] = []
    write_speedups: List[float] = []
    context = fresh_context()  # geometry only; fresh machines built per run
    block_lines = context.hash.n_slices  # full density: every target line
    page = context.address_space.mmap_auto(
        spec.n_slices * n_lines * block_lines * CACHE_LINE
    )
    for target in range(spec.n_slices):
        array = SliceLocalArray(
            base_phys=page.phys + target * n_lines * block_lines * CACHE_LINE,
            n_lines=n_lines,
            slice_hash=context.hash,
            target_slice=target,
            block_lines=block_lines,
        )
        lines = array.line_addresses().tolist()
        read = measure(lines, write=False)
        write = measure(lines, write=True)
        read_speedups.append((normal_read - read) / normal_read * 100.0)
        write_speedups.append((normal_write - write) / normal_write * 100.0)
    return SliceSpeedupResult(
        read_speedup_pct=read_speedups,
        write_speedup_pct=write_speedups,
        normal_read_cycles=float(normal_read),
        normal_write_cycles=float(normal_write),
    )


def format_fig06(result: SliceSpeedupResult) -> str:
    """Render the Fig. 6 bars."""
    lines = ["Fig. 6 — avg speedup of slice-aware vs normal allocation (core 0)"]
    lines.append("slice | read speedup % | write speedup %")
    for s, (r, w) in enumerate(zip(result.read_speedup_pct, result.write_speedup_pct)):
        lines.append(f"{s:>5} | {r:>13.1f} | {w:>14.1f}")
    return "\n".join(lines)
