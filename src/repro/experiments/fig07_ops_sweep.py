"""Fig. 7 — OPS vs working-set size on 8 cores (§3).

Every core owns a private array and performs uniform random
single-line accesses; arrays are either contiguous (normal) or
slice-local to each core's closest slice.  Sweeping the array size
from 32 KB to 128 MB reproduces the regimes the paper annotates on
the x-axis: inside L2 both schemes tie; between L2 and a slice
(2.5 MB) slice-aware wins; past the LLC both fall to DRAM speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.cachesim.machines import HASWELL_E5_2667V3, MachineSpec
from repro.core.slice_aware import SliceAwareContext
from repro.experiments import require_fast_engine
from repro.mem.address import CACHE_LINE
from repro.mem.slice_array import SliceLocalArray

#: Lines each core touches sequentially before the random passes.
WARM_LINES_CAP = 1 << 16

#: Unmeasured random accesses per core that reach steady state, by
#: op kind.  Writes need a long pass: the dirty-line pipeline through
#: L1+L2 is ~4 600 lines deep per core, and drain charges only reach
#: steady rate once it is full.
STEADY_OPS = {"read": 2000, "write": 6000}

#: The paper's x-axis.
PAPER_SIZES = [
    32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024,
    1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20, 128 << 20,
]


@dataclass
class OpsSweepResult:
    """System OPS per array size for both placements."""

    sizes: List[int]
    normal_mops: Dict[str, List[float]] = field(default_factory=dict)
    slice_mops: Dict[str, List[float]] = field(default_factory=dict)


def _system_mops(per_core_cycles: List[int], n_ops: int, freq_ghz: float) -> float:
    """Aggregate OPS: each core contributes ops/(its cycles)."""
    total = 0.0
    for cycles in per_core_cycles:
        total += n_ops * freq_ghz * 1e9 / max(cycles, 1)
    return total / 1e6


def _run_size(
    context: SliceAwareContext,
    table: np.ndarray,
    n_ops: int,
    write: bool,
    seed: int,
) -> List[int]:
    """Interleaved random accesses from every core; per-core cycles.

    *table* holds each core's array as one row of line addresses
    (shape ``(n_cores, n_lines)``).  Each core first warms its array
    sequentially; then every pass draws an ``(ops, n_cores)`` index
    matrix and issues it op-major, core-minor, as one batch with a
    per-access core vector, so cross-core LLC interactions are those of
    the interleaved per-access loop.
    """
    hierarchy = context.hierarchy
    n_cores, n_lines = table.shape
    rng = np.random.default_rng(seed)
    warm_lines = min(n_lines, WARM_LINES_CAP)
    steady_ops = STEADY_OPS["write" if write else "read"]
    core_ids = np.arange(n_cores)
    for core in range(n_cores):
        hierarchy.access_batch(table[core, :warm_lines], write, core)
    # Unmeasured randomised pass reaches steady state (STEADY_OPS).
    indices = rng.integers(0, n_lines, size=(steady_ops, n_cores))
    hierarchy.access_batch(
        table[core_ids, indices].ravel(), write, list(range(n_cores)) * steady_ops
    )
    indices = rng.integers(0, n_lines, size=(n_ops, n_cores))
    result = hierarchy.access_batch(
        table[core_ids, indices].ravel(), write, list(range(n_cores)) * n_ops
    )
    per_core = result.cycles.reshape(n_ops, n_cores).sum(axis=0)
    return [int(c) for c in per_core]


def run_fig07(
    spec: MachineSpec = HASWELL_E5_2667V3,
    sizes: List[int] = None,
    n_ops: int = 2000,
    n_cores: int = None,
    seed: int = 0,
    engine: str = "fast",  # pinned: e2ebench/digests.json and the fig07 golden
) -> OpsSweepResult:
    """Run the Fig. 7 sweep for reads and writes.

    Args:
        spec: machine model.
        sizes: array sizes in bytes (default: the paper's 13 points).
        n_ops: measured random accesses per core per point.
        n_cores: cores used (default: all).
        seed: RNG seed.
        engine: must be ``"fast"``; kept because the benchmark's
            pinned params and the golden baseline name it.

    Raises:
        ValueError: ``n_ops`` is not positive, a size is under one
            cache line, ``n_cores`` is outside ``1..spec.n_cores`` or
            ``engine`` is not ``"fast"``.
    """
    require_fast_engine(engine)
    sizes = sizes if sizes is not None else list(PAPER_SIZES)
    n_cores = n_cores if n_cores is not None else spec.n_cores
    if n_ops <= 0:
        raise ValueError(f"n_ops must be positive, got {n_ops}")
    if not 1 <= n_cores <= spec.n_cores:
        raise ValueError(f"n_cores must be in 1..{spec.n_cores}, got {n_cores}")
    for size in sizes:
        if size < CACHE_LINE:
            raise ValueError(f"sizes must be at least {CACHE_LINE} bytes, got {size}")
    result = OpsSweepResult(sizes=sizes, normal_mops={}, slice_mops={})
    for op_name, write in (("read", False), ("write", True)):
        normal_series: List[float] = []
        slice_series: List[float] = []
        for size in sizes:
            n_lines = size // CACHE_LINE
            table = np.empty((n_cores, n_lines), dtype=np.uint64)
            # Normal: per-core contiguous arrays.
            ctx = SliceAwareContext(spec, hugepage_bytes=max(2 << 30, 2 * size * n_cores), seed=seed)
            offsets = np.arange(n_lines, dtype=np.uint64) * np.uint64(CACHE_LINE)
            for core in range(n_cores):
                table[core] = np.uint64(ctx.allocate_normal(size).base) + offsets
            cycles = _run_size(ctx, table, n_ops, write, seed)
            normal_series.append(_system_mops(cycles, n_ops, spec.freq_ghz))
            # Slice-aware: per-core slice-local arrays.
            ctx = SliceAwareContext(spec, seed=seed)
            block = ctx.hash.n_slices
            span = n_lines * block * CACHE_LINE
            for core in range(n_cores):
                page = ctx.address_space.mmap_auto(span)
                table[core] = SliceLocalArray(
                    base_phys=page.phys,
                    n_lines=n_lines,
                    slice_hash=ctx.hash,
                    target_slice=ctx.preferred_slice(core),
                    block_lines=block,
                ).line_addresses()
            cycles = _run_size(ctx, table, n_ops, write, seed)
            slice_series.append(_system_mops(cycles, n_ops, spec.freq_ghz))
        result.normal_mops[op_name] = normal_series
        result.slice_mops[op_name] = slice_series
    return result


def format_fig07(result: OpsSweepResult, spec: MachineSpec = HASWELL_E5_2667V3) -> str:
    """Render both Fig. 7 panels as tables with regime annotations."""
    def label(size: int) -> str:
        if size <= spec.l2_bytes:
            regime = "L2"
        elif size <= spec.llc_slice_bytes:
            regime = "slice"
        elif size <= spec.llc_bytes:
            regime = "LLC"
        else:
            regime = "DRAM"
        units = [(1 << 20, "M"), (1 << 10, "K")]
        for unit, suffix in units:
            if size >= unit:
                return f"{size // unit}{suffix} ({regime})"
        return f"{size}B ({regime})"

    out = ["Fig. 7 — system MOPS vs per-core array size (8 cores)"]
    for op_name in ("read", "write"):
        out.append(f"[{op_name}]")
        out.append("size          | normal MOPS | slice-aware MOPS | gain %")
        for i, size in enumerate(result.sizes):
            normal = result.normal_mops[op_name][i]
            aware = result.slice_mops[op_name][i]
            gain = (aware / normal - 1) * 100 if normal else 0.0
            out.append(
                f"{label(size):<13} | {normal:>11.1f} | {aware:>16.1f} | {gain:>+6.1f}"
            )
    return "\n".join(out)
def merge_ops_sweeps(parts: List[OpsSweepResult]) -> OpsSweepResult:
    """Concatenate per-size sweep results back into one sweep.

    Each size point runs against fresh contexts with seed-derived
    RNGs, so a sweep over ``[a, b]`` equals the concatenation of the
    sweeps over ``[a]`` and ``[b]`` bit-for-bit — which is what lets
    the lab runner fan the Fig. 7 x-axis out across workers.
    """
    merged = OpsSweepResult(sizes=[], normal_mops={}, slice_mops={})
    for part in parts:
        merged.sizes.extend(part.sizes)
        for op, series in part.normal_mops.items():
            merged.normal_mops.setdefault(op, []).extend(series)
        for op, series in part.slice_mops.items():
            merged.slice_mops.setdefault(op, []).extend(series)
    return merged


def fig07_to_dict(result: OpsSweepResult) -> dict:
    """JSON-ready form of the OPS sweep (lab/CLI ``--json``)."""
    return {
        "sizes": [int(s) for s in result.sizes],
        "normal_mops": {
            op: [float(v) for v in series]
            for op, series in result.normal_mops.items()
        },
        "slice_mops": {
            op: [float(v) for v in series]
            for op, series in result.slice_mops.items()
        },
    }
