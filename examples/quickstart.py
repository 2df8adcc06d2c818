#!/usr/bin/env python3
"""Quickstart: slice-aware memory management in five minutes.

Builds the simulated Haswell machine from the paper, measures the NUCA
latency from core 0 to every LLC slice (the paper's Fig. 5a
experiment), then shows the payoff: random reads over a 1 MB working
set are faster when the memory is allocated in core 0's closest slice.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.cachesim.machines import HASWELL_E5_2667V3
from repro.core.profiles import measure_slice_latencies
from repro.core.slice_aware import SliceAwareContext


def main() -> None:
    # 1. A simulated Xeon E5-2667 v3: 8 cores, 8 x 2.5 MB LLC slices,
    #    the reverse-engineered Complex Addressing hash, a ring NUCA.
    context = SliceAwareContext(HASWELL_E5_2667V3)
    print(f"machine: {context.spec.name}")
    print(f"LLC: {context.spec.n_slices} slices x "
          f"{context.spec.llc_slice_bytes // 1024} kB\n")

    # 2. Measure per-slice access latency from core 0 (paper §2.2).
    profile = measure_slice_latencies(
        context.hierarchy, context.hugepage, context.address_space.pagemap,
        core=0, runs=5,
    )
    print("read latency from core 0 (cycles):")
    for s, cycles in enumerate(profile.read_cycles):
        bar = "#" * int(cycles)
        print(f"  slice {s}: {cycles:5.1f}  {bar}")
    print(f"  -> NUCA spread: {profile.read_spread:.0f} cycles; "
          f"closest slice: {profile.fastest_slice}\n")

    # 3. Allocate one working set normally and one slice-aware.
    working_set = 1 << 20  # 1 MB: bigger than L2, fits in a slice
    normal = context.allocate_normal(working_set)
    aware = context.allocate_slice_aware(working_set, core=0)

    # 4. Random reads over both; count cycles on the simulator.
    def run(buffer) -> int:
        hierarchy = context.hierarchy
        n_lines = buffer.n_lines
        for i in range(n_lines):                     # warm
            hierarchy.read(0, buffer.line_of(i))
        rng = np.random.default_rng(0)
        total = 0
        for i in rng.integers(0, n_lines, 5000):     # measure
            total += hierarchy.read(0, buffer.line_of(int(i)))
        return total

    cycles_normal = run(normal)
    cycles_aware = run(aware)
    speedup = (cycles_normal - cycles_aware) / cycles_normal * 100
    print(f"random reads over {working_set >> 20} MB:")
    print(f"  normal allocation      : {cycles_normal:>9} cycles")
    print(f"  slice-aware (slice {context.preferred_slice(0)})  : "
          f"{cycles_aware:>9} cycles")
    print(f"  speedup                : {speedup:+.1f}%  "
          f"(paper Fig. 6a: up to ~15-20% for the closest slice)")


if __name__ == "__main__":
    main()
