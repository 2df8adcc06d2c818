"""The fixed memory cost of one full-geometry simulated machine.

Every slice of the LLC keeps one line -> way dict and typed per-slot
buffers with 4-byte LRU stamps; nothing is allocated per set.  A fresh
Haswell (8 slices x 2048 sets x 20 ways) and a fresh Skylake-SP
(18 x 2048 x 11) hierarchy must keep that layout and stay under a
``tracemalloc`` bound taken from it: 4.71 and 5.67 MiB on CPython 3.11
(Haswell's inclusive LLC adds one core-valid byte per slot, 0.31 MiB,
to the 4.40 MiB before it), against 6.78 and 9.76 MiB when each set
had its own dict and stamps took 8 bytes.  Either one coming back
alone (+1.1 / +2.6 MiB for even empty per-set dicts, +1.25 / +1.55 MiB
for the stamps) crosses the bound.
"""

import gc
import tracemalloc

import pytest

from repro.cachesim.machines import (
    HASWELL_E5_2667V3,
    SKYLAKE_GOLD_6134,
    build_hierarchy,
)
from repro.cachesim.replacement import LruPolicy

MIB = 1 << 20

#: Spec and the bound (bytes) on what building one hierarchy leaves
#: allocated.
MACHINES = {
    "haswell": (HASWELL_E5_2667V3, 4.75 * MIB),
    "skylake": (SKYLAKE_GOLD_6134, 6.1 * MIB),
}


def traced_build(spec) -> int:
    """Bytes that building one fresh hierarchy leaves allocated."""
    build_hierarchy(spec)  # first build: imports and module-level tables
    gc.collect()
    tracemalloc.start()
    try:
        hierarchy = build_hierarchy(spec)
        allocated, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del hierarchy
    return allocated


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_one_map_per_slice_and_four_byte_stamps(machine):
    spec, _bound = MACHINES[machine]
    hierarchy = build_hierarchy(spec)
    slices = hierarchy.llc.slices
    assert len(slices) == spec.n_slices
    assert len({id(s._where) for s in slices}) == len(slices)
    for slice_cache in slices:
        assert type(slice_cache._where) is dict and not slice_cache._where
        assert slice_cache.n_sets == spec.llc_sets
        policy = slice_cache._policy
        assert isinstance(policy, LruPolicy)
        assert policy._stamp.typecode == "I" and policy._stamp.itemsize == 4
        assert len(policy._stamp) == spec.llc_sets * spec.llc_ways
        # No container on the slice grows with its sets.
        for value in vars(slice_cache).values():
            if isinstance(value, (list, tuple, dict)):
                assert len(value) < spec.llc_sets


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_construction_stays_under_bound(machine):
    spec, bound = MACHINES[machine]
    allocated = traced_build(spec)
    assert allocated < bound, f"{allocated / MIB:.2f} MiB"
