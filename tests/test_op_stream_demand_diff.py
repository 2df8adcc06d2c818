"""Differential tests: replayed demand ops versus ``access_batch``.

:meth:`FastEngine.run_op_stream` runs the same demand body as
``access_batch``'s batch loop: one core-valid bit set per L2 miss (on
an inclusive LLC, at the slot hit or filled), no drain
for a clean victim of an inclusive LLC, the unmasked-LRU LLC miss fill
inlined.  Each test charges one random trace of single-line demand ops
both ways, on twin hierarchies, in the same chunks: once as
``(kind, line, line, core)`` ops through ``run_op_stream`` and once as
addresses, write flags and cores through ``access_batch``.  Per-access
cycles and the full state fingerprint must agree.

The geometry is shrunk so the trace forces LLC evictions,
back-invalidations and dirty drains.  Several cores issue, with
writes, and core 1 has a prefetcher.  The first half of the trace runs
with CAT off, where every LLC miss fill runs inlined; the second half
puts core 0 under a CAT mask, which sends every fill through the
general fill helper.  Both LLC kinds are covered: Haswell's inclusive
one and Skylake's non-inclusive one.
"""

import dataclasses
import random

import pytest

from repro.cachesim.counters import EVENT_EVICTIONS, EVENT_HITS
from repro.cachesim.ddio import DdioEngine
from repro.cachesim.diff import random_trace, state_fingerprint
from repro.cachesim.engine import OP_READ, OP_WRITE
from repro.cachesim.machines import (
    HASWELL_E5_2667V3,
    SKYLAKE_GOLD_6134,
    build_hierarchy,
)
from repro.cachesim.prefetch import StreamerPrefetcher

pytestmark = pytest.mark.differential

SHRINK = dict(l1_sets=8, l1_ways=2, l2_sets=16, l2_ways=4, llc_sets=32, llc_ways=8)
SPECS = {
    "haswell-inclusive": dataclasses.replace(HASWELL_E5_2667V3, **SHRINK),
    "skylake-non-inclusive": dataclasses.replace(SKYLAKE_GOLD_6134, **SHRINK),
}

N_CORES = 4
CHUNK = 500


def charge(spec, trace, as_ops: bool):
    prefetchers = [None, StreamerPrefetcher(trigger=1)] + [None] * (spec.n_cores - 2)
    hierarchy = build_hierarchy(spec, prefetchers=prefetchers, seed=3, sanitize=False)
    cycles = []
    for start in range(0, len(trace), CHUNK):
        if start == len(trace) // 2:
            cat = hierarchy.llc.cat
            cat.define_clos(1, 0b00001111)
            cat.assign_core(0, 1)
        lines = trace.addresses[start:start + CHUNK]
        writes = trace.writes[start:start + CHUNK]
        cores = trace.cores[start:start + CHUNK]
        if as_ops:
            ops = [
                (OP_WRITE if write else OP_READ, line, line, core)
                for line, write, core in zip(lines, writes, cores)
            ]
            per_op = hierarchy.fast_engine().run_op_stream(
                ops, [DdioEngine(hierarchy)]
            )
        else:
            per_op = hierarchy.access_batch(lines, writes, cores).cycles
        cycles += per_op.tolist()
    return cycles, state_fingerprint(hierarchy)


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_replayed_demand_ops_match_access_batch(name, seed):
    spec = SPECS[name]
    trace = random_trace(
        random.Random(seed), 6000, N_CORES, hot_lines=48, warm_span=1 << 18
    )
    got = charge(spec, trace, as_ops=True)
    want = charge(spec, trace, as_ops=False)
    assert got[0] == want[0]
    assert got[1] == want[1]
    # The trace hit and overflowed the LLC and drained dirty lines.
    fingerprint = got[1]
    assert sum(c.get(EVENT_EVICTIONS, 0) for c in fingerprint["counters"]) > 0
    assert sum(c.get(EVENT_HITS, 0) for c in fingerprint["counters"]) > 0
    assert fingerprint["stats"]["dram_writebacks"] > 0
    assert fingerprint["stats"]["l2_hits"] > 0
