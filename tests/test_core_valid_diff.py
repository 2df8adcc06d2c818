"""Differential tests: lines shared by several cores, on both engines.

The fast engine snoops and back-invalidates only the cores an
inclusive LLC slot's core-valid bits name, and sweeps every active
core on a non-inclusive LLC.  So a bit missing for one sharer would
leave a stale private copy that the reference path (which sweeps every
active core) removes.  Each test drives twin shrunk hierarchies, one
built inside :func:`~repro.cachesim.diff.reference_engine`, through the
same random steps over a small pool of lines that four cores read and
write: interleaved batches, scalar reads and writes, op-stream replays,
DDIO writes and reads, LLC-evicting sweeps, ``clflush`` and
``drop_all``.  After every step the cycles, ``DdioStats`` and state
fingerprint must agree, and the fast twin's bits must cover every
private copy.
"""

import dataclasses
import random

import pytest

from repro.cachesim.ddio import DdioEngine
from repro.cachesim.diff import reference_engine, state_fingerprint
from repro.cachesim.engine import OP_DMA_READ, OP_DMA_WRITE, OP_READ, OP_WRITE
from repro.cachesim.machines import (
    HASWELL_E5_2667V3,
    SKYLAKE_GOLD_6134,
    build_hierarchy,
)
from repro.mem.address import CACHE_LINE
from repro.net.dataplane import replay_ops

from tests.engines import assert_core_valid_superset

pytestmark = pytest.mark.differential

SHRINK = dict(l1_sets=8, l1_ways=2, l2_sets=16, l2_ways=4, llc_sets=32, llc_ways=8)
SPECS = {
    "haswell-small": dataclasses.replace(HASWELL_E5_2667V3, **SHRINK),
    "skylake-small": dataclasses.replace(SKYLAKE_GOLD_6134, **SHRINK),
}

N_CORES = 4
SHARED_BASE = 1 << 24
N_SHARED = 160
HEAP_BASE = 1 << 30
N_HEAP = 1 << 14


def shared_line(rng):
    return SHARED_BASE + rng.randrange(N_SHARED) * CACHE_LINE


def shared_span(rng, max_lines=8):
    first = rng.randrange(N_SHARED)
    n_lines = rng.randint(1, min(max_lines, N_SHARED - first))
    return SHARED_BASE + first * CACHE_LINE, n_lines * CACHE_LINE


def run_step(hierarchy, ddio, rng):
    """Apply one random step; return what it charged."""
    roll = rng.random()
    if roll < 0.3:
        n = 32
        addresses = [
            shared_line(rng) if rng.random() < 0.8
            else HEAP_BASE + rng.randrange(N_HEAP) * CACHE_LINE
            for _ in range(n)
        ]
        kinds = [rng.random() < 0.25 for _ in range(n)]
        cores = [rng.randrange(N_CORES) for _ in range(n)]
        result = hierarchy.access_batch(addresses, kinds, cores)
        return ("batch", result.cycles.tolist(), result.levels.tolist())
    if roll < 0.42:
        core = rng.randrange(N_CORES)
        address, size = shared_span(rng, 3)
        if rng.random() < 0.3:
            return ("write", hierarchy.write(core, address, size))
        return ("read", hierarchy.read(core, address, size))
    if roll < 0.57:
        address, size = shared_span(rng)
        return ("dma-write", ddio.dma_write(address, size))
    if roll < 0.62:
        address, size = shared_span(rng)
        return ("dma-read", ddio.dma_read(address, size))
    if roll < 0.77:
        ops = []
        for _ in range(12):
            address, size = shared_span(rng, 4)
            last = address + size - CACHE_LINE
            kind = rng.choice((OP_READ, OP_READ, OP_WRITE, OP_DMA_WRITE, OP_DMA_READ))
            aux = rng.randrange(N_CORES) if kind <= OP_WRITE else 0
            ops.append((kind, address, last, aux))
        return ("replay", replay_ops(hierarchy, ops, [ddio]).tolist())
    if roll < 0.92:
        # A sweep of heap lines from one core evicts shared lines
        # from the LLC, back-invalidating their sharers.
        core = rng.randrange(N_CORES)
        start = rng.randrange(N_HEAP - 384)
        addresses = [HEAP_BASE + (start + i) * CACHE_LINE for i in range(384)]
        result = hierarchy.access_batch(addresses, False, core)
        return ("sweep", result.cycles.tolist())
    if roll < 0.98:
        address, size = shared_span(rng)
        hierarchy.clflush(address, size)
        return ("clflush",)
    hierarchy.drop_all()
    return ("drop-all",)


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("seed", [0, 1])
def test_shared_lines_match_the_reference(name, seed):
    spec = SPECS[name]
    with reference_engine():
        reference = build_hierarchy(spec, seed=3, sanitize=False)
    fast = build_hierarchy(spec, seed=3, sanitize=False)
    assert (reference.engine_name, fast.engine_name) == ("reference", "fast")
    ddios = [DdioEngine(reference), DdioEngine(fast)]
    rng_ref, rng_fast = random.Random(seed), random.Random(seed)
    for step in range(300):
        expected = run_step(reference, ddios[0], rng_ref)
        got = run_step(fast, ddios[1], rng_fast)
        assert got == expected, (step, expected[0])
        assert ddios[1].stats == ddios[0].stats, step
        assert state_fingerprint(fast) == state_fingerprint(reference), step
        assert_core_valid_superset(fast)
    # The steps did share lines: some lines sat in several cores' L2s.
    assert fast.stats.llc_hits and ddios[1].stats.write_lines
