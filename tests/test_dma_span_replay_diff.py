"""Differential tests: replayed DMA spans versus the per-op oracle.

A recorded dataplane stream interleaves demand spans with NIC DMA
spans — multi-line payload writes and reads, and single-line ring
descriptors.  :meth:`FastEngine.run_op_stream` resolves every line of
every span itself (slice from the hash's scalar form, set and slot by
shift and mask).  Each test replays one randomized stream through it and,
on a hierarchy built inside :func:`~repro.cachesim.diff.
reference_engine`, through the reference ``read``/``write`` and
``DdioEngine`` calls the recorder displaced, op by op; per-op cycles,
``DdioStats`` and the full state fingerprint must agree.

The geometry is shrunk so the I/O ways overflow within a few thousand
ops.  The cases cover the two-way LRU DDIO victim pick, the general
scan over four DDIO ways, a non-LRU policy (``srrip``), a run with
cores under a CAT mask, a non-inclusive LLC, one engine per tenant,
and a core with a prefetcher.
"""

import dataclasses
import random

import pytest

from repro.cachesim.counters import EVENT_DDIO_FILLS, EVENT_EVICTIONS
from repro.cachesim.ddio import DdioEngine
from repro.cachesim.diff import reference_engine, state_fingerprint
from repro.cachesim.engine import OP_DMA_READ, OP_DMA_WRITE, OP_READ, OP_WRITE
from repro.cachesim.machines import (
    HASWELL_E5_2667V3,
    SKYLAKE_GOLD_6134,
    build_hierarchy,
)
from repro.cachesim.prefetch import StreamerPrefetcher
from repro.mem.address import CACHE_LINE
from repro.net.dataplane import replay_ops

pytestmark = pytest.mark.differential

SHRINK = dict(l1_sets=8, l1_ways=2, l2_sets=16, l2_ways=4, llc_sets=32, llc_ways=8)
SMALL_HASWELL = dataclasses.replace(HASWELL_E5_2667V3, **SHRINK)
SMALL_SKYLAKE = dataclasses.replace(SKYLAKE_GOLD_6134, **SHRINK)

N_BUFFERS = 96
BUFFER_BASE = 1 << 22
RING_BASE = 1 << 26
RING_SLOTS = 64
HEAP_BASE = 1 << 28


def random_stream(seed: int, n_ops: int, n_ddios: int):
    """Dataplane-shaped ops: payloads DMA-written into rotating
    buffers, read and partly rewritten by cores, DMA-read back, with
    single-line descriptor writes/reads and unrelated demand traffic."""
    rng = random.Random(seed)
    ops = []
    for _ in range(n_ops):
        roll = rng.random()
        aux = rng.randrange(n_ddios)
        if roll < 0.15:
            slot = RING_BASE + rng.randrange(RING_SLOTS) * CACHE_LINE
            kind = OP_DMA_WRITE if rng.random() < 0.5 else OP_DMA_READ
            ops.append((kind, slot, slot, aux))
            continue
        buf = BUFFER_BASE + rng.randrange(N_BUFFERS) * 2048
        n_lines = rng.randint(1, 24)
        last = buf + (n_lines - 1) * CACHE_LINE
        if roll < 0.45:
            ops.append((OP_DMA_WRITE, buf, last, aux))
        elif roll < 0.6:
            ops.append((OP_DMA_READ, buf, last, aux))
        else:
            core = rng.randrange(4)
            if roll < 0.8:
                first = buf + rng.randrange(n_lines) * CACHE_LINE
            else:
                first = HEAP_BASE + rng.randrange(4096) * CACHE_LINE
            span = rng.randint(1, 3) * CACHE_LINE - CACHE_LINE
            kind = OP_WRITE if rng.random() < 0.3 else OP_READ
            ops.append((kind, first, first + span, core))
    return ops


CASES = {
    "two-ddio-lru": dict(spec=SMALL_HASWELL, ddio_ways=2),
    "four-ddio-lru": dict(spec=SMALL_HASWELL, ddio_ways=4),
    "srrip": dict(spec=SMALL_HASWELL, ddio_ways=2, policy="srrip"),
    "srrip-four-ddio": dict(spec=SMALL_HASWELL, ddio_ways=4, policy="srrip"),
    "cat-mask": dict(spec=SMALL_HASWELL, ddio_ways=2, cat=True),
    "non-inclusive": dict(spec=SMALL_SKYLAKE, ddio_ways=2),
    "multi-ddio": dict(spec=SMALL_HASWELL, ddio_ways=2, n_ddios=3),
    "prefetcher": dict(spec=SMALL_HASWELL, ddio_ways=4, prefetch=True),
}


def replay(case, ops, oracle: bool):
    spec = case["spec"]
    n_ddios = case.get("n_ddios", 1)
    prefetchers = None
    if case.get("prefetch"):
        prefetchers = [None, StreamerPrefetcher(trigger=1)] + [None] * (spec.n_cores - 2)

    def build():
        return build_hierarchy(
            spec,
            policy=case.get("policy", "lru"),
            ddio_ways=case["ddio_ways"],
            prefetchers=prefetchers,
            seed=5,
            sanitize=False,
        )

    if oracle:
        with reference_engine():
            hierarchy = build()
        assert hierarchy.engine_name == "reference"
    else:
        hierarchy = build()
    if case.get("cat"):
        cat = hierarchy.llc.cat
        cat.define_clos(1, 0b00001111)
        cat.define_clos(2, 0b11110000)
        cat.assign_core(0, 1)
        cat.assign_core(2, 2)
    ddios = [DdioEngine(hierarchy) for _ in range(n_ddios)]
    cycles = []
    # Several replays per stream, as the chunked callers issue them.
    for start in range(0, len(ops), 700):
        chunk = ops[start:start + 700]
        cycles += replay_ops(hierarchy, chunk, ddios, multi_ddio=n_ddios > 1).tolist()
    return (
        cycles,
        [dataclasses.asdict(ddio.stats) for ddio in ddios],
        state_fingerprint(hierarchy),
    )


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("seed", [0, 1])
def test_replayed_spans_match_the_per_op_oracle(name, seed):
    case = CASES[name]
    ops = random_stream(seed, 3000, case.get("n_ddios", 1))
    assert any(op[0] == OP_DMA_WRITE and op[2] > op[1] for op in ops)
    assert any(op[0] == OP_DMA_WRITE and op[2] == op[1] for op in ops)
    assert any(op[0] == OP_DMA_READ and op[2] > op[1] for op in ops)
    assert any(op[0] == OP_DMA_READ and op[2] == op[1] for op in ops)
    got = replay(case, ops, oracle=False)
    expected = replay(case, ops, oracle=True)
    assert got[0] == expected[0]
    assert got[1] == expected[1]
    assert got[2] == expected[2]
    # The stream overflowed the I/O ways and hit and missed on reads.
    counters = got[2]["counters"]
    assert sum(c.get(EVENT_EVICTIONS, 0) for c in counters) > 0
    assert sum(c.get(EVENT_DDIO_FILLS, 0) for c in counters) > 0
    stats = got[1]
    assert sum(s["read_hits"] for s in stats) > 0
    assert sum(s["read_misses"] for s in stats) > 0
