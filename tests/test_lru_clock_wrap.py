"""LRU stamps stay exact past the 4-byte clock range.

:class:`LruPolicy` keeps its stamps in an ``array('I')``.  Stamps are
only compared within a set, so before a slice's clock could pass
``2**32 - 1`` each set's stamps are rewritten to their rank order and
the clock restarts (:meth:`LruPolicy.renumber`): ``touch`` checks on
every step, the fast engine once per entry call.

The policy test drives two policies with the same touches and victim
queries, one of them renumbered at random points.  The hierarchy test
warms three twins from clock 0, moves every slice's clock of two of
them (one on the fast engine, one on the reference) next to the
renumbering threshold or to ``2**32 - 1``, and serves one write-heavy
stream of batches, op-stream replays, scalar writes and DMA spans on
all three.  Per-access cycles and levels, DMA results and the full
state fingerprint after every step (so every victim) must match the
twin whose clocks never left the bottom of the range.
"""

import dataclasses
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.counters import EVENT_EVICTIONS
from repro.cachesim.ddio import DdioEngine
from repro.cachesim.diff import random_trace, state_fingerprint
from repro.cachesim.engine import OP_DMA_READ, OP_DMA_WRITE, OP_READ, OP_WRITE
from repro.cachesim.machines import (
    HASWELL_E5_2667V3,
    SKYLAKE_GOLD_6134,
    build_hierarchy,
)
from repro.cachesim.replacement import LRU_RENUMBER_AT, LruPolicy
from repro.mem.address import CACHE_LINE

from tests.engines import start_on

pytestmark = pytest.mark.differential

STAMP_MAX = (1 << 32) - 1

SHRINK = dict(l1_sets=8, l1_ways=2, l2_sets=16, l2_ways=4, llc_sets=32, llc_ways=8)
SPECS = {
    "haswell-inclusive": dataclasses.replace(HASWELL_E5_2667V3, **SHRINK),
    "skylake-non-inclusive": dataclasses.replace(SKYLAKE_GOLD_6134, **SHRINK),
}

#: Clocks the wrapped twins start from: just below the threshold, so
#: the fast engine crosses it inside a call and renumbers at the next
#: entry while the reference renumbers on the exact touch; and the top
#: of the stamp range, where both renumber at once.
WRAP_CLOCKS = {"below-threshold": LRU_RENUMBER_AT - 40, "range-top": STAMP_MAX - 64}

N_CORES = 4


def jump_clock(policy: LruPolicy, clock: int) -> None:
    """Move *policy*'s clock to *clock*, shifting every used stamp by
    the same amount (so no comparison within a set changes)."""
    shift = clock - policy._clock
    policy._stamp[:] = array("I", [s + shift if s else 0 for s in policy._stamp])
    policy._clock = clock


@st.composite
def policy_streams(draw):
    n_ways = draw(st.integers(1, 8))
    n_sets = draw(st.sampled_from([1, 2, 4]))
    op = st.one_of(
        st.tuples(st.just("touch"), st.integers(0, n_ways - 1), st.integers(0, n_sets - 1)),
        st.tuples(
            st.just("victim"),
            st.lists(st.integers(0, n_ways - 1), min_size=1, max_size=n_ways, unique=True),
            st.integers(0, n_sets - 1),
        ),
        st.tuples(st.just("renumber")),
        st.tuples(st.just("jump")),
    )
    return n_ways, n_sets, draw(st.lists(op, max_size=120))


@settings(max_examples=200, deadline=None)
@given(stream=policy_streams())
def test_renumbered_policy_picks_the_same_victims(stream):
    n_ways, n_sets, ops = stream
    plain = LruPolicy(n_ways, n_sets=n_sets)
    wrapped = LruPolicy(n_ways, n_sets=n_sets)
    for op in ops:
        if op[0] == "touch":
            plain.touch(op[1], op[2])
            wrapped.touch(op[1], op[2])
        elif op[0] == "victim":
            assert wrapped.victim(op[1], op[2]) == plain.victim(op[1], op[2])
        elif op[0] == "renumber":
            wrapped.renumber()
            assert wrapped._clock == n_ways
        elif wrapped._clock < STAMP_MAX - 200:
            # Next touch finds the clock past the threshold.
            jump_clock(wrapped, STAMP_MAX - 200)
        assert wrapped._clock < STAMP_MAX
    for set_i in range(n_sets):
        ways = list(range(n_ways))
        assert wrapped.victim(ways, set_i) == plain.victim(ways, set_i)


def test_renumber_keeps_rank_order_and_ties():
    policy = LruPolicy(4, n_sets=2)
    policy._stamp[:] = array("I", [9, 0, 9, 4, STAMP_MAX, 7, 8, 6])
    policy._clock = STAMP_MAX
    policy.touch(1, 1)
    assert list(policy._stamp) == [2, 0, 2, 1, 3, 5, 2, 0]
    assert policy._clock == 5
    assert policy._stamp.itemsize == 4


def make_stream(seed: int):
    """One write-heavy stream of steps: batches, op streams (demand and
    DMA spans), scalar writes and DMA spans."""
    rng = random.Random(seed)
    trace = random_trace(
        rng, 4800, N_CORES, hot_lines=48, warm_span=1 << 18, write_fraction=0.7
    )
    buffers = [rng.randrange(0, 1 << 20) & ~(CACHE_LINE - 1) for _ in range(24)]
    steps = []
    for start in range(0, len(trace), 600):
        end = start + 600
        steps.append(
            ("batch", trace.addresses[start:end], trace.writes[start:end],
             trace.cores[start:end])
        )
        ops = []
        for _ in range(40):
            r = rng.random()
            first = rng.choice(buffers)
            last = first + rng.randrange(0, 24) * CACHE_LINE
            if r < 0.3:
                ops.append((OP_DMA_WRITE, first, last, 0))
            elif r < 0.45:
                ops.append((OP_DMA_READ, first, last, 0))
            else:
                kind = OP_WRITE if rng.random() < 0.7 else OP_READ
                ops.append((kind, first, last, rng.randrange(N_CORES)))
        steps.append(("ops", ops))
        steps.append(("write", rng.randrange(N_CORES), rng.choice(buffers), 200))
        steps.append(("dma", rng.choice(buffers), rng.randrange(64, 1500)))
    return steps


def serve(hierarchy, ddio, step):
    """Run one step; returns its observable outcome."""
    kind = step[0]
    if kind == "batch":
        result = hierarchy.access_batch(step[1], step[2], step[3])
        return result.cycles.tolist(), result.levels.tolist()
    if kind == "ops":
        if hierarchy.engine_name == "fast":
            return hierarchy.fast_engine().run_op_stream(step[1], [ddio]).tolist()
        out = []
        for op, first, last, aux in step[1]:
            size = last - first + CACHE_LINE
            if op == OP_DMA_WRITE:
                ddio.dma_write(first, size)
                out.append(0)
            elif op == OP_DMA_READ:
                ddio.dma_read(first, size)
                out.append(0)
            elif op == OP_WRITE:
                out.append(hierarchy.write(aux, first, size))
            else:
                out.append(hierarchy.read(aux, first, size))
        return out
    if kind == "write":
        return hierarchy.write(step[1], step[2], step[3])
    return ddio.dma_write(step[1], step[2])


@pytest.mark.parametrize("wrap", sorted(WRAP_CLOCKS))
@pytest.mark.parametrize("name", sorted(SPECS))
def test_wrapped_clocks_serve_like_clock_zero(name, wrap):
    spec = SPECS[name]
    twins = {
        engine_and_clock: start_on(
            engine_and_clock[0], build_hierarchy, spec, seed=3, sanitize=False
        )
        for engine_and_clock in (("fast", 0), ("fast", wrap), ("reference", wrap))
    }
    ddios = {key: DdioEngine(h) for key, h in twins.items()}
    warmup, stream = make_stream(0), make_stream(1)
    for key, hierarchy in twins.items():
        for step in warmup:
            serve(hierarchy, ddios[key], step)
        if key[1] != 0:
            for slice_cache in hierarchy.llc.slices:
                jump_clock(slice_cache._policy, WRAP_CLOCKS[wrap])
    outcomes = {key: [] for key in twins}
    for step in stream:
        for key, hierarchy in twins.items():
            outcomes[key].append(
                (serve(hierarchy, ddios[key], step), state_fingerprint(hierarchy))
            )
    expected = outcomes[("fast", 0)]
    for key in (("fast", wrap), ("reference", wrap)):
        assert outcomes[key] == expected, key
        assert ddios[key].stats == ddios[("fast", 0)].stats
        for slice_cache in twins[key].llc.slices:
            # Every slice renumbered during the stream.
            assert slice_cache._policy._clock < WRAP_CLOCKS[wrap]
    # The stream evicted from the LLC and wrote dirty lines back.
    final = expected[-1][1]
    assert sum(c.get(EVENT_EVICTIONS, 0) for c in final["counters"]) > 0
    assert final["stats"]["dram_writebacks"] > 0
