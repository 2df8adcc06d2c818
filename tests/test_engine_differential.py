"""Differential tests: the fast batch engine versus the reference path.

Every test replays one randomized trace through two freshly-built
hierarchies — one driven access-by-access through ``access_line``, one
through ``access_batch`` with the fast engine — and requires identical
per-access outcomes (cycles, servicing level, slice) plus identical
final state fingerprints, down to the per-slice uncore counters.

Both machine shapes are covered: Haswell (inclusive LLC, complex
addressing hash, ring) and Skylake (non-inclusive LLC, modular hash,
mesh), each at a shrunken geometry that forces heavy eviction traffic
in a few thousand accesses, plus the full published geometries.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.cachesim.cache import INVALID_TAG
from repro.cachesim.ddio import DdioEngine
from repro.cachesim.diff import (
    make_rare_events,
    random_trace,
    run_differential,
    state_fingerprint,
)
from repro.cachesim.machines import (
    HASWELL_E5_2667V3,
    SKYLAKE_GOLD_6134,
    build_hierarchy,
)

from tests.engines import ENGINES, assert_core_valid_superset, start_on

pytestmark = pytest.mark.differential

SMALL_HASWELL = dataclasses.replace(
    HASWELL_E5_2667V3, l1_sets=8, l1_ways=2, l2_sets=16, l2_ways=4,
    llc_sets=32, llc_ways=8,
)
SMALL_SKYLAKE = dataclasses.replace(
    SKYLAKE_GOLD_6134, l1_sets=8, l1_ways=2, l2_sets=16, l2_ways=4,
    llc_sets=32, llc_ways=8,
)

SPECS = {
    "haswell-small": SMALL_HASWELL,
    "skylake-small": SMALL_SKYLAKE,
    "haswell-full": HASWELL_E5_2667V3,
    "skylake-full": SKYLAKE_GOLD_6134,
}


def builder(spec, **kwargs):
    return lambda: build_hierarchy(spec, **kwargs)


@pytest.mark.parametrize("name", ["haswell-small", "skylake-small"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mixed_trace_identical(name, seed):
    spec = SPECS[name]
    rng = random.Random(seed)
    trace = random_trace(rng, 8000, spec.n_cores)
    report = run_differential(builder(spec), trace, chunk_size=1024)
    assert report.equal, report.detail


@pytest.mark.parametrize("name", ["haswell-full", "skylake-full"])
def test_full_geometry_identical(name):
    spec = SPECS[name]
    rng = random.Random(42)
    trace = random_trace(rng, 6000, spec.n_cores)
    report = run_differential(builder(spec), trace, chunk_size=512)
    assert report.equal, report.detail


@pytest.mark.parametrize("name", ["haswell-small", "skylake-small"])
def test_rare_events_between_chunks(name):
    """clflush/DDIO/CAT on the shared state between batches."""
    spec = SPECS[name]
    rng = random.Random(7)
    trace = random_trace(rng, 6000, spec.n_cores)
    events = make_rare_events(rng, trace, spec.n_cores, spec.llc_ways)
    report = run_differential(
        builder(spec), trace, chunk_size=500, rare_events=events
    )
    assert report.equal, report.detail


@pytest.mark.parametrize("name", ["haswell-small", "skylake-small"])
def test_single_core_stream(name):
    """Scalar ``core=`` argument takes the repeat-iterator path."""
    spec = SPECS[name]
    rng = random.Random(3)
    trace = random_trace(rng, 5000, 1)
    trace.cores = [2] * len(trace)
    report = run_differential(builder(spec), trace, chunk_size=640, keep_outcomes=True)
    assert report.equal, report.detail
    # Python and numpy scalar cores, on both engines' access_batch.
    for core in (2, np.int64(2), np.array(2)):
        for engine in ENGINES:
            h = start_on(engine, build_hierarchy, spec)
            batch = h.access_batch(trace.addresses, trace.writes, core)
            outcomes = list(
                zip(batch.cycles.tolist(), batch.levels.tolist(), batch.slices.tolist())
            )
            assert outcomes == report.reference_outcomes, (core, engine)


def test_loads_only_default_kinds():
    """kinds=None (all loads) must match explicit all-False writes."""
    spec = SMALL_HASWELL
    rng = random.Random(5)
    trace = random_trace(rng, 4000, spec.n_cores, write_fraction=0.0)
    report = run_differential(builder(spec), trace, chunk_size=256)
    assert report.equal, report.detail
    reference = build_hierarchy(spec)
    fast = build_hierarchy(spec)
    for address, core in zip(trace.addresses, trace.cores):
        reference.access_line(core, address, False)
    fast.access_batch(trace.addresses, None, trace.cores)
    assert state_fingerprint(reference) == state_fingerprint(fast)
    # Every scalar form of "all loads", on both engines' access_batch.
    for kinds in (False, 0, np.bool_(False), np.array(False)):
        for engine in ENGINES:
            h = start_on(engine, build_hierarchy, spec)
            h.access_batch(trace.addresses, kinds, trace.cores)
            assert state_fingerprint(h) == state_fingerprint(reference), (kinds, engine)


@pytest.mark.parametrize("policy", ["lru", "plru", "random", "srrip", "brrip"])
def test_replacement_policies(policy):
    """The engine's inlined LRU and the generic-policy fallback for
    every other policy."""
    spec = SMALL_HASWELL
    rng = random.Random(11)
    trace = random_trace(rng, 5000, spec.n_cores)
    report = run_differential(
        builder(spec, policy=policy, seed=123), trace, chunk_size=512
    )
    assert report.equal, report.detail


@pytest.mark.parametrize("name", ["haswell-small", "skylake-small"])
def test_scalar_fast_path(name):
    """The first access installs the engine's read/write; they must
    match ``access_line`` access by access."""
    spec = SPECS[name]
    rng = random.Random(13)
    trace = random_trace(rng, 4000, spec.n_cores)
    reference = build_hierarchy(spec)
    fast = build_hierarchy(spec)
    for address, write, core in zip(trace.addresses, trace.writes, trace.cores):
        expected = reference.access_line(core, address, write).cycles
        if write:
            got = fast.write(core, address)
        else:
            got = fast.read(core, address)
        assert got == expected
    assert state_fingerprint(reference) == state_fingerprint(fast)


def test_cat_partitioning_under_batches():
    """An enabled CAT partition reroutes fills identically."""
    spec = SMALL_HASWELL
    rng = random.Random(17)
    trace = random_trace(rng, 5000, spec.n_cores)

    def build():
        hierarchy = build_hierarchy(spec)
        cat = hierarchy.llc.cat
        cat.define_clos(1, 0b1111)
        for core in range(spec.n_cores // 2):
            cat.assign_core(core, 1)
        return hierarchy

    report = run_differential(build, trace, chunk_size=512)
    assert report.equal, report.detail


def test_harness_detects_divergence():
    """The harness itself must flag a deliberate mismatch."""
    spec = SMALL_HASWELL
    rng = random.Random(19)
    trace = random_trace(rng, 500, spec.n_cores)
    flip = {"first": True}

    def build():
        hierarchy = build_hierarchy(spec)
        if not flip["first"]:
            # Perturb the second (fast) hierarchy before replay.
            hierarchy.access_line(0, 0x4000, True)
        flip["first"] = False
        return hierarchy

    report = run_differential(builder(spec), trace, chunk_size=128)
    assert report.equal
    report = run_differential(build, trace, chunk_size=128)
    assert not report.equal
    assert report.detail


def test_chunk_size_does_not_matter():
    """Batch boundaries are invisible: chunk sizes give equal outcomes."""
    spec = SMALL_SKYLAKE
    rng = random.Random(23)
    trace = random_trace(rng, 3000, spec.n_cores)
    reports = [
        run_differential(builder(spec), trace, chunk_size=c, keep_outcomes=True)
        for c in (1, 37, 512, 3000)
    ]
    for report in reports:
        assert report.equal, report.detail
    baseline = reports[0].fast_outcomes
    for report in reports[1:]:
        assert report.fast_outcomes == baseline


@pytest.mark.parametrize("name", ["haswell-small", "skylake-small"])
def test_cold_fill_writes_keep_residency_superset(name):
    """Sequential cold-fill writes, one batch per core as in Fig. 7's
    warm pass, then an interleaved random pass.  Outcomes match the
    reference, and after every batch each line held in a core's L1/L2
    carries that core's core-valid bit in its slot of an inclusive
    LLC."""
    spec = SPECS[name]
    n_lines = 1024
    rng = np.random.default_rng(5)
    table = [
        [(core << 24) + i * 64 for i in range(n_lines)]
        for core in range(spec.n_cores)
    ]
    batches = [(table[core], core) for core in range(spec.n_cores)]
    indices = rng.integers(0, n_lines, size=(2000, spec.n_cores))
    batches.append(
        (
            [table[core][i] for row in indices.tolist() for core, i in enumerate(row)],
            list(range(spec.n_cores)) * len(indices),
        )
    )
    reference = start_on("reference", build_hierarchy, spec)
    fast = build_hierarchy(spec)
    for addresses, core in batches:
        expected = reference.access_batch(addresses, True, core)
        got = fast.access_batch(addresses, True, core)
        assert got.cycles.tolist() == expected.cycles.tolist()
        assert got.levels.tolist() == expected.levels.tolist()
        assert_core_valid_superset(fast)
    assert state_fingerprint(reference) == state_fingerprint(fast)


def same_set_lines(hierarchy, count, skip=0):
    """*count* lines of LLC slice ``slice_of(0)``, set 0, after *skip*."""
    llc = hierarchy.llc
    home = llc.slice_of(0)
    stride = llc.n_sets * 64
    lines = (k * stride for k in range(1 << 16))
    found = [line for line in lines if llc.slice_of(line) == home]
    return found[skip:skip + count]


def full_set_with_holes(spec, holes):
    """A reference and a fast-engine hierarchy whose LLC set 0 of slice
    ``slice_of(0)`` is full, then has the lines in *holes* clflushed."""
    pair = []
    for engine in ENGINES:
        h = start_on(engine, build_hierarchy, spec)
        for line in same_set_lines(h, spec.llc_ways):
            h.llc.fill(line, core=0)
        slice_cache = h.llc.slices[h.llc.slice_of(0)]
        for way in holes:
            h.clflush(slice_cache._tags[way])
        pair.append(h)
    return pair


@pytest.mark.parametrize("name", ["haswell-small", "skylake-small"])
@pytest.mark.parametrize("write", [False, True])
def test_refill_takes_lowest_invalid_way(name, write):
    """Demand refills of a set with invalid way 0 and a middle way, on
    both engines in lockstep: the lines the set newly takes in land in
    its lowest invalid ways.  An inclusive LLC fills on the miss, a
    non-inclusive one on the L2 evictions."""
    spec = SPECS[name]
    reference, fast = full_set_with_holes(spec, (0, spec.llc_ways // 2))
    new = same_set_lines(reference, spec.l2_ways + 2, skip=spec.llc_ways)
    for line in new:
        outcomes = []
        for h in (reference, fast):
            slice_cache = h.llc.slices[h.llc.slice_of(0)]
            free = [w for w in range(spec.llc_ways) if slice_cache._tags[w] == INVALID_TAG]
            before = set(slice_cache.lines())
            batch = h.access_batch([line], write, 0)
            outcomes.append((batch.cycles.tolist(), batch.levels.tolist()))
            added = set(slice_cache.lines()) - before
            # One access can fill twice (a dirty L1 victim's drain and
            # the L2 victim it forces); each takes the lowest free way.
            ways = sorted(slice_cache.way_of(a) for a in added)
            assert ways == free[:len(ways)] or len(ways) > len(free)
        assert outcomes[0] == outcomes[1]
        assert state_fingerprint(reference) == state_fingerprint(fast)
    for h in (reference, fast):
        assert INVALID_TAG not in h.llc.slices[h.llc.slice_of(0)]._tags[:spec.llc_ways]


@pytest.mark.parametrize("name", ["haswell-small", "skylake-small"])
def test_ddio_refill_takes_lowest_invalid_ddio_way(name):
    """DMA writes into a set with way 0, a middle way and both DDIO
    ways invalid land in the DDIO ways, lowest first."""
    spec = SPECS[name]
    reference, fast = full_set_with_holes(spec, (0, spec.llc_ways // 2))
    ddio_ways = reference.llc.ddio_way_tuple
    new = same_set_lines(reference, 2, skip=spec.llc_ways)
    for h in (reference, fast):
        slice_cache = h.llc.slices[h.llc.slice_of(0)]
        for way in ddio_ways:
            h.clflush(slice_cache._tags[way])
        ddio = DdioEngine(h)
        for line in new:
            assert ddio.dma_write(line, 64) == 1
        assert [slice_cache.way_of(line) for line in new] == sorted(ddio_ways)
    assert state_fingerprint(reference) == state_fingerprint(fast)


@pytest.mark.parametrize("name", ["haswell-small", "skylake-small"])
def test_lines_past_2_63_identical(name):
    """``access_batch`` takes any uint64 address: writes to lines at
    and past 2**63, enough to fill, evict and write back LLC lines,
    give the same outcomes and state on both engines."""
    spec = SPECS[name]
    addrs = np.uint64(1 << 63) + np.arange(3000, dtype=np.uint64) * np.uint64(7 * 64)
    outcomes = []
    for engine in ENGINES:
        h = start_on(engine, build_hierarchy, spec)
        batch = h.access_batch(addrs, True, 0)
        outcomes.append((batch.cycles.tolist(), state_fingerprint(h)))
    assert outcomes[0] == outcomes[1]
