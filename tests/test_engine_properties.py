"""Hypothesis property tests: the fast engine mirrors the reference.

Hypothesis generates arbitrary short traces — mixed loads/stores, any
core interleaving, line-aliasing addresses — and the property is always
the same: replaying through ``access_batch`` (fast engine) and through
per-access ``access_line`` calls yields identical outcome streams and
identical final state.  Failures shrink to a minimal trace, which can
then be replayed by hand through :mod:`repro.cachesim.diff`.

A fixed-seed, no-deadline profile keeps CI deterministic; run with
``HYPOTHESIS_PROFILE=dev`` locally for a wider search.
"""

import dataclasses
import os

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.cachesim.diff import (
    Trace,
    run_differential,
    state_fingerprint,
)
from repro.cachesim.machines import (
    HASWELL_E5_2667V3,
    SKYLAKE_GOLD_6134,
    build_hierarchy,
)
from repro.mem.address import CACHE_LINE

pytestmark = pytest.mark.differential

settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "dev",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

# Inclusive LLC (Haswell, complex hash) and non-inclusive victim LLC
# (Skylake, modular hash), both at tiny geometry so a ~200-access trace
# already exercises every eviction path.
SMALL_HASWELL = dataclasses.replace(
    HASWELL_E5_2667V3, l1_sets=4, l1_ways=2, l2_sets=8, l2_ways=2,
    llc_sets=16, llc_ways=4,
)
SMALL_SKYLAKE = dataclasses.replace(
    SKYLAKE_GOLD_6134, l1_sets=4, l1_ways=2, l2_sets=8, l2_ways=2,
    llc_sets=16, llc_ways=4,
)

# A deliberately small line universe maximizes aliasing: the same lines
# recur across cores, sets and chunks, provoking refreshes, dirty
# evictions, back-invalidations and write-back chains.
small_lines = st.integers(min_value=0, max_value=255).map(
    lambda i: i * 17 * CACHE_LINE
)

access = st.tuples(
    small_lines,
    st.booleans(),
    st.integers(min_value=0, max_value=7),
)
traces = st.lists(access, min_size=1, max_size=400)
chunk_sizes = st.integers(min_value=1, max_value=64)


def to_trace(steps) -> Trace:
    addresses, writes, cores = zip(*steps)
    return Trace(list(addresses), list(writes), list(cores))


class TestBatchMatchesReference:
    @seed(2024)
    @given(steps=traces, chunk=chunk_sizes)
    def test_inclusive_llc(self, steps, chunk):
        report = run_differential(
            lambda: build_hierarchy(SMALL_HASWELL),
            to_trace(steps),
            chunk_size=chunk,
        )
        assert report.equal, report.detail

    @seed(2025)
    @given(steps=traces, chunk=chunk_sizes)
    def test_non_inclusive_llc(self, steps, chunk):
        report = run_differential(
            lambda: build_hierarchy(SMALL_SKYLAKE),
            to_trace(steps),
            chunk_size=chunk,
        )
        assert report.equal, report.detail

    @seed(2026)
    @given(steps=traces)
    def test_scalar_engine_calls(self, steps):
        """read()/write() on the engine the first access installs."""
        reference = build_hierarchy(SMALL_HASWELL)
        fast = build_hierarchy(SMALL_HASWELL)
        for address, write, core in steps:
            expected = reference.access_line(core, address, write).cycles
            got = (
                fast.write(core, address)
                if write
                else fast.read(core, address)
            )
            assert got == expected
        assert state_fingerprint(reference) == state_fingerprint(fast)

    @seed(2027)
    @given(
        steps=traces,
        chunk=chunk_sizes,
        # CAT masks must be contiguous runs of ways, as on real silicon.
        mask_width=st.integers(min_value=1, max_value=4),
        mask_shift=st.integers(min_value=0, max_value=3),
        partitioned_cores=st.sets(
            st.integers(min_value=0, max_value=7), max_size=8
        ),
    )
    def test_with_cat_partition(
        self, steps, chunk, mask_width, mask_shift, partitioned_cores
    ):
        shift = min(mask_shift, 4 - mask_width)
        way_mask = ((1 << mask_width) - 1) << shift
        def build():
            hierarchy = build_hierarchy(SMALL_HASWELL)
            cat = hierarchy.llc.cat
            cat.define_clos(1, way_mask)
            for core in partitioned_cores:
                cat.assign_core(core, 1)
            return hierarchy

        report = run_differential(build, to_trace(steps), chunk_size=chunk)
        assert report.equal, report.detail
