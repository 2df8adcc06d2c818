"""The fast engine leaves the cyclic collector nothing to do.

Two properties, both checked with the collector switched off:

* serving DMA spans and replaying demand lines allocates no
  GC-tracked object per line or per span — the core-valid bits are a
  typed buffer, the slice hashes' lookup tables and block cache hold
  only ints and bytes, and every cache set only ints and bools, so a
  long run adds nothing a full collection would have to walk;
* a hierarchy that has served every kind of access (and so built its
  engine) is freed by reference counting alone: the engine holds it
  only weakly and no engine closure or instance hook refers back to it.

The shape of these checks follows ``tests/test_waycache_layout.py``.
"""

import gc
import weakref

from repro.cachesim.ddio import DdioEngine
from repro.cachesim.engine import OP_READ, OP_WRITE
from repro.cachesim.machines import (
    HASWELL_E5_2667V3,
    SKYLAKE_GOLD_6134,
    build_hierarchy,
)
from repro.cachesim.prefetch import StreamerPrefetcher
from repro.mem.address import CACHE_LINE
from repro.net.dataplane import OpRecorder, replay_ops

from tests.engines import assert_core_valid_superset

SPAN_BYTES = 1536


def tracked_objects_added_by_serving(n: int, spec=HASWELL_E5_2667V3) -> int:
    """GC-tracked objects left alive by *n* distinct multi-line DMA
    write+read spans and *n* replayed demand lines on a built engine."""
    hierarchy = build_hierarchy(spec, sanitize=False)
    ddio = DdioEngine(hierarchy)
    # Build the engine and run every path once before counting.
    ddio.dma_write(0, SPAN_BYTES)
    ddio.dma_read(0, SPAN_BYTES)
    engine = hierarchy.fast_engine()
    engine.run_op_stream([(OP_READ, 0, 0, 0)], [ddio])
    ops = [
        (OP_WRITE if i % 4 == 0 else OP_READ, line, line, i % 2)
        for i, line in enumerate(
            range(1 << 30, (1 << 30) + n * CACHE_LINE, CACHE_LINE)
        )
    ]
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for i in range(n):
            address = (1 << 24) + i * 2048
            ddio.dma_write(address, SPAN_BYTES)
            ddio.dma_read(address, SPAN_BYTES)
        cycles = engine.run_op_stream(ops, [ddio])
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert ddio.stats.write_lines == (n + 1) * SPAN_BYTES // CACHE_LINE
    assert len(cycles) == n
    return added


def test_serving_adds_no_tracked_objects_per_line():
    small = tracked_objects_added_by_serving(1_000)
    large = tracked_objects_added_by_serving(10_000)
    assert small == large
    assert large <= 16


def test_modular_hash_serving_adds_no_tracked_objects_per_line():
    # Skylake-SP: the modular hash's block cache and the non-inclusive
    # DMA sweep.
    small = tracked_objects_added_by_serving(1_000, SKYLAKE_GOLD_6134)
    large = tracked_objects_added_by_serving(10_000, SKYLAKE_GOLD_6134)
    assert small == large
    assert large <= 16


def test_served_hierarchy_is_freed_by_refcount():
    spec = HASWELL_E5_2667V3
    gc.collect()
    gc.disable()
    try:
        prefetchers = [StreamerPrefetcher(trigger=1)] + [None] * (spec.n_cores - 1)
        hierarchy = build_hierarchy(spec, sanitize=False, prefetchers=prefetchers)
        ddio = DdioEngine(hierarchy)
        hierarchy.read(0, 0x1000, 256)
        hierarchy.write(1, 0x9000)
        hierarchy.access_batch([0x2000, 0x3000, 0x4000], None, 0)
        ddio.dma_write(0x10000, SPAN_BYTES)
        ddio.dma_read(0x10000, SPAN_BYTES)
        recorder = OpRecorder()
        with recorder.capture(hierarchy):
            hierarchy.read(0, 0x20000, 512)
            hierarchy.write(2, 0x30000, 128)
        replay_ops(hierarchy, recorder.ops, [ddio])
        # The prefetcher ran (it fetched the line past the read span),
        # so its weak-reference call path did too.
        assert hierarchy.l2s[0].contains(0x20000 + 512)
        refs = [
            weakref.ref(hierarchy),
            weakref.ref(hierarchy.fast_engine()),
            weakref.ref(hierarchy.llc),
        ]
        del hierarchy, ddio, recorder
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_reference_fills_keep_the_residency_superset():
    # No instance hooks: the class's own private fills set the filling
    # core's core-valid bit in the line's LLC slot, engine or not.
    hierarchy = build_hierarchy(HASWELL_E5_2667V3, sanitize=False)
    hierarchy.warm(1, 0x60000, 256)
    assert hierarchy._fast_engine is None
    hierarchy.access_batch([0x40000], None, 0)
    assert "_fill_l1" not in vars(hierarchy)
    assert "_fill_l2" not in vars(hierarchy)
    hierarchy.warm(3, 0x80000, 512)
    hierarchy.access_line(5, 0xC0000)
    hierarchy.prefetch_line(6, 0xD0000)
    for core in (0, 1, 3, 5, 6):
        held = list(hierarchy.l1s[core].lines()) + list(hierarchy.l2s[core].lines())
        assert held, core
    assert_core_valid_superset(hierarchy)
