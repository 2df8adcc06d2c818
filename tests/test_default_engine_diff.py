"""Differential tests for entry points that serve on the fast engine.

Every hierarchy serves on the fast engine; the same code run inside
``reference_engine()`` is its oracle (``tests.engines.run_oracle``
checks that the oracle side really ran ``access_line``).  Each test
runs one small workload both ways and requires identical results.  The
sanitizer tests check that a sanitizer sees the same way-mask checks on
both.
"""

import dataclasses
import json
import random

import numpy as np
import pytest

from repro.cachesim.ddio import DdioEngine
from repro.cachesim.diff import random_trace, state_fingerprint
from repro.cachesim.machines import HASWELL_E5_2667V3, build_hierarchy
from repro.core.slice_aware import SliceAwareContext
from repro.experiments.nfv_common import compare_cache_director
from repro.kvs.server import KvsServer
from repro.kvs.store import KvsStore
from repro.kvs.workload import GetSetMix, ZipfKeys
from repro.lab.spec import to_payload
from repro.mem.address import CACHE_LINE
from repro.net.chain import router_napt_lb_chain

from tests.engines import ENGINES, start_on, run_on

pytestmark = pytest.mark.differential


@pytest.mark.parametrize("slice_aware", [True, False])
def test_kvs_get_set_cycles_identical(slice_aware):
    n_keys = 1 << 12
    keys = ZipfKeys(n_keys, 0.99, seed=3).keys(600, np.random.default_rng(9))
    ops = GetSetMix(0.5).operations(600, np.random.default_rng(12))

    def serve():
        context = SliceAwareContext(HASWELL_E5_2667V3, seed=2)
        store = KvsStore(context, core=0, n_keys=n_keys, slice_aware=slice_aware)
        server = KvsServer(context, store, core=0)
        cycles = [server.serve_one(int(k), bool(g)) for k, g in zip(keys, ops)]
        return cycles, state_fingerprint(context.hierarchy)

    runs = {engine: run_on(engine, serve) for engine in ENGINES}
    assert runs["fast"] == runs["reference"]


def test_kvs_server_defaults_to_fast():
    context = SliceAwareContext(HASWELL_E5_2667V3, seed=2)
    store = KvsStore(context, core=0, n_keys=256, slice_aware=False)
    server = KvsServer(context, store, core=0)
    assert context.hierarchy.engine_name == "fast"
    server.serve_one(1, True)
    assert context.hierarchy._fast_engine is not None


def test_nfv_chain_comparison_identical():
    """Both arms of the Router-NAPT-LB chain (Fig. 14's configuration)."""
    def compare():
        return json.dumps(
            to_payload(
                compare_cache_director(
                    lambda: router_napt_lb_chain(hw_offload=True),
                    steering_kind="flow-director",
                    offered_gbps=100.0,
                    n_bulk_packets=2000,
                    micro_packets=48,
                    runs=1,
                    seed=0,
                )
            ),
            sort_keys=True,
        )

    payloads = {engine: run_on(engine, compare) for engine in ENGINES}
    assert payloads["fast"] == payloads["reference"]


SMALL_HASWELL = dataclasses.replace(
    HASWELL_E5_2667V3, l1_sets=8, l1_ways=2, l2_sets=16, l2_ways=4,
    llc_sets=32, llc_ways=8,
)


def record_fill_checks(hierarchy):
    """Wrap the hierarchy's sanitizer so every way-mask check is logged."""
    calls = []
    sanitizer = hierarchy.sanitizer
    check = sanitizer.check_fill_way

    def spy(llc, slice_index, line, way, allowed, io):
        calls.append((slice_index, line, way, tuple(allowed), io))
        check(llc, slice_index, line, way, allowed, io)

    sanitizer.check_fill_way = spy
    return calls


def test_sanitizer_fill_checks_identical_under_cat():
    rng = random.Random(21)
    spec = SMALL_HASWELL
    trace = random_trace(rng, 6000, spec.n_cores)
    dma = {i: rng.choice([64, 256, 1500]) for i in rng.sample(range(len(trace)), 300)}
    seen = {}
    for engine in ENGINES:
        h = start_on(engine, build_hierarchy, spec, sanitize=True)
        assert h.engine_name == engine
        cat = h.llc.cat
        cat.define_clos(1, 0b00001111)
        cat.define_clos(2, 0b00111100)
        for core in range(spec.n_cores):
            cat.assign_core(core, core % 3)
        calls = record_fill_checks(h)
        ddio = DdioEngine(h)
        cycles = []
        for i, (address, write, core) in enumerate(
            zip(trace.addresses, trace.writes, trace.cores)
        ):
            access = h.write if write else h.read
            cycles.append(access(core, address, CACHE_LINE))
            if i in dma:
                ddio.dma_write(address ^ (1 << 22), dma[i])
        seen[engine] = (calls, cycles, state_fingerprint(h))
    calls, cycles, fingerprint = seen["fast"]
    assert (calls, cycles, fingerprint) == seen["reference"]
    # Both kinds of masked fill were checked: CAT demand fills and DDIO.
    assert {io for *_, io in calls} == {False, True}


def test_sanitizer_fill_checks_identical_batched_under_cat():
    """The batch path under a sanitizer: every masked demand fill runs
    the checked LLC fill, in the reference order, with DDIO writes
    between batches."""
    rng = random.Random(29)
    spec = SMALL_HASWELL
    trace = random_trace(rng, 6000, spec.n_cores)
    seen = {}
    for engine in ENGINES:
        h = start_on(engine, build_hierarchy, spec, sanitize=True)
        assert h.engine_name == engine
        cat = h.llc.cat
        cat.define_clos(1, 0b00000011)
        cat.define_clos(2, 0b11110000)
        for core in range(spec.n_cores):
            cat.assign_core(core, core % 3)
        calls = record_fill_checks(h)
        ddio = DdioEngine(h)
        outcomes = []
        for addresses, writes, cores in trace.chunks(500):
            batch = h.access_batch(addresses, writes, cores)
            outcomes.append(
                (batch.cycles.tolist(), batch.levels.tolist(), batch.slices.tolist())
            )
            ddio.dma_write(addresses[0] ^ (1 << 22), 1500)
        seen[engine] = (calls, outcomes, state_fingerprint(h))
    calls, outcomes, fingerprint = seen["fast"]
    assert (calls, outcomes, fingerprint) == seen["reference"]
    assert {io for *_, io in calls} == {False, True}


def test_fig06_batch_passes_match_per_access_loop(monkeypatch):
    """Fig. 6 issues each pass as one fast-engine batch; its oracle is
    the per-access ``read``/``write`` loop it replaced, on the
    reference engine, over the same machines and address streams."""
    from repro.experiments import fig06_speedup

    def per_access(hierarchy, core, addresses, write):
        access = hierarchy.write if write else hierarchy.read
        return sum(access(core, int(address), 1) for address in addresses)

    params = dict(working_set_bytes=320 * 1024, n_ops=400, seed=3)
    fast = fig06_speedup.run_fig06(**params)
    monkeypatch.setattr(fig06_speedup, "_access_all", per_access)
    assert run_on("reference", fig06_speedup.run_fig06, **params) == fast
