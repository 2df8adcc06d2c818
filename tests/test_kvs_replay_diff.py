"""Batched ``KvsServer.run`` against the per-request ``serve_one`` loop.

``KvsServer.run`` charges a request stream through the chunked replay
of :func:`repro.kvs.server.serve_requests`; calling ``serve_one`` per
request is its oracle.  Each test serves one stream both ways and
requires the same result, cache fingerprint, DDIO counters, request
count and RX-buffer cursor.  The last tests cover the two scalar
fallbacks: a runtime sanitizer and a fault clock.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis import sanitizer as sanitizer_module
from repro.cachesim.diff import run_fleet_differential, state_fingerprint
from repro.cachesim.machines import HASWELL_E5_2667V3, build_hierarchy
from repro.core.slice_aware import SliceAwareContext
from repro.faults.plan import FaultClock, FaultPlan, FaultRates, KvsRequestFault
from repro.fleet.server import FleetServer
from repro.kvs import server as kvs_server
from repro.kvs.server import KvsServer, KvsWorkloadResult
from repro.kvs.store import KvsStore
from repro.kvs.workload import GetSetMix, ZipfKeys
from repro.net.dataplane import REPLAY_CHUNK

from tests.engines import start_on

pytestmark = pytest.mark.differential

N_KEYS = 1 << 10


def _server(engine="fast", value_size=64, sanitize=None):
    hierarchy = start_on(
        engine, build_hierarchy, HASWELL_E5_2667V3, seed=2, sanitize=sanitize
    )
    assert hierarchy.engine_name == engine
    context = SliceAwareContext(HASWELL_E5_2667V3, hierarchy=hierarchy, seed=2)
    store = KvsStore(
        context, core=0, n_keys=N_KEYS, slice_aware=True, value_size=value_size
    )
    return KvsServer(context, store, core=0, rx_buffers=64)


def _stream(n, get_fraction, seed=0):
    keys = ZipfKeys(N_KEYS, 0.99, seed=seed + 3).keys(
        n, np.random.default_rng(seed + 9)
    )
    ops = GetSetMix(get_fraction).operations(n, np.random.default_rng(seed + 12))
    return keys, ops


def _scalar_run(server, keys, is_get, warmup=0):
    """The oracle: ``serve_one`` per request, warm-up left uncounted."""
    total = 0
    for i, (key, get) in enumerate(zip(keys, is_get)):
        cycles = server.serve_one(int(key), bool(get))
        if i >= warmup:
            total += cycles
    return KvsWorkloadResult(
        requests=len(keys) - warmup,
        total_cycles=total,
        freq_ghz=server.context.spec.freq_ghz,
    )


def _observed(server, result):
    return (
        result,
        state_fingerprint(server.hierarchy),
        dataclasses.asdict(server.ddio.stats),
        server.requests_served,
        server._next_buffer,
    )


@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize("value_size", [64, 192], ids=["1-line", "3-line"])
@pytest.mark.parametrize("get_fraction", [1.0, 0.5])
@pytest.mark.parametrize("warmup", [0, 150])
def test_run_matches_scalar_loop(engine, value_size, get_fraction, warmup):
    keys, ops = _stream(500, get_fraction)
    batched = _server(engine, value_size)
    scalar = _server(engine, value_size)
    assert (value_size > 64) == (batched.store.lines_per_value > 1)
    got = batched.run(keys, ops, warmup=warmup)
    want = _scalar_run(scalar, keys, ops, warmup)
    assert type(got.total_cycles) is int
    assert _observed(batched, got) == _observed(scalar, want)


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_run_longer_than_one_chunk(engine):
    n = 2 * REPLAY_CHUNK + 37
    keys, ops = _stream(n, 0.95, seed=1)
    batched = _server(engine)
    scalar = _server(engine)
    got = batched.run(keys, ops, warmup=REPLAY_CHUNK + 5)
    want = _scalar_run(scalar, keys, ops, REPLAY_CHUNK + 5)
    assert _observed(batched, got) == _observed(scalar, want)


def test_consecutive_runs_keep_state():
    """Warm-up and measured streams as fig08 serves them, run after run."""
    warm_keys, _ = _stream(600, 1.0)
    keys, ops = _stream(300, 0.5, seed=4)
    batched = _server()
    scalar = _server()
    got = [
        batched.run(warm_keys, np.ones(600, bool), warmup=599),
        batched.run(keys, ops),
    ]
    want = [
        _scalar_run(scalar, warm_keys, np.ones(600, bool), 599),
        _scalar_run(scalar, keys, ops),
    ]
    assert _observed(batched, got) == _observed(scalar, want)


def test_serve_batch_keeps_per_tenant_ddio_stats():
    """Tenants sharing one hierarchy: each DMA span reaches its own engine."""
    kwargs = dict(server_id=1, n_tenants=3, n_keys=1 << 9, seed=5)
    scalar = FleetServer(**kwargs)
    batched = FleetServer(**kwargs)
    rng = np.random.default_rng(3)
    tenants = rng.integers(0, 3, size=300)
    keys = rng.integers(0, 1 << 9, size=300)
    is_get = rng.random(300) < 0.5
    want = [
        scalar.serve(int(t), int(k), bool(g))
        for t, k, g in zip(tenants, keys, is_get)
    ]
    assert batched.serve_batch(tenants, keys, is_get).tolist() == want

    def per_tenant(server):
        return [
            (dataclasses.asdict(t.ddio.stats), t.requests_served, t._next_buffer)
            for t in server._tenants
        ]

    assert per_tenant(batched) == per_tenant(scalar)
    assert state_fingerprint(batched.context.hierarchy) == state_fingerprint(
        scalar.context.hierarchy
    )


@pytest.fixture
def no_replay(monkeypatch):
    """Fail the test if anything replays an emitted op stream."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the scalar fallback must not replay")

    monkeypatch.setattr(kvs_server, "replay_ops", forbidden)


def test_sanitizer_takes_scalar_fallback(no_replay):
    keys, ops = _stream(400, 0.5)
    sanitized = _server(sanitize=True)
    oracle = _server(sanitize=True)
    assert sanitized.hierarchy.sanitizer is not None
    got = sanitized.run(keys, ops, warmup=50)
    want = _scalar_run(oracle, keys, ops, 50)
    assert _observed(sanitized, got) == _observed(oracle, want)


def test_fleet_batched_cell_under_sanitizer(monkeypatch, no_replay):
    """A batched fleet cell on sanitized servers charges per request and
    matches the scalar cell."""
    monkeypatch.setenv("RF_SANITIZE", "1")
    monkeypatch.setattr(sanitizer_module, "_DEFAULT", None)
    report = run_fleet_differential(
        n_servers=2, n_tenants=2, requests=600, warmup=150,
        epoch_requests=150, n_keys=1 << 9,
    )
    assert report.equal, report.detail


def _clock(**rates):
    return FaultClock(FaultPlan(seed=7, rates=FaultRates(**rates)))


def test_fault_raised_at_the_same_request(no_replay):
    keys, ops = _stream(400, 0.5)
    batched = _server()
    scalar = _server()
    batched.faults = _clock(kvs_fail=0.01, kvs_slow=0.05)
    scalar.faults = _clock(kvs_fail=0.01, kvs_slow=0.05)
    with pytest.raises(KvsRequestFault):
        batched.run(keys, ops)
    with pytest.raises(KvsRequestFault):
        _scalar_run(scalar, keys, ops)
    # The failing request is lost, so requests_served is its index.
    assert 0 < batched.requests_served < len(keys)
    assert _observed(batched, None) == _observed(scalar, None)
    assert batched.faults.stats.to_dict() == scalar.faults.stats.to_dict()


def test_slow_requests_charged_like_scalar_loop(no_replay):
    keys, ops = _stream(400, 0.5)
    batched = _server()
    scalar = _server()
    batched.faults = _clock(kvs_slow=0.1, kvs_slow_cycles=3_000)
    scalar.faults = _clock(kvs_slow=0.1, kvs_slow_cycles=3_000)
    got = batched.run(keys, ops, warmup=20)
    want = _scalar_run(scalar, keys, ops, 20)
    assert _observed(batched, got) == _observed(scalar, want)
    assert batched.faults.stats.to_dict() == scalar.faults.stats.to_dict()
    assert batched.faults.stats.get("kvs.injected_slow_requests") > 0
