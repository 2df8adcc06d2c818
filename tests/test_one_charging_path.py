"""One charging path: record/replay in bounded chunks.

``DutEnvironment.service_cycles`` and ``serve_requests`` charge every
trace by op-stream replay, ``repro.net.dataplane.REPLAY_CHUNK`` items
per replay (NFV records its ops; KVS emits them).  The per-item loops
run only as the sanitizer / fault-clock fallback and as the
differential oracle, entered through
``repro.cachesim.diff.per_item_oracle``.  The guard tests walk the
source tree so the ``dataplane=`` knob cannot creep back; the
differential tests show that where the stream is cut changes nothing.
"""

import ast
from pathlib import Path

import pytest

from repro.cachesim.diff import (
    per_item_oracle,
    run_dataplane_differential,
    run_fleet_differential,
)
from repro.faults.plan import FaultPlan, FaultRates
from repro.fleet.cluster import run_fleet_cell
from repro.kvs import server as kvs_server
from repro.net import chain as chain_module
from repro.net import dataplane
from repro.net.chain import (
    DutConfig,
    DutEnvironment,
    router_napt_lb_chain,
    simple_forwarding_chain,
)
from repro.net.trace import CampusTraceGenerator

SRC_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The only modules that may name the oracle switch: the one that
#: defines it and the differential harness that enters it.
ORACLE_MODULES = {"net/dataplane.py", "cachesim/diff.py"}


def _sources():
    for path in sorted(SRC_REPRO.rglob("*.py")):
        yield path.relative_to(SRC_REPRO).as_posix(), ast.parse(path.read_text())


# ----------------------------------------------------------------------
# Guards
# ----------------------------------------------------------------------

def test_no_dataplane_parameter_field_flag_or_key():
    offenders = []
    for rel, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.arg) and "dataplane" in node.arg:
                offenders.append(f"{rel}:{node.lineno} parameter {node.arg}")
            elif isinstance(node, ast.keyword) and node.arg == "dataplane":
                offenders.append(f"{rel}:{node.lineno} keyword dataplane=")
            elif (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and "dataplane" in node.target.id
            ):
                offenders.append(f"{rel}:{node.lineno} field {node.target.id}")
            elif isinstance(node, ast.Constant) and node.value in (
                "dataplane",
                "--dataplane",
            ):
                offenders.append(f"{rel}:{node.lineno} string {node.value!r}")
            elif isinstance(node, ast.Attribute) and node.attr == "dataplane":
                offenders.append(f"{rel}:{node.lineno} attribute .dataplane")
    assert offenders == []


def test_oracle_switch_is_entered_only_from_the_diff_harness():
    names = {"per_item_oracle", "PER_ITEM_ORACLE"}
    users = set()
    for rel, tree in _sources():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id in names) or (
                isinstance(node, ast.Attribute) and node.attr in names
            ):
                users.add(rel)
    assert users == ORACLE_MODULES
    setters = set()
    for rel, tree in _sources():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "set"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "PER_ITEM_ORACLE"
            ):
                setters.add(rel)
    assert setters == {"cachesim/diff.py"}


def test_oracle_switch_restores_on_error():
    with pytest.raises(RuntimeError):
        with per_item_oracle():
            assert dataplane.PER_ITEM_ORACLE.get()
            raise RuntimeError("boom")
    assert not dataplane.PER_ITEM_ORACLE.get()


# ----------------------------------------------------------------------
# Which path runs
# ----------------------------------------------------------------------

class _CountingRecorder(dataplane.OpRecorder):
    built = 0

    def __init__(self):
        type(self).built += 1
        super().__init__()


@pytest.fixture
def recorders(monkeypatch):
    """Count every recorder the NFV path builds and every chunk the KVS
    path replays (it emits its ops without a recorder)."""
    _CountingRecorder.built = 0
    monkeypatch.setattr(chain_module, "OpRecorder", _CountingRecorder)
    replay_ops = kvs_server.replay_ops

    def counted(*args, **kwargs):
        _CountingRecorder.built += 1
        return replay_ops(*args, **kwargs)

    monkeypatch.setattr(kvs_server, "replay_ops", counted)
    return _CountingRecorder


def _forwarding_run(n_packets):
    env = DutEnvironment(DutConfig(n_mbufs=256), simple_forwarding_chain)
    packets = CampusTraceGenerator(seed=4).generate(n_packets, rate_pps=1e6)
    queues = [p.packet_id % env.nic.n_queues for p in packets]
    return env.service_cycles(packets, queues)


def test_service_cycles_replays_one_recorder_per_chunk(recorders, monkeypatch):
    monkeypatch.setattr(dataplane, "REPLAY_CHUNK", 40)
    _forwarding_run(100)
    assert recorders.built == 3


def test_oracle_charges_per_item(recorders):
    with per_item_oracle():
        _forwarding_run(100)
        run_fleet_cell(
            n_servers=2, n_tenants=2, requests=300, warmup=100,
            epoch_requests=100, n_keys=1 << 8,
        )
    assert recorders.built == 0


# ----------------------------------------------------------------------
# Chunk boundaries change nothing
# ----------------------------------------------------------------------

#: Chaos at rates that fire several times per chunk, plus watermark
#: load shedding on a small pool.
CHAOS = dict(
    plan=FaultPlan(
        seed=5,
        rates=FaultRates(
            nic_drop=0.01,
            nic_corrupt=0.01,
            mempool_alloc_fail=0.005,
            nf_crash=0.003,
            nf_stall=0.005,
        ),
    ),
    n_mbufs=128,
    watermarks=(32, 96),
)

ROUTES = {
    "template": (simple_forwarding_chain, {"n_mbufs": 256}),
    "generic": (router_napt_lb_chain, {"cache_director": True, "n_mbufs": 256}),
    "chaos": (router_napt_lb_chain, CHAOS),
}


@pytest.fixture
def template_calls(monkeypatch):
    calls = []
    record = DutEnvironment._record_template

    def counted(self, *args, **kwargs):
        calls.append(len(args[1]))
        return record(self, *args, **kwargs)

    monkeypatch.setattr(DutEnvironment, "_record_template", counted)
    return calls


@pytest.mark.differential
@pytest.mark.parametrize("chunk", [None, 1], ids=["default-chunk", "chunk-1"])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_chunk_boundaries_change_nothing(route, chunk, monkeypatch, template_calls):
    if chunk is not None:
        monkeypatch.setattr(dataplane, "REPLAY_CHUNK", chunk)
    n_packets = 2 * dataplane.REPLAY_CHUNK + 37 if chunk is None else 90
    factory, kwargs = ROUTES[route]
    report = run_dataplane_differential(factory, n_packets=n_packets, **kwargs)
    assert report.equal, f"{report.mismatches}: {report.detail}"
    # The forwarding trace takes the template route in every chunk; the
    # CacheDirector and chaos traces record through the generic route.
    if route == "template":
        chunk_size = dataplane.REPLAY_CHUNK
        assert template_calls == [
            min(chunk_size, n_packets - start)
            for start in range(0, n_packets, chunk_size)
        ]
    else:
        assert template_calls == []


@pytest.mark.differential
def test_fleet_cell_with_one_request_chunks(monkeypatch):
    monkeypatch.setattr(dataplane, "REPLAY_CHUNK", 1)
    report = run_fleet_differential(
        n_servers=2, n_tenants=2, requests=400, warmup=100,
        epoch_requests=100, n_keys=1 << 8,
    )
    assert report.equal, report.detail
