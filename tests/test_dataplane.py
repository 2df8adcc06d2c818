"""Unit tests for the batched dataplane building blocks.

The scalar-vs-batched *replay* equalities live in
``tests/test_dataplane_diff.py`` (marked ``differential``); this file
pins the individual pieces — the batch containers, the PMD's
descriptor-line charge, the batched burst/chain/serve paths against
their scalar twins on identical fresh state, and the bench harness's
setup phase.
"""

import numpy as np
import pytest

from repro.bench.measure import measure_entry
from repro.bench.suite import BenchEntry
from repro.cachesim.diff import state_fingerprint
from repro.dpdk.mbuf_batch import MbufBatch
from repro.fleet.server import FleetServer
from repro.net.chain import (
    DutConfig,
    DutEnvironment,
    router_napt_lb_chain,
    simple_forwarding_chain,
)
from repro.net.nf import (
    LpmRouter,
    MacSwapForwarder,
    Napt,
    RoundRobinLoadBalancer,
)
from repro.net.packet_batch import PacketBatch
from repro.net.trace import CampusTraceGenerator


def make_env(chain_factory=simple_forwarding_chain, **kwargs):
    kwargs.setdefault("n_mbufs", 256)
    config = DutConfig(**kwargs)
    return DutEnvironment(config, chain_factory=chain_factory)


def trace(n, seed=3):
    return CampusTraceGenerator(seed=seed).generate(n, rate_pps=1e6)


# ----------------------------------------------------------------------
# Batch containers
# ----------------------------------------------------------------------

def test_packet_batch_roundtrip():
    packets = trace(64)
    batch = PacketBatch.from_packets(packets)
    assert len(batch) == len(packets)
    back = batch.to_packets()
    for original, restored in zip(packets, back):
        assert restored.packet_id == original.packet_id
        assert restored.size == original.size
        assert restored.flow == original.flow
        assert restored.arrival_ns == original.arrival_ns


def test_packet_batch_flow_tuple_matches_packets():
    packets = trace(32)
    batch = PacketBatch.from_packets(packets)
    for i, packet in enumerate(packets):
        assert batch.flow_tuple(i) == packet.flow


def test_mbuf_batch_struct_lines_match_scalar():
    env = make_env()
    packets = trace(16)
    mbufs = [env.nic.deliver(p, p.size, 0) for p in packets]
    mbufs = [m for m in mbufs if m is not None]
    assert mbufs
    batch = MbufBatch.from_mbufs(mbufs)
    flat = batch.struct_line_addresses()
    expected = [line for m in mbufs for line in m.struct_lines()]
    assert flat.tolist() == expected
    headers = batch.header_addresses()
    assert headers.tolist() == [m.data_phys for m in mbufs]


# ----------------------------------------------------------------------
# PMD descriptor-line charging (the dead-expression regression pin)
# ----------------------------------------------------------------------

class _ReadProbe:
    """Shim for ``pmd.hierarchy`` that logs every charged address.

    The scalar RX path only calls ``hierarchy.read``, so a one-method
    shim around the real hierarchy is enough to observe the exact
    descriptor/struct lines the driver touches.
    """

    def __init__(self, env):
        self.addresses = []
        inner = env.hierarchy.read

        def probe(core, address, size=64):
            self.addresses.append(int(address))
            return inner(core, address, size)

        self.read = probe
        env.pmd.hierarchy = self


def test_rx_burst_empty_poll_charges_head_descriptor_only():
    """An empty poll reads exactly the queue's slot-0 descriptor line.

    Regression pin for the dead ``slot`` expression once present in
    ``rx_burst``: the charge must target ``descriptor_line(queue, 0)``
    — not an uninitialised or drifting slot index.
    """
    env = make_env()
    queue = 3
    probe = _ReadProbe(env)
    mbufs, cycles = env.pmd.rx_burst(queue)
    assert mbufs == []
    assert probe.addresses == [env.nic.descriptor_line(queue, 0)]
    assert cycles >= env.pmd.costs.rx_per_burst


def test_rx_burst_nonempty_poll_charges_descriptor_then_structs():
    env = make_env()
    queue = 1
    packets = trace(4)
    for p in packets:
        assert env.nic.deliver(p, p.size, queue) is not None
    probe = _ReadProbe(env)
    mbufs, _ = env.pmd.rx_burst(queue)
    assert len(mbufs) == len(packets)
    expected = [env.nic.descriptor_line(queue, 0)]
    expected += [line for m in mbufs for line in m.struct_lines()]
    assert probe.addresses == expected


def test_rx_burst_batch_matches_scalar():
    """Same ring content → identical mbufs, cycles and cache state."""
    envs = [make_env(seed=0), make_env(seed=0)]
    packets = trace(24)
    queue = 2
    for env in envs:
        for p in packets:
            assert env.nic.deliver(p, p.size, queue) is not None
    scalar_mbufs, scalar_cycles = envs[0].pmd.rx_burst(queue, max_packets=32)
    batch, batched_cycles = envs[1].pmd.rx_burst_batch(queue, max_packets=32)
    assert batched_cycles == scalar_cycles
    assert [m.struct_lines() for m in batch.mbufs] == [
        m.struct_lines() for m in scalar_mbufs
    ]
    assert state_fingerprint(envs[0].hierarchy) == state_fingerprint(
        envs[1].hierarchy
    )


# ----------------------------------------------------------------------
# NF / chain batch processing
# ----------------------------------------------------------------------

def test_chain_process_batch_matches_scalar():
    """Per-NF vectorised plans reproduce the scalar chain exactly.

    Exercises every stock NF's ``process_batch`` (router, NAPT and the
    flow-sticky load balancer) against per-packet ``process`` calls on
    identically prepared state.
    """
    envs = [
        make_env(router_napt_lb_chain, seed=0),
        make_env(router_napt_lb_chain, seed=0),
    ]
    packets = trace(48)
    queue = 0
    core = envs[0].nic.queue_to_core[queue]
    bursts = []
    for env in envs:
        for p in packets:
            assert env.nic.deliver(p, p.size, queue) is not None
        mbufs, _ = env.pmd.rx_burst(queue, max_packets=64)
        bursts.append(mbufs)
    scalar = [envs[0].chain.process(core, m) for m in bursts[0]]
    batched = envs[1].chain.process_batch(core, MbufBatch.from_mbufs(bursts[1]))
    assert batched.tolist() == scalar
    assert envs[0].chain.packets_processed == envs[1].chain.packets_processed
    for nf_a, nf_b in zip(envs[0].chain.nfs, envs[1].chain.nfs):
        state_a = {k: v for k, v in vars(nf_a).items() if isinstance(v, dict)}
        state_b = {k: v for k, v in vars(nf_b).items() if isinstance(v, dict)}
        assert state_a == state_b
    assert state_fingerprint(envs[0].hierarchy) == state_fingerprint(
        envs[1].hierarchy
    )


def test_template_stable_flags():
    """Only payload/flow/size-independent NFs may opt into the
    template-stable chain capture (see NetworkFunction.template_stable)."""
    assert MacSwapForwarder.template_stable is True
    assert LpmRouter.template_stable is False
    assert Napt.template_stable is False
    assert RoundRobinLoadBalancer.template_stable is False


def test_template_stable_capture_counts_packets():
    """The cached-template fast path still counts every packet."""
    packets = trace(200)
    queues = [p.packet_id % 8 for p in packets]
    scalar_env = make_env(dataplane="scalar")
    batched_env = make_env(dataplane="batched")
    scalar_env.service_cycles(packets, queues)
    batched_env.service_cycles(packets, queues)
    assert (
        batched_env.chain.packets_processed
        == scalar_env.chain.packets_processed
    )


def test_dataplane_config_validation():
    with pytest.raises(ValueError):
        DutEnvironment(DutConfig(dataplane="vectorised"))


# ----------------------------------------------------------------------
# Fleet serve_batch
# ----------------------------------------------------------------------

def test_fleet_serve_batch_matches_scalar():
    """One flattened replay per server == per-request serve calls."""
    kwargs = dict(server_id=0, n_tenants=3, n_keys=1 << 9, seed=5)
    scalar_server = FleetServer(**kwargs)
    batched_server = FleetServer(**kwargs)
    rng = np.random.default_rng(11)
    n = 200
    tenants = rng.integers(0, 3, size=n)
    keys = rng.integers(0, 1 << 9, size=n)
    is_get = rng.random(n) < 0.9
    scalar = [
        scalar_server.serve(int(t), int(k), bool(g))
        for t, k, g in zip(tenants, keys, is_get)
    ]
    batched = batched_server.serve_batch(tenants, keys, is_get)
    assert batched.tolist() == scalar
    assert batched_server.served == scalar_server.served == n
    assert state_fingerprint(
        scalar_server.context.hierarchy
    ) == state_fingerprint(batched_server.context.hierarchy)


def test_fleet_serve_batch_validates_lengths():
    server = FleetServer(server_id=0, n_tenants=1, n_keys=64)
    with pytest.raises(ValueError):
        server.serve_batch([0, 0], [1], [True])


# ----------------------------------------------------------------------
# Bench harness setup phase
# ----------------------------------------------------------------------

def test_bench_setup_runs_untimed_per_pass():
    """``setup`` builds a fresh context for every pass (warmup and
    timed) and the runner receives it; fixture work stays out of the
    measured payload only via timing, which we can't assert here — but
    the call pattern is pinned."""
    calls = {"setup": 0, "run": 0}

    def setup(params, seed):
        calls["setup"] += 1
        return {"token": calls["setup"], "n": params["n"]}

    def runner(params, seed, context):
        calls["run"] += 1
        assert context["token"] == calls["run"]
        assert context["n"] == params["n"]
        return {"value": context["token"]}

    entry = BenchEntry(
        name="setup-probe",
        title="setup-phase probe",
        kind="micro",
        runner=runner,
        setup=setup,
        smoke_params={"n": 4},
        full_params={"n": 4},
        work=lambda params: {"ops": float(params["n"])},
    )
    measurement = measure_entry(entry, warmup=1, samples=2)
    assert calls == {"setup": 3, "run": 3}
    assert len(measurement.samples_ns) == 2


def test_dataplane_bench_entries_registered():
    from repro.bench.suite import suite_by_name

    scalar, batched = suite_by_name(
        ["dataplane-forwarding-scalar", "dataplane-forwarding-batched"]
    )
    assert scalar.smoke_params["dataplane"] == "scalar"
    assert batched.smoke_params["dataplane"] == "batched"
    # One engine for both: the pair differs only in the dataplane.
    for params in ("smoke_params", "full_params"):
        assert {**getattr(scalar, params), "dataplane": None} == {
            **getattr(batched, params), "dataplane": None
        }
    # Same work law, so trajectory rates are directly comparable.
    assert scalar.work is batched.work
