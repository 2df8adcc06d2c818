"""Scalar-vs-batched dataplane replay: the bit-identity contract.

Every test here drives the *same* packet trace (or fleet workload)
through the scalar reference dataplane and the batched record/replay
dataplane and asserts byte-for-byte equal observables — per-packet
cycles including drop positions, NIC/DDIO/mempool statistics, NF
control state, injected-fault counters and the deep cache-state
fingerprint (see :func:`repro.cachesim.diff.run_dataplane_differential`).

The scalar side always runs on the reference engine; the batched side
runs on the fast engine, or on the reference engine too when the whole
replay runs inside ``reference_engine()``.  Hypothesis widens the sweep
to arbitrary trace seeds, sizes, engines and chaos plans; failures
shrink to a minimal configuration.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cachesim.diff import (
    run_dataplane_differential,
    run_fleet_differential,
    state_fingerprint,
)
from repro.faults.plan import FaultClock, FaultPlan, FaultRates
from repro.net.chain import (
    DutConfig,
    DutEnvironment,
    router_napt_lb_chain,
    simple_forwarding_chain,
)
from repro.net.trace import CampusTraceGenerator

from tests.engines import run_on

pytestmark = pytest.mark.differential

settings.register_profile(
    "ci",
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "dev",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

#: The chaos plan used throughout: every NIC/mempool/NF site armed at
#: rates that fire tens of times over a few hundred packets.
CHAOS_PLAN = FaultPlan(
    seed=11,
    rates=FaultRates(
        nic_drop=0.01,
        nic_corrupt=0.01,
        nic_stall=0.005,
        mempool_alloc_fail=0.005,
        nf_crash=0.002,
        nf_stall=0.005,
    ),
)

CHAINS = {
    "forwarding": simple_forwarding_chain,
    "router-napt-lb": router_napt_lb_chain,
}


def assert_equal_report(report):
    assert report.equal, f"{report.mismatches}: {report.detail}"


@pytest.mark.parametrize("chain", sorted(CHAINS))
@pytest.mark.parametrize("batched_engine", ["reference", "fast"])
def test_dataplane_identity(chain, batched_engine):
    """Both chains, batched on either engine, vs the scalar reference."""
    report = run_on(
        batched_engine,
        run_dataplane_differential,
        CHAINS[chain],
        n_packets=300,
        n_mbufs=256,
    )
    assert_equal_report(report)
    assert report.n_packets == 300


@pytest.mark.parametrize(
    "config",
    [
        {"ddio_enabled": False},
        {"cache_director": True},
        {"n_mbufs": 64},
    ],
    ids=["no-ddio", "cache-director", "tiny-pool"],
)
def test_dataplane_identity_config_corners(config):
    report = run_dataplane_differential(
        simple_forwarding_chain, n_packets=300, **config
    )
    assert_equal_report(report)


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_dataplane_identity_under_chaos(chain):
    """Fault draws (drops, corruption, stalls, crashes) land on the
    same packets either way — the recorder never touches RNG streams.

    Low mempool watermarks add load shedding on top of the plan.
    """
    report = run_dataplane_differential(
        CHAINS[chain],
        n_packets=400,
        plan=CHAOS_PLAN,
        n_mbufs=128,
        watermarks=(32, 96),
    )
    assert_equal_report(report)


def test_zero_rate_plan_is_fault_free():
    """An all-zero plan draws nothing: bit-identical to no plan at all,
    on both dataplanes."""
    packets = CampusTraceGenerator(seed=9).generate(250, rate_pps=1e6)
    results = {}
    for label, plan in (("bare", None), ("zero", FaultPlan(seed=3))):
        for dataplane in ("scalar", "batched"):
            config = DutConfig(dataplane=dataplane, n_mbufs=256)
            faults = FaultClock(plan) if plan is not None else None
            env = DutEnvironment(
                config, chain_factory=simple_forwarding_chain, faults=faults
            )
            queues = [p.packet_id % env.nic.n_queues for p in packets]
            cycles = env.service_cycles(packets, queues)
            results[label, dataplane] = (
                cycles,
                state_fingerprint(env.hierarchy),
            )
    baseline = results["bare", "scalar"]
    for key, value in results.items():
        assert value == baseline, f"{key} diverges from bare scalar"


def test_fleet_identity():
    report = run_fleet_differential(
        n_servers=3,
        n_tenants=2,
        requests=1200,
        warmup=300,
        epoch_requests=300,
        n_keys=1 << 9,
    )
    assert_equal_report(report)


def test_fleet_identity_under_server_kills():
    """Kill draws happen per epoch before any serving, so the batched
    per-server replay sees the same surviving ring."""
    report = run_fleet_differential(
        n_servers=4,
        n_tenants=3,
        requests=1600,
        warmup=400,
        epoch_requests=200,
        n_keys=1 << 9,
        plan=FaultPlan(seed=21, rates=FaultRates(server_kill=0.08)),
    )
    assert_equal_report(report)


def test_fleet_identity_with_self_healing():
    """The replicated fleet model (replication, detector, hinted handoff,
    admission + shedding) freezes every decision at epoch boundaries,
    so scalar and batched charging see identical work lists."""
    report = run_fleet_differential(
        n_servers=4,
        n_tenants=3,
        requests=1600,
        warmup=400,
        epoch_requests=200,
        n_keys=1 << 9,
        plan=FaultPlan(
            seed=21,
            rates=FaultRates(
                server_kill=0.06,
                server_stall=0.15,
                server_stall_factor=6.0,
                server_recovery_epochs_min=1,
                server_recovery_epochs_max=3,
            ),
        ),
        healing={
            "replication": 2,
            "detector_enabled": True,
            "admit_tenant_mrps": 8.0,
            "shed_lag_high_us": 25.0,
            "shed_lag_low_us": 5.0,
        },
    )
    assert_equal_report(report)


# ----------------------------------------------------------------------
# Hypothesis: arbitrary traces, chains, engines and plans
# ----------------------------------------------------------------------

@st.composite
def chaos_plans(draw):
    """None, or a plan with 0-3 sites armed at aggressive rates."""
    if not draw(st.booleans()):
        return None
    rate_fields = st.sampled_from(
        [
            "nic_drop",
            "nic_corrupt",
            "nic_duplicate",
            "nic_reorder",
            "nic_stall",
            "mempool_alloc_fail",
            "nf_crash",
            "nf_stall",
        ]
    )
    armed = draw(st.lists(rate_fields, max_size=3, unique=True))
    rates = {name: draw(st.floats(0.0, 0.05)) for name in armed}
    return FaultPlan(seed=draw(st.integers(0, 2**16)), rates=FaultRates(**rates))


@given(
    trace_seed=st.integers(0, 2**16),
    n_packets=st.integers(40, 160),
    chain=st.sampled_from(sorted(CHAINS)),
    batched_engine=st.sampled_from(["reference", "fast"]),
    ddio_enabled=st.booleans(),
    plan=chaos_plans(),
)
def test_dataplane_identity_property(
    trace_seed, n_packets, chain, batched_engine, ddio_enabled, plan
):
    report = run_on(
        batched_engine,
        run_dataplane_differential,
        CHAINS[chain],
        n_packets=n_packets,
        trace_seed=trace_seed,
        plan=plan,
        ddio_enabled=ddio_enabled,
        n_mbufs=128,
    )
    assert_equal_report(report)
