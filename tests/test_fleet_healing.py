"""Tests for the self-healing fleet layer.

Covers the config/trivial-routing contract, the phi-accrual heartbeat
detector, token-bucket admission, replica-set structure on the ring,
lost-key monotonicity, and the two lab experiments built on top
(availability, durability) including bit-identical replay from
persisted plans.

Hypothesis widens the structural properties (replica distinctness and
nesting, detector quiescence, lost-key monotonicity) to arbitrary
fleet shapes; failures shrink to a minimal configuration.
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.fleet import (
    assemble_fleet_availability,
    assemble_fleet_durability,
    fleet_availability_to_dict,
    fleet_durability_to_dict,
    format_fleet_availability,
    format_fleet_durability,
    run_fleet_availability,
    run_fleet_availability_point,
    run_fleet_durability,
    run_fleet_durability_point,
)
from repro.faults.plan import FaultPlan, FaultRates
from repro.fleet.cluster import run_fleet_cell
from repro.fleet.healing import (
    HeartbeatDetector,
    SelfHealingConfig,
    TokenBucketAdmission,
    lost_key_fraction,
    resolve_healing,
)
from repro.fleet.ring import build_ring

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

CELL_KW = dict(
    requests=1200,
    warmup=300,
    n_keys=1 << 10,
    epoch_requests=300,
    offered_mrps=16.0,
)
# 8 epochs of 150 requests: small enough for tests, long enough for
# the seed-0 durability plan to fire one kill at intensity >= 1.
SWEEP_KW = dict(
    n_servers=4,
    n_tenants=2,
    requests=1200,
    warmup=300,
    epoch_requests=150,
    n_keys=1 << 10,
    offered_mrps=16.0,
    seed=0,
)


def _canon(payload):
    return json.dumps(payload, sort_keys=True)


class TestSelfHealingConfig:
    def test_default_is_trivial_and_resolves_to_none(self):
        assert SelfHealingConfig().is_trivial
        assert resolve_healing(None) is None
        assert resolve_healing(SelfHealingConfig()) is None
        assert resolve_healing({}) is None
        assert resolve_healing({"replication": 1}) is None

    def test_nontrivial_resolves_to_config(self):
        config = resolve_healing({"replication": 2})
        assert isinstance(config, SelfHealingConfig)
        assert config.replication == 2
        assert resolve_healing({"detector_enabled": True}) is not None
        assert resolve_healing({"admit_tenant_mrps": 1.0}) is not None

    def test_validation(self):
        with pytest.raises(ValueError, match="replication"):
            SelfHealingConfig(replication=0)
        with pytest.raises(ValueError, match="set together"):
            SelfHealingConfig(shed_lag_high_us=10.0)
        with pytest.raises(ValueError, match="shed_lag_low_us"):
            SelfHealingConfig(shed_lag_high_us=10.0, shed_lag_low_us=20.0)
        with pytest.raises(TypeError, match="healing must be"):
            resolve_healing(42)

    def test_dict_round_trip_rejects_unknown_keys(self):
        config = SelfHealingConfig(replication=3, detector_enabled=True)
        assert SelfHealingConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ValueError, match="unknown"):
            SelfHealingConfig.from_dict({"replicaiton": 2})


class TestReplicaSets:
    @given(
        n_servers=st.integers(1, 8),
        replication=st.integers(1, 5),
        tenant=st.integers(0, 15),
        key=st.integers(0, (1 << 20) - 1),
    )
    def test_replicas_distinct_and_nested(
        self, n_servers, replication, tenant, key
    ):
        """Replica sets hold min(R, N) distinct servers, and the set
        for R is always a prefix of the set for R+1."""
        ring = build_ring([f"server-{i}" for i in range(n_servers)])
        replicas = ring.replicas_for(tenant, key, replication)
        assert len(replicas) == min(replication, n_servers)
        assert len(set(replicas)) == len(replicas)
        assert replicas[0] == ring.node_for(tenant, key)
        wider = ring.replicas_for(tenant, key, replication + 1)
        assert wider[: len(replicas)] == replicas


class TestHeartbeatDetector:
    def test_healthy_fleet_never_suspected(self):
        """Satellite (b): at zero stall/kill rate every server beats
        every epoch, so the detector must stay silent forever."""
        config = SelfHealingConfig(detector_enabled=True)
        detector = HeartbeatDetector(4, config)
        for epoch in range(1, 200):
            suspected, rejoined = detector.observe_epoch(epoch, [True] * 4)
            assert suspected == [] and rejoined == []
        assert detector.believed_down == set()

    @given(n_servers=st.integers(1, 6), epochs=st.integers(1, 60))
    def test_healthy_fleet_never_suspected_any_shape(self, n_servers, epochs):
        detector = HeartbeatDetector(
            n_servers, SelfHealingConfig(detector_enabled=True)
        )
        for epoch in range(1, epochs + 1):
            suspected, _ = detector.observe_epoch(epoch, [True] * n_servers)
            assert suspected == []

    def test_dead_server_detected_with_measurable_lag(self):
        detector = HeartbeatDetector(
            2, SelfHealingConfig(detector_enabled=True)
        )
        for epoch in range(1, 5):
            detector.observe_epoch(epoch, [True, True])
        died_at = 5
        detected_at = None
        for epoch in range(died_at, died_at + 10):
            suspected, _ = detector.observe_epoch(epoch, [True, False])
            if suspected:
                detected_at = epoch
                break
        assert detected_at is not None
        assert detector.believed_down == {1}
        # phi = elapsed / ln10 crosses 0.8 two epochs after the last
        # on-time beat (epoch 4): the detection lag is measurable.
        assert detected_at == 6

    def test_suspect_rejoins_after_consecutive_beats(self):
        config = SelfHealingConfig(detector_enabled=True, rejoin_heartbeats=2)
        detector = HeartbeatDetector(1, config)
        for epoch in range(1, 4):
            detector.observe_epoch(epoch, [True])
        for epoch in range(4, 10):
            detector.observe_epoch(epoch, [False])
        assert detector.believed_down == {0}
        rejoined_at = None
        for epoch in range(10, 16):
            _, rejoined = detector.observe_epoch(epoch, [True])
            if rejoined:
                rejoined_at = epoch
                break
        # One beat re-arms the streak, the second rejoins.
        assert rejoined_at == 11
        assert detector.believed_down == set()

    def test_late_beats_inflate_mean_gap(self):
        """Gray servers beating late slow down *future* detection."""
        detector = HeartbeatDetector(
            1, SelfHealingConfig(detector_enabled=True)
        )
        for epoch in (3, 6, 9):  # every beat 3 epochs late
            detector.observe_epoch(epoch, [True])
        assert detector.mean_gap(0) == pytest.approx(3.0)
        assert detector.phi(0, 10) < detector.phi(0, 16)


class TestTokenBucketAdmission:
    def test_burst_capped_by_depth(self):
        bucket = TokenBucketAdmission(1, rate_mrps=1.0, depth=2.0)
        # Three arrivals at the same instant: depth 2 admits two.
        assert bucket.admit(0, 0.0) is True
        assert bucket.admit(0, 0.0) is True
        assert bucket.admit(0, 0.0) is False

    def test_refills_with_arrival_gap(self):
        bucket = TokenBucketAdmission(1, rate_mrps=1.0, depth=1.0)
        assert bucket.admit(0, 0.0) is True
        assert bucket.admit(0, 0.0) is False
        # 1 Mrps at the reference clock = one token per 1/rate cycles.
        gap = 1.0 / bucket.rate_per_cycle
        assert bucket.admit(0, gap) is True

    def test_tenants_are_independent(self):
        bucket = TokenBucketAdmission(2, rate_mrps=1.0, depth=1.0)
        assert bucket.admit(0, 0.0) is True
        assert bucket.admit(0, 0.0) is False
        assert bucket.admit(1, 0.0) is True


class TestLostKeyFraction:
    def test_all_alive_loses_nothing(self):
        ring = build_ring([f"server-{i}" for i in range(4)])
        assert lost_key_fraction(ring, [True] * 4, 2, 256, 1) == 0.0

    def test_all_dead_loses_everything(self):
        ring = build_ring([f"server-{i}" for i in range(3)])
        assert lost_key_fraction(ring, [False] * 3, 2, 256, 2) == 1.0

    def test_alive_length_checked(self):
        ring = build_ring(["a", "b"])
        with pytest.raises(ValueError, match="entries"):
            lost_key_fraction(ring, [True], 1, 64, 1)

    @given(
        n_servers=st.integers(2, 6),
        dead=st.data(),
        replication=st.integers(1, 3),
    )
    def test_monotone_in_replication_and_dead_set(
        self, n_servers, dead, replication
    ):
        """Satellite (b): more replicas never lose more keys; a larger
        dead set never loses fewer (nested dead sets, as the nested
        outage sampler produces)."""
        ring = build_ring([f"server-{i}" for i in range(n_servers)])
        order = dead.draw(st.permutations(range(n_servers)))
        n_dead = dead.draw(st.integers(0, n_servers))
        alive_small = [True] * n_servers  # kill a prefix of `order`
        for sid in order[: max(0, n_dead - 1)]:
            alive_small[sid] = False
        alive_big = list(alive_small)
        for sid in order[:n_dead]:
            alive_big[sid] = False
        frac = lost_key_fraction(ring, alive_big, 2, 256, replication)
        assert frac <= lost_key_fraction(ring, alive_big, 2, 256, 1)
        assert (
            lost_key_fraction(ring, alive_big, 2, 256, replication + 1)
            <= frac
        )
        assert lost_key_fraction(ring, alive_small, 2, 256, replication) <= frac


class TestTrivialConfigTransparency:
    def test_trivial_healing_byte_identical_to_legacy(self):
        """Satellite (a): a trivial healing config routes to the legacy
        loop, so the payload is byte-identical — including the absence
        of any `self_healing` key."""
        bare = run_fleet_cell(3, 2, seed=0, **CELL_KW)
        trivial = run_fleet_cell(3, 2, seed=0, healing={}, **CELL_KW)
        config = run_fleet_cell(
            3, 2, seed=0, healing=SelfHealingConfig(), **CELL_KW
        )
        assert _canon(bare.to_dict()) == _canon(trivial.to_dict())
        assert _canon(bare.to_dict()) == _canon(config.to_dict())
        assert "self_healing" not in bare.to_dict()

    def test_trivial_transparency_under_faults(self):
        plan = FaultPlan(seed=7, rates=FaultRates(server_kill=0.5))
        bare = run_fleet_cell(3, 2, seed=0, plan=plan, **CELL_KW)
        trivial = run_fleet_cell(3, 2, seed=0, plan=plan, healing={}, **CELL_KW)
        assert _canon(bare.to_dict()) == _canon(trivial.to_dict())

    def test_nontrivial_config_emits_payload(self):
        result = run_fleet_cell(
            3, 2, seed=0, healing={"replication": 2}, **CELL_KW
        )
        payload = result.to_dict()
        assert payload["self_healing"]["config"]["replication"] == 2
        assert payload["self_healing"]["counters"]["served"] > 0
        assert payload == json.loads(json.dumps(payload))


class TestFleetAvailability:
    def test_sweep_plans_and_detection_under_chaos(self):
        result = run_fleet_availability(
            intensities=[0.0, 6.0],
            n_servers=4,
            n_tenants=2,
            requests=2400,
            warmup=600,
            epoch_requests=200,
            n_keys=1 << 10,
            offered_mrps=16.0,
            seed=0,
        )
        assert set(result.plans) == {"0", "6"}
        base, hot = result.points
        assert base.availability["detections"] == 0
        assert base.availability["unavailable_fraction"] == 0.0
        assert hot.availability["detections"] > 0
        assert hot.availability["failovers"] > 0
        assert hot.availability["mean_detection_lag_epochs"] > 0
        assert hot.cell["self_healing"]["counters"]["stall_events"] > 0

    def test_assemble_matches_serial_and_replay_is_bit_identical(self):
        kw = dict(
            n_servers=4,
            n_tenants=2,
            requests=1200,
            warmup=300,
            epoch_requests=150,
            n_keys=1 << 10,
            offered_mrps=16.0,
            seed=0,
        )
        intensities = [0.0, 6.0]
        serial = run_fleet_availability(intensities=intensities, **kw)
        points = [
            run_fleet_availability_point(x, **kw) for x in intensities
        ]
        assembled = assemble_fleet_availability(
            dict(kw, intensities=intensities), points
        )
        payload = fleet_availability_to_dict(serial)
        assert _canon(fleet_availability_to_dict(assembled)) == _canon(payload)
        # Replay from the persisted plans, as `repro fleet replay` does.
        plans = json.loads(_canon(payload["plans"]))
        again = run_fleet_availability(
            intensities=intensities, plans=plans, **kw
        )
        assert _canon(fleet_availability_to_dict(again)) == _canon(payload)
        assert "unavail" in format_fleet_availability(serial)


class TestFleetDurability:
    def test_replication_preserves_keys_and_monotone(self):
        """The headline acceptance: R=1 loses keys under kills while
        R>=2 loses none, monotone along both matrix axes."""
        result = run_fleet_durability(
            replications=[1, 2, 3], intensities=[0.0, 1.0, 2.0], **SWEEP_KW
        )
        lost = {
            (p.replication, p.intensity): p.lost_key_fraction
            for p in result.points
        }
        assert lost[(1, 1.0)] > 0.0
        for x in (0.0, 1.0, 2.0):
            assert lost[(2, x)] == 0.0
            assert lost[(3, x)] == 0.0
        for r in (1, 2, 3):
            assert lost[(r, 0.0)] <= lost[(r, 1.0)] <= lost[(r, 2.0)]
        for x in (0.0, 1.0, 2.0):
            assert lost[(1, x)] >= lost[(2, x)] >= lost[(3, x)]
        # The kill schedule is shared across R (plan ignores R).
        for x in (0.0, 1.0, 2.0):
            kills = {result.point(r, x).kills for r in (1, 2, 3)}
            assert len(kills) == 1

    def test_assemble_matches_serial_and_replay_is_bit_identical(self):
        replications = [1, 2]
        intensities = [0.0, 1.0]
        serial = run_fleet_durability(
            replications=replications, intensities=intensities, **SWEEP_KW
        )
        points = [
            run_fleet_durability_point(r, x, **SWEEP_KW)
            for r in replications
            for x in intensities
        ]
        assembled = assemble_fleet_durability(
            dict(SWEEP_KW, replications=replications, intensities=intensities),
            points,
        )
        payload = fleet_durability_to_dict(serial)
        assert _canon(fleet_durability_to_dict(assembled)) == _canon(payload)
        plans = json.loads(_canon(payload["plans"]))
        again = run_fleet_durability(
            replications=replications,
            intensities=intensities,
            plans=plans,
            **SWEEP_KW,
        )
        assert _canon(fleet_durability_to_dict(again)) == _canon(payload)
        assert "lost" in format_fleet_durability(serial)
