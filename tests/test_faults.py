"""Unit tests for the fault layer: plans, clocks, stats, bulk streams."""

import json

import numpy as np
import pytest

from repro.faults.plan import (
    FAULT_CLASSES,
    FaultClock,
    FaultPlan,
    FaultRates,
    FaultStats,
    InjectedFault,
    KvsRequestFault,
    NfCrashFault,
    PROBABILITY_FIELDS,
    plan_for_class,
    resolve_plan,
)
from repro.faults.streams import apply_bulk_faults


def _clock(seed=0, **rates):
    return FaultClock(FaultPlan(seed=seed, rates=FaultRates(**rates)))


def _persisted(plan):
    """*plan* after a round trip through a chaos artifact's JSON."""
    return FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))


class TestFaultRates:
    @pytest.mark.parametrize("field", PROBABILITY_FIELDS)
    def test_probability_bounds(self, field):
        with pytest.raises(ValueError):
            FaultRates(**{field: 1.5})
        with pytest.raises(ValueError):
            FaultRates(**{field: -0.1})
        FaultRates(**{field: 0.0})
        FaultRates(**{field: 1.0})

    @pytest.mark.parametrize(
        "field", ["nic_stall_cycles", "nf_stall_cycles", "kvs_slow_cycles"]
    )
    def test_negative_magnitudes_rejected(self, field):
        with pytest.raises(ValueError):
            FaultRates(**{field: -1})

    def test_exhaust_window_bounds(self):
        with pytest.raises(ValueError):
            FaultRates(mempool_exhaust_allocs_min=0)
        with pytest.raises(ValueError):
            FaultRates(
                mempool_exhaust_allocs_min=8, mempool_exhaust_allocs_max=4
            )
        FaultRates(mempool_exhaust_allocs_min=3, mempool_exhaust_allocs_max=3)

    def test_any_active(self):
        assert not FaultRates().any_active
        assert FaultRates(nic_drop=0.01).any_active
        # Magnitudes alone never make a plan active.
        assert not FaultRates(nf_stall_cycles=99_999).any_active

    def test_scaled_multiplies_probabilities_only(self):
        rates = FaultRates(nic_drop=0.4, nf_stall=0.1, nf_stall_cycles=7_000)
        doubled = rates.scaled(2.0)
        assert doubled.nic_drop == pytest.approx(0.8)
        assert doubled.nf_stall == pytest.approx(0.2)
        assert doubled.nf_stall_cycles == 7_000  # magnitude untouched

    def test_scaled_caps_at_one(self):
        assert FaultRates(nic_drop=0.4).scaled(10.0).nic_drop == 1.0

    def test_scaled_zero_deactivates(self):
        assert not FaultRates(nic_drop=0.5, kvs_fail=0.5).scaled(0.0).any_active

    def test_scaled_negative_rejected(self):
        with pytest.raises(ValueError):
            FaultRates().scaled(-1.0)

    def test_dict_round_trip(self):
        rates = FaultRates(nic_drop=0.02, mempool_exhaust=0.001)
        assert FaultRates.from_dict(rates.to_dict()) == rates

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown FaultRates fields"):
            FaultRates.from_dict({"nic_drop": 0.1, "cosmic_rays": 0.5})


class TestServerKillSite:
    """The fleet's whole-server kill site rides the same plan machinery."""

    def test_server_kill_is_a_probability_field(self):
        assert "server_kill" in PROBABILITY_FIELDS
        assert FaultRates(server_kill=0.1).any_active
        assert FaultRates(server_kill=0.1).scaled(5.0).server_kill == 0.5

    def test_server_kill_class_registered(self):
        plan = plan_for_class("server-kill", seed=4, intensity=2.0)
        assert plan.rates.server_kill == pytest.approx(0.04)
        # Only the kill site is armed: scaling to zero deactivates all.
        assert not plan.scaled(0.0).rates.any_active

    def test_server_kill_round_trips_canonically(self):
        plan = FaultPlan(seed=11, rates=FaultRates(server_kill=0.03))
        again = _persisted(plan)
        assert again == plan
        assert again.to_dict() == plan.to_dict()

    def test_zero_server_kill_is_bit_transparent(self):
        clock = _clock(seed=5, server_kill=0.0)
        assert not clock.fires("fleet.server_kill", clock.rates.server_kill)
        assert clock._streams == {}  # no stream created, bit-identity holds

    def test_kill_decisions_replay_from_plan(self):
        plan = FaultPlan(seed=21, rates=FaultRates(server_kill=0.25))
        first = FaultClock(plan)
        second = FaultClock(_persisted(plan))
        draws_a = [first.fires("fleet.server_kill", 0.25) for _ in range(64)]
        draws_b = [second.fires("fleet.server_kill", 0.25) for _ in range(64)]
        assert draws_a == draws_b
        assert any(draws_a)  # the site actually fires at this rate


class TestFaultPlan:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=-1)

    def test_json_round_trip(self):
        plan = FaultPlan(seed=42, rates=FaultRates(nic_corrupt=0.03))
        assert _persisted(plan) == plan

    def test_scaled_keeps_seed(self):
        plan = FaultPlan(seed=9, rates=FaultRates(nic_drop=0.1)).scaled(3.0)
        assert plan.seed == 9
        assert plan.rates.nic_drop == pytest.approx(0.3)


class TestFaultClock:
    def test_sites_are_interleaving_independent(self):
        """Per-site sequences never depend on draws at other sites."""
        interleaved = _clock(seed=3)
        a1 = [interleaved.stream("a").random() for _ in range(4)]
        b1 = [interleaved.stream("b").random() for _ in range(4)]
        mixed = _clock(seed=3)
        a2, b2 = [], []
        for _ in range(4):
            a2.append(mixed.stream("a").random())
            b2.append(mixed.stream("b").random())
        assert a1 == a2
        assert b1 == b2

    def test_distinct_sites_distinct_streams(self):
        clock = _clock(seed=0)
        assert not np.array_equal(
            clock.uniforms("nic.drop", 16), clock.uniforms("nf.crash", 16)
        )

    def test_zero_rate_draws_nothing(self):
        clock = _clock(seed=0)
        assert not clock.fires("nic.drop", 0.0)
        assert not clock.fires("nic.drop", -1.0)
        assert clock._streams == {}  # bit-transparency: no stream created

    def test_rate_one_always_fires(self):
        clock = _clock(seed=0)
        assert all(clock.fires("x", 1.0) for _ in range(32))

    def test_cross_clock_determinism(self):
        a = _clock(seed=11).uniforms("mempool.alloc_fail", 64)
        b = _clock(seed=11).uniforms("mempool.alloc_fail", 64)
        assert np.array_equal(a, b)

    def test_integers_in_range(self):
        clock = _clock(seed=0)
        draws = [clock.integers("w", 3, 7) for _ in range(100)]
        assert min(draws) >= 3 and max(draws) < 7


class TestFaultStats:
    def test_bump_get_default(self):
        stats = FaultStats()
        assert stats.get("x") == 0
        stats.bump("x")
        stats.bump("x", 4)
        assert stats.get("x") == 5

    def test_merge(self):
        a, b = FaultStats(), FaultStats()
        a.bump("drops", 2)
        b.bump("drops", 3)
        b.bump("crashes")
        a.merge(b)
        assert a.to_dict() == {"crashes": 1, "drops": 5}

    def test_to_dict_sorted(self):
        stats = FaultStats()
        stats.bump("z")
        stats.bump("a")
        assert list(stats.to_dict()) == ["a", "z"]


class TestFaultClasses:
    def test_none_class_is_inactive(self):
        assert not plan_for_class("none", seed=0).rates.any_active

    def test_every_class_builds(self):
        for name in FAULT_CLASSES:
            plan = plan_for_class(name, seed=5)
            assert plan.seed == 5

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown fault class"):
            plan_for_class("solar-flare", seed=0)

    def test_intensity_scales_class(self):
        plan = plan_for_class("nic-drop", seed=0, intensity=2.0)
        assert plan.rates.nic_drop == pytest.approx(
            2.0 * FAULT_CLASSES["nic-drop"].nic_drop
        )

    def test_resolve_plan(self):
        assert resolve_plan(None) is None
        plan = FaultPlan(seed=1, rates=FaultRates(kvs_fail=0.1))
        assert resolve_plan(plan) is plan
        assert resolve_plan(plan.to_dict()) == plan
        with pytest.raises(TypeError):
            resolve_plan(3.14)

    def test_fault_taxonomy(self):
        assert issubclass(NfCrashFault, InjectedFault)
        assert issubclass(KvsRequestFault, InjectedFault)
        assert NfCrashFault("router").nf_name == "router"


def _arrays(n):
    arrivals = np.arange(n, dtype=float) * 100.0
    sizes = np.full(n, 64.0)
    queues = np.arange(n) % 4
    service = np.full(n, 500.0)
    return arrivals, sizes, queues, service


class TestBulkFaults:
    def test_zero_rates_identity(self):
        clock = _clock(seed=0)
        arrivals, sizes, queues, service = _arrays(50)
        out = apply_bulk_faults(clock, arrivals, sizes, queues, service)
        assert np.array_equal(out.arrivals_ns, arrivals)
        assert np.array_equal(out.sizes_bytes, sizes)
        assert np.array_equal(out.queue_ids, queues)
        assert np.array_equal(out.service_ns, service)
        assert out.goodput.all()
        assert clock._streams == {}  # nothing was drawn
        assert clock.stats.to_dict() == {}

    def test_length_mismatch_rejected(self):
        clock = _clock(seed=0)
        a, s, q, svc = _arrays(10)
        with pytest.raises(ValueError, match="equal length"):
            apply_bulk_faults(clock, a[:9], s, q, svc)

    def test_drops_counted(self):
        clock = _clock(seed=0, nic_drop=0.5)
        out = apply_bulk_faults(clock, *_arrays(400))
        dropped = 400 - out.arrivals_ns.size
        assert 0 < dropped < 400
        assert clock.stats.get("nic.injected_drops") == dropped

    def test_duplicates_back_to_back_without_goodput(self):
        clock = _clock(seed=0, nic_duplicate=1.0)
        arrivals, sizes, queues, service = _arrays(20)
        out = apply_bulk_faults(clock, arrivals, sizes, queues, service)
        assert out.arrivals_ns.size == 40
        # Original then its copy, back to back; copies excluded from goodput.
        assert np.array_equal(out.arrivals_ns[0::2], out.arrivals_ns[1::2])
        assert int(out.goodput.sum()) == 20
        assert out.goodput[0::2].all() and not out.goodput[1::2].any()
        assert clock.stats.get("nic.injected_duplicates") == 20

    def test_corruption_delivered_but_not_goodput(self):
        clock = _clock(seed=0, nic_corrupt=1.0)
        out = apply_bulk_faults(clock, *_arrays(30))
        assert out.arrivals_ns.size == 30  # still traverses the queue
        assert not out.goodput.any()
        assert clock.stats.get("nic.injected_corruptions") == 30

    def test_reorder_preserves_population(self):
        clock = _clock(seed=0, nic_reorder=1.0)
        arrivals, sizes, queues, service = _arrays(40)
        sizes = np.arange(40, dtype=float)
        out = apply_bulk_faults(clock, arrivals, sizes, queues, service)
        assert out.arrivals_ns.size == 40
        assert sorted(out.sizes_bytes) == sorted(sizes)
        assert clock.stats.get("nic.injected_reorders") > 0
        # No-cascade rule: a swap moves a frame by at most one slot.
        displacement = np.abs(out.sizes_bytes - sizes)
        assert displacement.max() <= 1.0

    def test_stall_inflates_service(self):
        clock = _clock(seed=0, nic_stall=1.0, nic_stall_cycles=3_200)
        arrivals, sizes, queues, service = _arrays(10)
        out = apply_bulk_faults(
            clock, arrivals, sizes, queues, service, freq_ghz=3.2
        )
        assert np.allclose(out.service_ns, service + 1_000.0)
        assert clock.stats.get("nic.injected_stalls") == 10

    def test_intensity_superset_makes_goodput_monotone(self):
        """Nested sampling: higher intensity drops a superset of packets."""
        base = FaultRates(nic_drop=0.05)
        survivors = {}
        for intensity in (1.0, 2.0, 4.0):
            clock = FaultClock(FaultPlan(seed=7, rates=base.scaled(intensity)))
            out = apply_bulk_faults(clock, *_arrays(500))
            survivors[intensity] = set(out.arrivals_ns.tolist())
        assert survivors[4.0] <= survivors[2.0] <= survivors[1.0]
        assert len(survivors[4.0]) < len(survivors[1.0])
