"""Tests for fleet servers, the cluster, and the simulation loop."""

import json

import pytest

from repro.cachesim.machines import HASWELL_E5_2667V3, SKYLAKE_GOLD_6134
from repro.experiments.fleet import run_fleet_availability_point
from repro.faults.plan import FaultPlan, FaultRates, plan_for_class
from repro.fleet.cluster import FleetClusterConfig, run_fleet_cell
from repro.fleet.healing import SelfHealingConfig
from repro.fleet.server import FleetServer, spec_for_server

CELL_KW = dict(
    requests=1200,
    warmup=300,
    n_keys=1 << 10,
    epoch_requests=300,
    offered_mrps=16.0,
)


def _canon(result):
    return json.dumps(result.to_dict(), sort_keys=True)


class TestFleetServer:
    def test_machine_mix_alternates(self):
        assert spec_for_server(0) is HASWELL_E5_2667V3
        assert spec_for_server(1) is SKYLAKE_GOLD_6134
        assert spec_for_server(2) is HASWELL_E5_2667V3
        with pytest.raises(ValueError):
            spec_for_server(-1)

    def test_tenant_ways_default_even_split(self):
        server = FleetServer(0, n_tenants=4, n_keys=256)
        assert server.tenant_ways == HASWELL_E5_2667V3.llc_ways // 4

    def test_tenant_ways_bounds(self):
        with pytest.raises(ValueError):
            FleetServer(0, n_tenants=2, n_keys=256, tenant_ways=0)
        with pytest.raises(ValueError):
            FleetServer(0, n_tenants=2, n_keys=256, tenant_ways=999)

    def test_serve_counts_and_costs(self):
        server = FleetServer(0, n_tenants=2, n_keys=256)
        cycles = server.serve(0, 5, True)
        assert cycles > 0
        assert server.served == 1

    def test_kill_is_permanent_state(self):
        server = FleetServer(0, n_tenants=1, n_keys=256)
        server.kill(1234)
        assert not server.alive
        assert server.killed_at_request == 1234
        assert server.stats()["alive"] is False


class TestFleetCluster:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetClusterConfig(n_servers=0, n_tenants=1)
        with pytest.raises(ValueError):
            FleetClusterConfig(n_servers=1, n_tenants=0)


class TestRunFleetCell:
    def test_validation(self):
        with pytest.raises(ValueError):
            run_fleet_cell(2, 2, requests=0)
        with pytest.raises(ValueError):
            run_fleet_cell(2, 2, requests=100, warmup=100)
        with pytest.raises(ValueError):
            run_fleet_cell(2, 2, requests=100, warmup=0, epoch_requests=0)

    def test_deterministic(self):
        a = run_fleet_cell(2, 2, seed=3, **CELL_KW)
        b = run_fleet_cell(2, 2, seed=3, **CELL_KW)
        assert _canon(a) == _canon(b)

    def test_seed_matters(self):
        a = run_fleet_cell(2, 2, seed=0, **CELL_KW)
        b = run_fleet_cell(2, 2, seed=1, **CELL_KW)
        assert _canon(a) != _canon(b)

    def test_zero_plan_bit_identical_to_no_plan(self):
        """An all-zero plan must not perturb a single bit."""
        bare = run_fleet_cell(2, 2, seed=0, **CELL_KW)
        zero = run_fleet_cell(
            2, 2, seed=0, plan=FaultPlan(seed=99, rates=FaultRates()), **CELL_KW
        )
        assert _canon(bare) == _canon(zero)

    def test_plan_accepts_dict_form(self):
        plan = FaultPlan(seed=7, rates=FaultRates(server_kill=0.5))
        a = run_fleet_cell(3, 2, seed=0, plan=plan, **CELL_KW)
        b = run_fleet_cell(3, 2, seed=0, plan=plan.to_dict(), **CELL_KW)
        assert _canon(a) == _canon(b)

    def test_kills_fire_and_reshard(self):
        plan = FaultPlan(seed=7, rates=FaultRates(server_kill=0.5))
        result = run_fleet_cell(3, 2, seed=0, plan=plan, **CELL_KW)
        payload = result.to_dict()
        assert payload["kills"], "expected kills at rate 0.5"
        assert payload["alive_at_end"] >= 1
        assert payload["alive_at_end"] == 3 - len(payload["kills"])
        assert payload["fault_counters"]["fleet.injected_server_kills"] == len(
            payload["kills"]
        )
        # Dead servers stop serving; survivors pick up their keys.
        dead = {k["server"] for k in payload["kills"]}
        for server in payload["servers"]:
            if server["name"] in dead:
                assert server["alive"] is False
        assert payload["measured"] == CELL_KW["requests"] - CELL_KW["warmup"]

    def test_last_server_never_killed(self):
        plan = FaultPlan(seed=1, rates=FaultRates(server_kill=1.0))
        result = run_fleet_cell(4, 2, seed=0, plan=plan, **CELL_KW)
        assert result.to_dict()["alive_at_end"] == 1

    def test_goodput_and_tails_sane(self):
        payload = run_fleet_cell(2, 2, seed=0, **CELL_KW).to_dict()
        pct = payload["latency_us"]["percentiles"]
        assert 0 < pct["p50"] <= pct["p99"] <= pct["p99.9"]
        assert payload["goodput_mrps"] > 0
        assert len(payload["tenants"]) == 2
        assert sum(t["count"] for t in payload["tenants"]) == payload[
            "measured"
        ]
        assert len(payload["window_p99_us"]) == 3  # (1200-300)/300

    def test_payload_json_round_trips(self):
        payload = run_fleet_cell(2, 2, seed=0, **CELL_KW).to_dict()
        assert payload == json.loads(json.dumps(payload))


class TestReshardModelRejectsStallAndReboot:
    """Without self-healing, kills are permanent and servers never
    stall, so a plan that stalls or reboots servers must fail loudly
    instead of running permanent kills only."""

    @pytest.mark.parametrize(
        "healing", [None, {}, SelfHealingConfig()], ids=["none", "dict", "config"]
    )
    def test_gray_plan_without_healing_names_rates(self, healing):
        plan = plan_for_class("fleet-gray", seed=7, intensity=2.0)
        with pytest.raises(ValueError) as excinfo:
            run_fleet_cell(3, 2, seed=0, plan=plan, healing=healing, **CELL_KW)
        message = str(excinfo.value)
        assert "server_stall=0.06" in message
        assert "server_recovery_epochs_max=5" in message
        assert "healing=" in message

    def test_stall_only_plan_rejected(self):
        plan = FaultPlan(seed=1, rates=FaultRates(server_stall=0.1))
        with pytest.raises(ValueError, match="server_stall=0.1"):
            run_fleet_cell(3, 2, seed=0, plan=plan.to_dict(), **CELL_KW)

    def test_availability_point_with_trivial_healing_rejected(self):
        with pytest.raises(ValueError, match="healing="):
            run_fleet_availability_point(
                2.0,
                n_servers=4,
                n_tenants=2,
                requests=1500,
                warmup=300,
                epoch_requests=150,
                n_keys=512,
                healing={},
            )

    def test_server_kill_and_zero_gray_plans_accepted(self):
        """Kill-only plans run; a zero-intensity gray plan keeps its
        recovery delays but fires nothing, so it equals no plan."""
        kill = run_fleet_cell(
            3,
            2,
            seed=0,
            plan=plan_for_class("server-kill", seed=7, intensity=12.0),
            **CELL_KW,
        )
        assert kill.to_dict()["kills"]
        assert "self_healing" not in kill.to_dict()
        bare = run_fleet_cell(3, 2, seed=0, **CELL_KW)
        zero_gray = run_fleet_cell(
            3,
            2,
            seed=0,
            plan=plan_for_class("fleet-gray", seed=7, intensity=0.0),
            **CELL_KW,
        )
        assert _canon(zero_gray) == _canon(bare)
