"""Tests for the fleet lab experiments: split identity, replay, zero arm."""

import json

import pytest

from repro.experiments.fleet import (
    assemble_fleet_failover,
    assemble_fleet_scale,
    format_fleet_failover,
    format_fleet_scale,
    run_fleet_failover,
    run_fleet_failover_point,
    run_fleet_scale,
    run_fleet_scale_cell,
)
from repro.lab.registry import default_registry
from repro.lab.spec import to_payload

SHARED = dict(
    requests=1200,
    warmup=300,
    n_keys=1 << 10,
    epoch_requests=300,
    offered_mrps=16.0,
)


def _canon(payload):
    return json.dumps(payload, sort_keys=True)


class TestFleetScale:
    def test_grid_shape_and_order(self):
        result = run_fleet_scale(
            server_counts=[2, 3], tenant_counts=[1, 2], seed=0, **SHARED
        )
        assert len(result.cells) == 4
        assert result.cell(3, 2)["n_servers"] == 3
        assert result.cell(3, 2)["n_tenants"] == 2

    def test_assemble_matches_serial(self):
        params = dict(SHARED, server_counts=[2, 3], tenant_counts=[2], seed=0)
        serial = run_fleet_scale(
            server_counts=[2, 3], tenant_counts=[2], seed=0, **SHARED
        )
        cells = [
            run_fleet_scale_cell(n_servers, 2, seed=0, **SHARED)
            for n_servers in (2, 3)
        ]
        assembled = assemble_fleet_scale(params, cells)
        assert _canon(to_payload(assembled)) == _canon(
            to_payload(serial)
        )

    def test_assemble_rejects_wrong_count(self):
        with pytest.raises(ValueError, match="expected"):
            assemble_fleet_scale(
                {"server_counts": [2], "tenant_counts": [2]}, []
            )

    def test_format_lists_every_cell(self):
        result = run_fleet_scale(
            server_counts=[2], tenant_counts=[1, 2], seed=0, **SHARED
        )
        text = format_fleet_scale(result)
        assert len(text.splitlines()) == 2 + 2  # header rows + grid cells
        assert "p99" in text


class TestFleetFailover:
    def test_plans_persisted_per_intensity(self):
        result = run_fleet_failover(
            intensities=[0.0, 4.0], n_servers=2, n_tenants=2, seed=0, **SHARED
        )
        assert set(result.plans) == {"0", "4"}
        assert result.plans["4"]["rates"]["server_kill"] == pytest.approx(0.08)

    def test_zero_intensity_matches_fault_free_scale_cell(self):
        """The acceptance criterion: the zero arm is bit-identical to
        the fault-free fleet-scale cell at the same shape and seed."""
        sweep = run_fleet_failover(
            intensities=[0.0], n_servers=3, n_tenants=2, seed=5, **SHARED
        )
        cell = run_fleet_scale_cell(3, 2, seed=5, **SHARED)
        assert _canon(sweep.points[0].cell) == _canon(cell)

    def test_replay_from_persisted_plans_is_bit_identical(self):
        first = run_fleet_failover(
            intensities=[0.0, 2.0, 4.0],
            n_servers=3,
            n_tenants=2,
            seed=0,
            **SHARED,
        )
        payload = to_payload(first)
        # Round-trip the plans through JSON, as `repro fleet replay`
        # does with a persisted artifact.
        plans = json.loads(_canon(payload["plans"]))
        again = run_fleet_failover(
            intensities=[0.0, 2.0, 4.0],
            n_servers=3,
            n_tenants=2,
            seed=0,
            plans=plans,
            **SHARED,
        )
        assert _canon(to_payload(again)) == _canon(payload)

    def test_replay_plans_override_generation(self):
        """A replay plan wins over seed-derived generation."""
        hot = run_fleet_failover_point(
            0.0,
            n_servers=3,
            n_tenants=2,
            seed=0,
            plans={"0": {"seed": 3, "rates": {"server_kill": 1.0}}},
            **SHARED,
        )
        assert hot.cell["kills"]  # the override's rate fired

    def test_assemble_matches_serial(self):
        params = dict(
            SHARED, intensities=[0.0, 4.0], n_servers=3, n_tenants=2, seed=0
        )
        serial = run_fleet_failover(
            intensities=[0.0, 4.0], n_servers=3, n_tenants=2, seed=0, **SHARED
        )
        points = [
            run_fleet_failover_point(
                intensity, n_servers=3, n_tenants=2, seed=0, **SHARED
            )
            for intensity in (0.0, 4.0)
        ]
        assembled = assemble_fleet_failover(params, points)
        assert _canon(to_payload(assembled)) == _canon(
            to_payload(serial)
        )

    def test_recovery_metrics_present(self):
        result = run_fleet_failover(
            intensities=[4.0], n_servers=3, n_tenants=2, seed=0, **SHARED
        )
        recovery = result.points[0].recovery
        assert recovery["peak_p99_us"] >= recovery["steady_p99_us"] > 0
        assert recovery["tail_inflation"] >= 1.0

    def test_format_lists_every_point(self):
        result = run_fleet_failover(
            intensities=[0.0, 4.0], n_servers=2, n_tenants=2, seed=0, **SHARED
        )
        text = format_fleet_failover(result)
        assert "intensity" in text
        assert len(text.splitlines()) == 2 + 2  # header rows + points


class TestRegistry:
    def test_fleet_experiments_registered_with_split(self):
        registry = default_registry()
        for name in ("fleet-scale", "fleet-failover"):
            spec = registry.get(name)
            assert spec.split is not None
            assert spec.seeded
            assert "fleet" in spec.tags
