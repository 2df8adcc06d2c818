"""Fleet experiments: goodput/tails at scale, failover under chaos.

Two experiments drive :mod:`repro.fleet` through the lab runner:

* ``fleet-scale`` — a grid over server count × tenant count at fixed
  offered load: fleet goodput and p50/p99/p99.9 tail latency as the
  cluster and its tenancy degree grow.  Each cell is an independent
  task (split-parallel, bit-identical to serial).

* ``fleet-failover`` — a fault-intensity sweep at one fleet shape:
  the chaos clock kills whole servers (site ``fleet.server_kill``)
  at epoch boundaries, killed servers leave the consistent-hash ring,
  and the orphaned keys re-shard to ring successors whose caches are
  cold for them.  Each point reports tail inflation (steady vs peak
  windowed p99) and how many epochs the fleet needs to re-converge.

Every failover point's fault plan is part of the persisted payload,
so an artifact replays bit-identically from its own JSON (``plans``
parameter / ``repro fleet replay``) — and the zero-intensity point is
bit-identical to the fault-free ``fleet-scale`` cell of the same
shape (an all-zero plan draws nothing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.experiments import require_fast_engine
from repro.faults.plan import FaultPlan, plan_for_class, resolve_plan
from repro.fleet.cluster import run_fleet_cell

#: Server/tenant grids the scale experiment covers by default.
DEFAULT_SERVER_COUNTS = [2, 4, 8]
DEFAULT_TENANT_COUNTS = [2, 4, 8]

#: Intensities the failover sweep covers by default (0 = fault-free).
DEFAULT_FAILOVER_INTENSITIES = [0.0, 0.5, 1.0, 2.0, 4.0]

#: Offset separating fleet fault-plan seeds from the experiment seed
#: stream (and from the chaos experiments' 7_000 offset).
FLEET_FAULT_SEED_OFFSET = 9_000

#: Windowed p99 must fall back within this factor of the steady-state
#: level for the fleet to count as recovered after a kill.
RECOVERY_FACTOR = 1.5


def _failover_plan(
    intensity: float,
    fault_seed: int,
    plans: Optional[Mapping[str, Mapping[str, Any]]],
) -> FaultPlan:
    """The plan for one sweep point: a replay override wins."""
    key = f"{intensity:g}"
    if plans is not None and key in plans:
        return resolve_plan(plans[key])
    return plan_for_class("server-kill", seed=fault_seed, intensity=intensity)


# ----------------------------------------------------------------------
# fleet-scale
# ----------------------------------------------------------------------

@dataclass
class FleetScaleResult:
    """The server × tenant goodput/tail grid."""

    server_counts: List[int]
    tenant_counts: List[int]
    offered_mrps: float
    cells: List[Dict[str, Any]]  # row-major: servers outer, tenants inner

    def cell(self, n_servers: int, n_tenants: int) -> Dict[str, Any]:
        """The payload for one grid shape."""
        row = self.server_counts.index(n_servers)
        col = self.tenant_counts.index(n_tenants)
        return self.cells[row * len(self.tenant_counts) + col]


def run_fleet_scale_cell(
    n_servers: int,
    n_tenants: int,
    requests: int = 4000,
    warmup: int = 800,
    n_keys: int = 1 << 12,
    theta: float = 0.99,
    get_fraction: float = 0.95,
    offered_mrps: float = 2.0,
    vnodes: int = 64,
    epoch_requests: int = 500,
    tenant_ways: Optional[int] = None,
    ddio_ways: Optional[int] = None,
    seed: int = 0,
) -> Dict[str, Any]:
    """One independently-runnable grid cell (fault-free)."""
    result = run_fleet_cell(
        n_servers=n_servers,
        n_tenants=n_tenants,
        requests=requests,
        warmup=warmup,
        n_keys=n_keys,
        theta=theta,
        get_fraction=get_fraction,
        offered_mrps=offered_mrps,
        vnodes=vnodes,
        epoch_requests=epoch_requests,
        tenant_ways=tenant_ways,
        ddio_ways=ddio_ways,
        seed=seed,
    )
    return result.to_dict()


def run_fleet_scale(
    server_counts: Optional[Sequence[int]] = None,
    tenant_counts: Optional[Sequence[int]] = None,
    requests: int = 4000,
    warmup: int = 800,
    n_keys: int = 1 << 12,
    theta: float = 0.99,
    get_fraction: float = 0.95,
    offered_mrps: float = 2.0,
    vnodes: int = 64,
    epoch_requests: int = 500,
    tenant_ways: Optional[int] = None,
    ddio_ways: Optional[int] = None,
    engine: str = "fast",  # pinned: e2ebench/digests.json and fleet goldens
    seed: int = 0,
) -> FleetScaleResult:
    """Sweep fleet shape; every cell serves *requests* Zipf requests."""
    require_fast_engine(engine)
    servers_grid = [
        int(v)
        for v in (server_counts if server_counts is not None
                  else DEFAULT_SERVER_COUNTS)
    ]
    tenants_grid = [
        int(v)
        for v in (tenant_counts if tenant_counts is not None
                  else DEFAULT_TENANT_COUNTS)
    ]
    cells = [
        run_fleet_scale_cell(
            n_servers,
            n_tenants,
            requests=requests,
            warmup=warmup,
            n_keys=n_keys,
            theta=theta,
            get_fraction=get_fraction,
            offered_mrps=offered_mrps,
            vnodes=vnodes,
            epoch_requests=epoch_requests,
            tenant_ways=tenant_ways,
            ddio_ways=ddio_ways,
            seed=seed,
        )
        for n_servers in servers_grid
        for n_tenants in tenants_grid
    ]
    return FleetScaleResult(
        server_counts=servers_grid,
        tenant_counts=tenants_grid,
        offered_mrps=offered_mrps,
        cells=cells,
    )


def assemble_fleet_scale(
    params: Mapping[str, Any], cell_results: Sequence[Dict[str, Any]]
) -> FleetScaleResult:
    """Reassemble :func:`run_fleet_scale` from fanned-out cells.

    ``cell_results`` must be ordered like the lab split generates
    them: servers outer, tenants inner.
    """
    servers_grid = [
        int(v)
        for v in (params.get("server_counts") or DEFAULT_SERVER_COUNTS)
    ]
    tenants_grid = [
        int(v)
        for v in (params.get("tenant_counts") or DEFAULT_TENANT_COUNTS)
    ]
    expected = len(servers_grid) * len(tenants_grid)
    if len(cell_results) != expected:
        raise ValueError(
            f"expected {expected} cells, got {len(cell_results)}"
        )
    return FleetScaleResult(
        server_counts=servers_grid,
        tenant_counts=tenants_grid,
        offered_mrps=float(params.get("offered_mrps", 2.0)),
        cells=list(cell_results),
    )


def fleet_scale_to_dict(result: FleetScaleResult) -> Dict[str, Any]:
    """JSON-ready form (the persisted scale artifact)."""
    return {
        "server_counts": list(result.server_counts),
        "tenant_counts": list(result.tenant_counts),
        "offered_mrps": result.offered_mrps,
        "cells": list(result.cells),
    }


def format_fleet_scale(result: FleetScaleResult) -> str:
    """Render the goodput/tail grid."""
    out = [
        f"Fleet scale — goodput and tails @ "
        f"{result.offered_mrps:g} Mrps offered"
    ]
    out.append(
        "servers | tenants |  goodput |    p50 |     p99 |   p99.9"
    )
    for n_servers in result.server_counts:
        for n_tenants in result.tenant_counts:
            cell = result.cell(n_servers, n_tenants)
            pct = cell["latency_us"]["percentiles"]
            out.append(
                f"{n_servers:>7d} | {n_tenants:>7d} "
                f"| {cell['goodput_mrps']:>5.2f}Mrp "
                f"| {pct['p50']:>5.2f}us | {pct['p99']:>6.2f}us "
                f"| {pct['p99.9']:>6.2f}us"
            )
    return "\n".join(out)


# ----------------------------------------------------------------------
# fleet-failover
# ----------------------------------------------------------------------

def _recovery_metrics(cell: Mapping[str, Any]) -> Dict[str, Any]:
    """Tail inflation + re-convergence derived from one cell payload.

    Steady state is the windowed p99 before the first kill (whole run
    when nothing dies).  Peak is the worst window at or after the
    first kill; recovery is how many windows elapse from the kill
    until the windowed p99 falls back under
    ``RECOVERY_FACTOR × steady`` (-1 = never within the run).
    """
    windows = [float(v) for v in cell["window_p99_us"]]
    kills = cell["kills"]
    if not windows:
        return {
            "steady_p99_us": 0.0,
            "peak_p99_us": 0.0,
            "tail_inflation": 1.0,
            "recovery_windows": 0,
        }
    if not kills:
        steady = float(np.median(windows))
        return {
            "steady_p99_us": steady,
            "peak_p99_us": float(max(windows)),
            "tail_inflation": (
                float(max(windows)) / steady if steady > 0 else 1.0
            ),
            "recovery_windows": 0,
        }
    # Window w covers requests [warmup + w*epoch, ...); kill epochs are
    # absolute request indices, so translate via the measured offset.
    requests = int(cell["requests"])
    measured = int(cell["measured"])
    warmup = requests - measured
    epoch_requests = max(1, (requests - warmup) // max(1, len(windows)))
    first_kill = min(int(k["request_index"]) for k in kills)
    kill_window = max(0, (first_kill - warmup) // epoch_requests)
    kill_window = min(kill_window, len(windows) - 1)
    pre = windows[:kill_window] or windows[: kill_window + 1]
    steady = float(np.median(pre))
    post = windows[kill_window:]
    peak = float(max(post))
    recovery = -1
    threshold = RECOVERY_FACTOR * steady
    for offset, value in enumerate(post):
        if value <= threshold:
            recovery = offset
            break
    return {
        "steady_p99_us": steady,
        "peak_p99_us": peak,
        "tail_inflation": peak / steady if steady > 0 else 1.0,
        "recovery_windows": recovery,
    }


@dataclass
class FleetFailoverPoint:
    """One intensity point of the failover sweep."""

    intensity: float
    cell: Dict[str, Any]
    recovery: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "intensity": self.intensity,
            "cell": self.cell,
            "recovery": self.recovery,
        }


@dataclass
class FleetFailoverResult:
    """Tail inflation and recovery vs chaos intensity."""

    n_servers: int
    n_tenants: int
    intensities: List[float]
    plans: Dict[str, Dict[str, Any]]
    points: List[FleetFailoverPoint]


def run_fleet_failover_point(
    intensity: float,
    n_servers: int = 4,
    n_tenants: int = 4,
    requests: int = 4000,
    warmup: int = 800,
    n_keys: int = 1 << 12,
    theta: float = 0.99,
    get_fraction: float = 0.95,
    offered_mrps: float = 2.0,
    vnodes: int = 64,
    epoch_requests: int = 500,
    tenant_ways: Optional[int] = None,
    ddio_ways: Optional[int] = None,
    seed: int = 0,
    plans: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> FleetFailoverPoint:
    """One independently-runnable sweep point.

    The fault seed derives from the experiment seed; passing ``plans``
    (the persisted ``{intensity: plan_dict}`` map from an earlier
    artifact) replays those plans verbatim instead.
    """
    plan = _failover_plan(intensity, seed + FLEET_FAULT_SEED_OFFSET, plans)
    result = run_fleet_cell(
        n_servers=n_servers,
        n_tenants=n_tenants,
        requests=requests,
        warmup=warmup,
        n_keys=n_keys,
        theta=theta,
        get_fraction=get_fraction,
        offered_mrps=offered_mrps,
        vnodes=vnodes,
        epoch_requests=epoch_requests,
        tenant_ways=tenant_ways,
        ddio_ways=ddio_ways,
        seed=seed,
        plan=plan,
    )
    cell = result.to_dict()
    return FleetFailoverPoint(
        intensity=float(intensity),
        cell=cell,
        recovery=_recovery_metrics(cell),
    )


def run_fleet_failover(
    intensities: Optional[Sequence[float]] = None,
    n_servers: int = 4,
    n_tenants: int = 4,
    requests: int = 4000,
    warmup: int = 800,
    n_keys: int = 1 << 12,
    theta: float = 0.99,
    get_fraction: float = 0.95,
    offered_mrps: float = 2.0,
    vnodes: int = 64,
    epoch_requests: int = 500,
    tenant_ways: Optional[int] = None,
    ddio_ways: Optional[int] = None,
    engine: str = "fast",  # pinned: e2ebench/digests.json and fleet goldens
    seed: int = 0,
    plans: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> FleetFailoverResult:
    """Sweep server-kill intensity at one fleet shape."""
    require_fast_engine(engine)
    grid = [
        float(v)
        for v in (intensities if intensities is not None
                  else DEFAULT_FAILOVER_INTENSITIES)
    ]
    used_plans = {
        f"{intensity:g}": _failover_plan(
            intensity, seed + FLEET_FAULT_SEED_OFFSET, plans
        ).to_dict()
        for intensity in grid
    }
    points = [
        run_fleet_failover_point(
            intensity,
            n_servers=n_servers,
            n_tenants=n_tenants,
            requests=requests,
            warmup=warmup,
            n_keys=n_keys,
            theta=theta,
            get_fraction=get_fraction,
            offered_mrps=offered_mrps,
            vnodes=vnodes,
            epoch_requests=epoch_requests,
            tenant_ways=tenant_ways,
            ddio_ways=ddio_ways,
            seed=seed,
            plans=plans,
        )
        for intensity in grid
    ]
    return FleetFailoverResult(
        n_servers=n_servers,
        n_tenants=n_tenants,
        intensities=grid,
        plans=used_plans,
        points=points,
    )


def assemble_fleet_failover(
    params: Mapping[str, Any], point_results: Sequence[FleetFailoverPoint]
) -> FleetFailoverResult:
    """Reassemble :func:`run_fleet_failover` from fanned-out points."""
    grid = [
        float(v)
        for v in (params.get("intensities") or DEFAULT_FAILOVER_INTENSITIES)
    ]
    if len(point_results) != len(grid):
        raise ValueError(
            f"expected {len(grid)} points, got {len(point_results)}"
        )
    seed = int(params.get("seed", 0))
    plans = params.get("plans")
    used_plans = {
        f"{intensity:g}": _failover_plan(
            intensity, seed + FLEET_FAULT_SEED_OFFSET, plans
        ).to_dict()
        for intensity in grid
    }
    return FleetFailoverResult(
        n_servers=int(params.get("n_servers", 4)),
        n_tenants=int(params.get("n_tenants", 4)),
        intensities=grid,
        plans=used_plans,
        points=list(point_results),
    )


def fleet_failover_to_dict(result: FleetFailoverResult) -> Dict[str, Any]:
    """JSON-ready form (the persisted failover artifact)."""
    return {
        "n_servers": result.n_servers,
        "n_tenants": result.n_tenants,
        "intensities": list(result.intensities),
        "plans": result.plans,
        "points": [p.to_dict() for p in result.points],
    }


def format_fleet_failover(result: FleetFailoverResult) -> str:
    """Render the failover sweep table."""
    out = [
        f"Fleet failover — {result.n_servers} servers × "
        f"{result.n_tenants} tenants, server-kill chaos"
    ]
    out.append(
        "intensity | kills | alive |  goodput |     p99 "
        "| inflation | recovery"
    )
    for point in result.points:
        cell = point.cell
        recovery = point.recovery
        rec = recovery["recovery_windows"]
        out.append(
            f"{point.intensity:>9.2f} | {len(cell['kills']):>5d} "
            f"| {cell['alive_at_end']:>5d} "
            f"| {cell['goodput_mrps']:>5.2f}Mrp "
            f"| {cell['latency_us']['percentiles']['p99']:>6.2f}us "
            f"| {recovery['tail_inflation']:>8.2f}x "
            f"| {'never' if rec < 0 else f'{rec} win'}"
        )
    return "\n".join(out)


# ----------------------------------------------------------------------
# fleet-availability
# ----------------------------------------------------------------------

#: Intensities the availability sweep covers (0 = fault-free baseline).
DEFAULT_AVAILABILITY_INTENSITIES = [0.0, 0.5, 1.0, 2.0]

#: Seed offsets keeping each fleet experiment's plan streams disjoint.
FLEET_AVAILABILITY_SEED_OFFSET = 9_500
FLEET_DURABILITY_SEED_OFFSET = 9_700

#: The self-healing config the availability sweep runs under: 2-way
#: replication, the heartbeat detector armed, and queue-lag shedding
#: so gray-stall backlogs degrade gracefully instead of collapsing.
DEFAULT_AVAILABILITY_HEALING: Dict[str, Any] = {
    "replication": 2,
    "detector_enabled": True,
    "shed_lag_high_us": 25.0,
    "shed_lag_low_us": 5.0,
}


def _availability_plan(
    intensity: float,
    fault_seed: int,
    plans: Optional[Mapping[str, Mapping[str, Any]]],
) -> FaultPlan:
    """The gray-failure plan for one sweep point (replay wins)."""
    key = f"{intensity:g}"
    if plans is not None and key in plans:
        return resolve_plan(plans[key])
    return plan_for_class("fleet-gray", seed=fault_seed, intensity=intensity)


def _availability_metrics(cell: Mapping[str, Any]) -> Dict[str, Any]:
    """Unavailability, degraded-mode and detection-lag decomposition."""
    healing = cell.get("self_healing") or {}
    counters = healing.get("counters") or {}
    outcomes = {
        key: int(counters.get(key, 0))
        for key in ("served", "rejected", "shed", "unavailable")
    }
    total = sum(outcomes.values())

    def fraction(key: str) -> float:
        return outcomes[key] / total if total else 0.0

    detections = healing.get("detections") or []
    lags_by_kind: Dict[str, List[int]] = {"kill": [], "stall": []}
    for event in detections:
        lag = event.get("lag_epochs")
        if lag is not None and event.get("kind") in lags_by_kind:
            lags_by_kind[event["kind"]].append(int(lag))
    all_lags = lags_by_kind["kill"] + lags_by_kind["stall"]

    def mean(values: List[int]) -> float:
        return sum(values) / len(values) if values else 0.0

    return {
        "unavailable_fraction": fraction("unavailable"),
        "shed_fraction": fraction("shed"),
        "rejected_fraction": fraction("rejected"),
        "served_fraction": fraction("served"),
        "detections": len(detections),
        "mean_detection_lag_epochs": mean(all_lags),
        "max_detection_lag_epochs": max(all_lags) if all_lags else 0,
        "kill_detection_lag_epochs": mean(lags_by_kind["kill"]),
        "stall_detection_lag_epochs": mean(lags_by_kind["stall"]),
        "reboots": int(counters.get("reboots", 0)),
        "rejoins": len(healing.get("rejoins") or []),
        "failovers": int(counters.get("failovers", 0)),
    }


@dataclass
class FleetAvailabilityPoint:
    """One intensity point of the availability sweep."""

    intensity: float
    cell: Dict[str, Any]
    availability: Dict[str, Any]
    recovery: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "intensity": self.intensity,
            "cell": self.cell,
            "availability": self.availability,
            "recovery": self.recovery,
        }


@dataclass
class FleetAvailabilityResult:
    """Unavailability/recovery curves vs kill+stall intensity."""

    n_servers: int
    n_tenants: int
    intensities: List[float]
    healing: Dict[str, Any]
    plans: Dict[str, Dict[str, Any]]
    points: List[FleetAvailabilityPoint]


def run_fleet_availability_point(
    intensity: float,
    n_servers: int = 6,
    n_tenants: int = 4,
    requests: int = 4000,
    warmup: int = 800,
    n_keys: int = 1 << 12,
    theta: float = 0.99,
    get_fraction: float = 0.95,
    offered_mrps: float = 2.0,
    vnodes: int = 64,
    epoch_requests: int = 500,
    tenant_ways: Optional[int] = None,
    ddio_ways: Optional[int] = None,
    seed: int = 0,
    healing: Optional[Mapping[str, Any]] = None,
    plans: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> FleetAvailabilityPoint:
    """One independently-runnable availability sweep point."""
    plan = _availability_plan(
        intensity, seed + FLEET_AVAILABILITY_SEED_OFFSET, plans
    )
    healing_config = dict(
        healing if healing is not None else DEFAULT_AVAILABILITY_HEALING
    )
    result = run_fleet_cell(
        n_servers=n_servers,
        n_tenants=n_tenants,
        requests=requests,
        warmup=warmup,
        n_keys=n_keys,
        theta=theta,
        get_fraction=get_fraction,
        offered_mrps=offered_mrps,
        vnodes=vnodes,
        epoch_requests=epoch_requests,
        tenant_ways=tenant_ways,
        ddio_ways=ddio_ways,
        seed=seed,
        plan=plan,
        healing=healing_config,
    )
    cell = result.to_dict()
    return FleetAvailabilityPoint(
        intensity=float(intensity),
        cell=cell,
        availability=_availability_metrics(cell),
        recovery=_recovery_metrics(cell),
    )


def run_fleet_availability(
    intensities: Optional[Sequence[float]] = None,
    n_servers: int = 6,
    n_tenants: int = 4,
    requests: int = 4000,
    warmup: int = 800,
    n_keys: int = 1 << 12,
    theta: float = 0.99,
    get_fraction: float = 0.95,
    offered_mrps: float = 2.0,
    vnodes: int = 64,
    epoch_requests: int = 500,
    tenant_ways: Optional[int] = None,
    ddio_ways: Optional[int] = None,
    engine: str = "fast",  # pinned: e2ebench/digests.json and fleet goldens
    seed: int = 0,
    healing: Optional[Mapping[str, Any]] = None,
    plans: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> FleetAvailabilityResult:
    """Sweep gray-failure intensity under the replicated fleet model."""
    require_fast_engine(engine)
    grid = [
        float(v)
        for v in (intensities if intensities is not None
                  else DEFAULT_AVAILABILITY_INTENSITIES)
    ]
    healing_config = dict(
        healing if healing is not None else DEFAULT_AVAILABILITY_HEALING
    )
    used_plans = {
        f"{intensity:g}": _availability_plan(
            intensity, seed + FLEET_AVAILABILITY_SEED_OFFSET, plans
        ).to_dict()
        for intensity in grid
    }
    points = [
        run_fleet_availability_point(
            intensity,
            n_servers=n_servers,
            n_tenants=n_tenants,
            requests=requests,
            warmup=warmup,
            n_keys=n_keys,
            theta=theta,
            get_fraction=get_fraction,
            offered_mrps=offered_mrps,
            vnodes=vnodes,
            epoch_requests=epoch_requests,
            tenant_ways=tenant_ways,
            ddio_ways=ddio_ways,
            seed=seed,
            healing=healing_config,
            plans=plans,
        )
        for intensity in grid
    ]
    return FleetAvailabilityResult(
        n_servers=n_servers,
        n_tenants=n_tenants,
        intensities=grid,
        healing=healing_config,
        plans=used_plans,
        points=points,
    )


def assemble_fleet_availability(
    params: Mapping[str, Any],
    point_results: Sequence[FleetAvailabilityPoint],
) -> FleetAvailabilityResult:
    """Reassemble :func:`run_fleet_availability` from fanned-out points."""
    grid = [
        float(v)
        for v in (
            params.get("intensities") or DEFAULT_AVAILABILITY_INTENSITIES
        )
    ]
    if len(point_results) != len(grid):
        raise ValueError(
            f"expected {len(grid)} points, got {len(point_results)}"
        )
    seed = int(params.get("seed", 0))
    plans = params.get("plans")
    healing_config = dict(
        params.get("healing") or DEFAULT_AVAILABILITY_HEALING
    )
    used_plans = {
        f"{intensity:g}": _availability_plan(
            intensity, seed + FLEET_AVAILABILITY_SEED_OFFSET, plans
        ).to_dict()
        for intensity in grid
    }
    return FleetAvailabilityResult(
        n_servers=int(params.get("n_servers", 6)),
        n_tenants=int(params.get("n_tenants", 4)),
        intensities=grid,
        healing=healing_config,
        plans=used_plans,
        points=list(point_results),
    )


def fleet_availability_to_dict(
    result: FleetAvailabilityResult,
) -> Dict[str, Any]:
    """JSON-ready form (the persisted availability artifact)."""
    return {
        "n_servers": result.n_servers,
        "n_tenants": result.n_tenants,
        "intensities": list(result.intensities),
        "healing": dict(result.healing),
        "plans": result.plans,
        "points": [p.to_dict() for p in result.points],
    }


def format_fleet_availability(result: FleetAvailabilityResult) -> str:
    """Render the availability sweep table."""
    out = [
        f"Fleet availability — {result.n_servers} servers × "
        f"{result.n_tenants} tenants, kill+stall chaos, "
        f"R={result.healing.get('replication', 1)}"
    ]
    out.append(
        "intensity | unavail |  shed | detect lag | reboots "
        "| failovers |  goodput"
    )
    for point in result.points:
        availability = point.availability
        out.append(
            f"{point.intensity:>9.2f} "
            f"| {availability['unavailable_fraction']:>6.2%} "
            f"| {availability['shed_fraction']:>4.1%} "
            f"| {availability['mean_detection_lag_epochs']:>7.1f}ep "
            f"| {availability['reboots']:>7d} "
            f"| {availability['failovers']:>9d} "
            f"| {point.cell['goodput_mrps']:>5.2f}Mrp"
        )
    return "\n".join(out)


# ----------------------------------------------------------------------
# fleet-durability
# ----------------------------------------------------------------------

#: Replication factors and kill intensities the durability matrix
#: covers by default.
DEFAULT_DURABILITY_REPLICATIONS = [1, 2, 3]
DEFAULT_DURABILITY_INTENSITIES = [0.0, 1.0, 2.0]

#: Durability points run with the detector armed but no admission —
#: replication is the variable under test.  The same plan (same seed)
#: serves every replication factor at a given intensity, so the dead
#: set is identical across R and lost-key fractions are monotone.
DEFAULT_DURABILITY_HEALING: Dict[str, Any] = {"detector_enabled": True}


def _durability_plan(
    intensity: float,
    fault_seed: int,
    plans: Optional[Mapping[str, Mapping[str, Any]]],
) -> FaultPlan:
    """The permanent-kill plan for one intensity (replay wins)."""
    key = f"{intensity:g}"
    if plans is not None and key in plans:
        return resolve_plan(plans[key])
    return plan_for_class("server-kill", seed=fault_seed, intensity=intensity)


@dataclass
class FleetDurabilityPoint:
    """One (replication, intensity) cell of the durability matrix."""

    replication: int
    intensity: float
    lost_key_fraction: float
    kills: int
    alive_at_end: int
    unavailable_fraction: float
    cell: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "replication": self.replication,
            "intensity": self.intensity,
            "lost_key_fraction": self.lost_key_fraction,
            "kills": self.kills,
            "alive_at_end": self.alive_at_end,
            "unavailable_fraction": self.unavailable_fraction,
            "cell": self.cell,
        }


@dataclass
class FleetDurabilityResult:
    """Lost-key fraction vs replication factor × kill intensity."""

    n_servers: int
    n_tenants: int
    replications: List[int]
    intensities: List[float]
    healing: Dict[str, Any]
    plans: Dict[str, Dict[str, Any]]
    points: List[FleetDurabilityPoint]

    def point(
        self, replication: int, intensity: float
    ) -> FleetDurabilityPoint:
        """The cell for one (R, intensity) pair."""
        row = self.replications.index(replication)
        col = self.intensities.index(intensity)
        return self.points[row * len(self.intensities) + col]


def run_fleet_durability_point(
    replication: int,
    intensity: float,
    n_servers: int = 5,
    n_tenants: int = 2,
    requests: int = 4000,
    warmup: int = 800,
    n_keys: int = 1 << 12,
    theta: float = 0.99,
    get_fraction: float = 0.95,
    offered_mrps: float = 2.0,
    vnodes: int = 64,
    epoch_requests: int = 500,
    tenant_ways: Optional[int] = None,
    ddio_ways: Optional[int] = None,
    seed: int = 0,
    healing: Optional[Mapping[str, Any]] = None,
    plans: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> FleetDurabilityPoint:
    """One independently-runnable durability matrix cell.

    The plan depends only on *intensity* (never on *replication*), so
    every R value faces the identical kill schedule.
    """
    plan = _durability_plan(
        intensity, seed + FLEET_DURABILITY_SEED_OFFSET, plans
    )
    base = dict(healing if healing is not None else DEFAULT_DURABILITY_HEALING)
    base["replication"] = int(replication)
    result = run_fleet_cell(
        n_servers=n_servers,
        n_tenants=n_tenants,
        requests=requests,
        warmup=warmup,
        n_keys=n_keys,
        theta=theta,
        get_fraction=get_fraction,
        offered_mrps=offered_mrps,
        vnodes=vnodes,
        epoch_requests=epoch_requests,
        tenant_ways=tenant_ways,
        ddio_ways=ddio_ways,
        seed=seed,
        plan=plan,
        healing=base,
    )
    cell = result.to_dict()
    healing_payload = cell.get("self_healing") or {}
    counters = healing_payload.get("counters") or {}
    outcomes = sum(
        int(counters.get(key, 0))
        for key in ("served", "rejected", "shed", "unavailable")
    )
    return FleetDurabilityPoint(
        replication=int(replication),
        intensity=float(intensity),
        lost_key_fraction=float(
            healing_payload.get("lost_key_fraction", 0.0)
        ),
        kills=len(cell["kills"]),
        alive_at_end=int(cell["alive_at_end"]),
        unavailable_fraction=(
            int(counters.get("unavailable", 0)) / outcomes
            if outcomes
            else 0.0
        ),
        cell=cell,
    )


def run_fleet_durability(
    replications: Optional[Sequence[int]] = None,
    intensities: Optional[Sequence[float]] = None,
    n_servers: int = 5,
    n_tenants: int = 2,
    requests: int = 4000,
    warmup: int = 800,
    n_keys: int = 1 << 12,
    theta: float = 0.99,
    get_fraction: float = 0.95,
    offered_mrps: float = 2.0,
    vnodes: int = 64,
    epoch_requests: int = 500,
    tenant_ways: Optional[int] = None,
    ddio_ways: Optional[int] = None,
    engine: str = "fast",  # pinned: e2ebench/digests.json and fleet goldens
    seed: int = 0,
    healing: Optional[Mapping[str, Any]] = None,
    plans: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> FleetDurabilityResult:
    """Sweep replication factor × permanent-kill intensity."""
    require_fast_engine(engine)
    replication_grid = [
        int(v)
        for v in (replications if replications is not None
                  else DEFAULT_DURABILITY_REPLICATIONS)
    ]
    intensity_grid = [
        float(v)
        for v in (intensities if intensities is not None
                  else DEFAULT_DURABILITY_INTENSITIES)
    ]
    base = dict(healing if healing is not None else DEFAULT_DURABILITY_HEALING)
    used_plans = {
        f"{intensity:g}": _durability_plan(
            intensity, seed + FLEET_DURABILITY_SEED_OFFSET, plans
        ).to_dict()
        for intensity in intensity_grid
    }
    points = [
        run_fleet_durability_point(
            replication,
            intensity,
            n_servers=n_servers,
            n_tenants=n_tenants,
            requests=requests,
            warmup=warmup,
            n_keys=n_keys,
            theta=theta,
            get_fraction=get_fraction,
            offered_mrps=offered_mrps,
            vnodes=vnodes,
            epoch_requests=epoch_requests,
            tenant_ways=tenant_ways,
            ddio_ways=ddio_ways,
            seed=seed,
            healing=base,
            plans=plans,
        )
        for replication in replication_grid
        for intensity in intensity_grid
    ]
    return FleetDurabilityResult(
        n_servers=n_servers,
        n_tenants=n_tenants,
        replications=replication_grid,
        intensities=intensity_grid,
        healing=base,
        plans=used_plans,
        points=points,
    )


def assemble_fleet_durability(
    params: Mapping[str, Any],
    point_results: Sequence[FleetDurabilityPoint],
) -> FleetDurabilityResult:
    """Reassemble :func:`run_fleet_durability` from fanned-out points.

    ``point_results`` must be ordered like the lab split generates
    them: replications outer, intensities inner.
    """
    replication_grid = [
        int(v)
        for v in (
            params.get("replications") or DEFAULT_DURABILITY_REPLICATIONS
        )
    ]
    intensity_grid = [
        float(v)
        for v in (
            params.get("intensities") or DEFAULT_DURABILITY_INTENSITIES
        )
    ]
    expected = len(replication_grid) * len(intensity_grid)
    if len(point_results) != expected:
        raise ValueError(
            f"expected {expected} points, got {len(point_results)}"
        )
    seed = int(params.get("seed", 0))
    plans = params.get("plans")
    used_plans = {
        f"{intensity:g}": _durability_plan(
            intensity, seed + FLEET_DURABILITY_SEED_OFFSET, plans
        ).to_dict()
        for intensity in intensity_grid
    }
    return FleetDurabilityResult(
        n_servers=int(params.get("n_servers", 5)),
        n_tenants=int(params.get("n_tenants", 2)),
        replications=replication_grid,
        intensities=intensity_grid,
        healing=dict(params.get("healing") or DEFAULT_DURABILITY_HEALING),
        plans=used_plans,
        points=list(point_results),
    )


def fleet_durability_to_dict(result: FleetDurabilityResult) -> Dict[str, Any]:
    """JSON-ready form (the persisted durability artifact)."""
    return {
        "n_servers": result.n_servers,
        "n_tenants": result.n_tenants,
        "replications": list(result.replications),
        "intensities": list(result.intensities),
        "healing": dict(result.healing),
        "plans": result.plans,
        "points": [p.to_dict() for p in result.points],
    }


def format_fleet_durability(result: FleetDurabilityResult) -> str:
    """Render the lost-key matrix (rows = R, columns = intensity)."""
    out = [
        f"Fleet durability — {result.n_servers} servers × "
        f"{result.n_tenants} tenants, permanent kills"
    ]
    header = "    R | " + " | ".join(
        f"x={intensity:g} lost (kills)" for intensity in result.intensities
    )
    out.append(header)
    for replication in result.replications:
        cells = []
        for intensity in result.intensities:
            point = result.point(replication, intensity)
            cells.append(
                f"{point.lost_key_fraction:>8.2%} ({point.kills})"
            )
        out.append(f"{replication:>5d} | " + " | ".join(cells))
    return "\n".join(out)
