"""Fleet: cluster-scale multi-tenant serving simulation.

The paper proves CacheDirector on one machine; this package asks the
datacenter question (ROADMAP item 1, IOCA/A4 framing): N simulated
servers — mixed Haswell/Skylake, each a full instance of the
single-machine cache-simulated KVS building blocks — behind a
consistent-hash front end, serving Zipf traffic from simulated
clients, with per-tenant CAT way budgets and a per-server DDIO budget,
and whole-server chaos kills triggering deterministic failover
re-sharding.

Layout:

* :mod:`repro.fleet.ring` — consistent-hash ring (virtual nodes,
  minimal remapping, vectorised routing).
* :mod:`repro.fleet.traffic` — Zipf fleet traffic generation.
* :mod:`repro.fleet.server` — one simulated server: machine spec,
  per-tenant CAT/slice budgets, per-tenant KVS instances.
* :mod:`repro.fleet.cluster` — the load balancer and the one serving
  loop (:func:`run_fleet_cell`): routing, queueing, chaos server
  kills, failover.
* :mod:`repro.fleet.healing` — the replicated membership model's
  mechanisms: replication config, failure detector, admission.

The lab entry points live in :mod:`repro.experiments.fleet`
(``fleet-scale``, ``fleet-failover``, ``fleet-availability`` and
``fleet-durability``), exposed via ``repro fleet``.
"""

from repro.fleet.cluster import (
    FleetClusterConfig,
    FleetCluster,
    FleetRunResult,
    run_fleet_cell,
)
from repro.fleet.ring import ConsistentHashRing, key_positions, mix64
from repro.fleet.server import FleetServer, spec_for_server
from repro.fleet.traffic import FleetTrafficGenerator, TrafficBatch

__all__ = [
    "ConsistentHashRing",
    "FleetCluster",
    "FleetClusterConfig",
    "FleetRunResult",
    "FleetServer",
    "FleetTrafficGenerator",
    "TrafficBatch",
    "key_positions",
    "mix64",
    "run_fleet_cell",
    "spec_for_server",
]
