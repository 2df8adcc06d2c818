"""One fleet server: a full single-machine simulation with tenant budgets.

Each server instantiates the existing single-machine building blocks —
a :class:`~repro.cachesim.hierarchy.CacheHierarchy` built from its
:class:`~repro.cachesim.machines.MachineSpec`, a
:class:`~repro.core.slice_aware.SliceAwareContext`, and one
slice-aware :class:`~repro.kvs.store.KvsStore` +
:class:`~repro.kvs.server.KvsServer` pair **per tenant** — and adds
the multi-tenant enforcement the paper's §7 sketches:

* **CAT way budget per tenant**: each tenant gets its own CLOS with a
  contiguous way mask sized ``llc_ways // n_tenants`` (the
  ``multitenant`` experiment's "cat" policy, now per server).
* **Slice budget per tenant**: each tenant's values are slice-aware on
  its serving core's preferred slice, so tenants also partition
  spatially (the "slice" policy).
* **DDIO budget per server**: the NIC's DDIO ways can be clamped below
  the spec default, bounding how much of every tenant's LLC budget
  I/O traffic can churn.

Fleets mix the paper's two testbed machines: even server ids are
Haswell (E5-2667 v3), odd ids Skylake (Gold 6134).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cachesim.cat import CatController
from repro.cachesim.machines import (
    HASWELL_E5_2667V3,
    SKYLAKE_GOLD_6134,
    MachineSpec,
    build_hierarchy,
)
from repro.core.slice_aware import SliceAwareContext
from repro.kvs.server import KvsServer, serve_requests
from repro.kvs.store import KvsStore

#: The fleet's machine mix, cycled by server id.
MACHINE_MIX = (HASWELL_E5_2667V3, SKYLAKE_GOLD_6134)


def spec_for_server(server_id: int) -> MachineSpec:
    """The machine spec a server id maps to (alternating mix)."""
    if server_id < 0:
        raise ValueError(f"server_id must be non-negative, got {server_id}")
    return MACHINE_MIX[server_id % len(MACHINE_MIX)]


class FleetServer:
    """One simulated server hosting every tenant's KVS shard.

    Args:
        server_id: fleet-wide id (also selects the machine spec).
        n_tenants: tenants sharing this server.
        n_keys: per-tenant key-space size.
        seed: seed for the hierarchy/layout (derived per server by the
            cluster so servers are decorrelated).
        tenant_ways: CAT ways per tenant (default: even split).
        ddio_ways: per-server DDIO way budget (default: spec's).
        spec: override the machine spec (default: the fleet mix).

    Every tenant serves from its own core (``tenant % n_cores``) with
    its own CLOS, so CAT masks — and therefore eviction pressure — are
    enforced by the underlying cache simulation, not bookkeeping.
    """

    def __init__(
        self,
        server_id: int,
        n_tenants: int,
        n_keys: int,
        seed: int = 0,
        tenant_ways: Optional[int] = None,
        ddio_ways: Optional[int] = None,
        spec: Optional[MachineSpec] = None,
    ) -> None:
        if n_tenants <= 0:
            raise ValueError(f"n_tenants must be positive, got {n_tenants}")
        self.server_id = server_id
        self.name = f"server-{server_id}"
        self.spec = spec if spec is not None else spec_for_server(server_id)
        self.n_tenants = n_tenants
        if tenant_ways is None:
            tenant_ways = max(1, self.spec.llc_ways // n_tenants)
        if not 1 <= tenant_ways <= self.spec.llc_ways:
            raise ValueError(
                f"tenant_ways must be in [1, {self.spec.llc_ways}], "
                f"got {tenant_ways}"
            )
        self.tenant_ways = tenant_ways
        self.tenant_cores: List[int] = [
            t % self.spec.n_cores for t in range(n_tenants)
        ]
        self._n_keys = n_keys
        self._seed = seed
        self._ddio_ways = ddio_ways
        self._provision()
        #: Simulated time (cycles) this server is busy until.
        self.busy_until_cycles = 0.0
        #: Chaos state: a killed server leaves the ring permanently —
        #: unless the plan arms recovery, in which case it reboots
        #: cold after ``down_until_epoch``.
        self.alive = True
        self.killed_at_request: Optional[int] = None
        self.served = 0
        #: Self-healing state (epoch-indexed; -1 = inactive).
        self.stalled_until_epoch = -1
        self.down_until_epoch = -1
        self.reboots = 0
        self.stall_events = 0
        self.rebooted_at_request: Optional[int] = None

    def _provision(self) -> None:
        """Build the machine: hierarchy, CAT budgets, per-tenant KVS.

        Runs at construction and again on :meth:`reboot` — a recovered
        server gets brand-new hierarchy/store state, so its caches are
        genuinely cold and the post-rejoin re-warm is real simulated
        work, not bookkeeping.
        """
        cat = CatController(self.spec.llc_ways, self.spec.n_cores)
        # Contiguous per-tenant way masks; when budgets exceed the
        # cache (many tenants), masks wrap and overlap deterministically
        # — oversubscription is then visible as real contention.
        span = self.spec.llc_ways - self.tenant_ways + 1
        for tenant in range(self.n_tenants):
            low = (tenant * self.tenant_ways) % span
            cat.define_clos(
                tenant + 1, ((1 << self.tenant_ways) - 1) << low
            )
            cat.assign_core(self.tenant_cores[tenant], tenant + 1)
        hierarchy = build_hierarchy(
            self.spec, ddio_ways=self._ddio_ways, cat=cat, seed=self._seed
        )
        self.context = SliceAwareContext(
            self.spec, hierarchy=hierarchy, seed=self._seed
        )
        self._tenants: List[KvsServer] = []
        for tenant in range(self.n_tenants):
            store = KvsStore(
                self.context,
                core=self.tenant_cores[tenant],
                n_keys=self._n_keys,
                slice_aware=True,
            )
            self._tenants.append(
                KvsServer(
                    self.context,
                    store,
                    core=self.tenant_cores[tenant],
                )
            )

    def serve(self, tenant: int, key: int, is_get: bool) -> int:
        """Serve one request for *tenant*; returns core cycles spent."""
        cycles = self._tenants[tenant].serve_one(key, is_get)
        self.served += 1
        return cycles

    def serve_batch(
        self,
        tenants: Sequence[int],
        keys: Sequence[int],
        is_get: Sequence[bool],
    ) -> np.ndarray:
        """Serve many requests (arrival order) in one charging pass.

        The shared :func:`~repro.kvs.server.serve_requests` record/replay
        over every tenant's server: per-request cycles, cache state and
        every per-tenant DDIO counter match calling :meth:`serve` per
        request bit for bit.
        """
        cycles = serve_requests(self._tenants, keys, is_get, tenants)
        self.served += len(cycles)
        return cycles

    def kill(self, request_index: int) -> None:
        """Mark this server dead (chaos server-kill fault)."""
        self.alive = False
        self.killed_at_request = request_index
        self.stalled_until_epoch = -1

    def stall(self, until_epoch: int) -> None:
        """Turn gray: alive but slow until *until_epoch* (exclusive)."""
        self.stalled_until_epoch = until_epoch
        self.stall_events += 1

    def stalled_at(self, epoch: int) -> bool:
        """Whether this server is stalled during *epoch*."""
        return self.alive and epoch < self.stalled_until_epoch

    def reboot(self, request_index: int) -> None:
        """Recover from a kill: rejoin service with cold caches.

        Re-provisions the hierarchy and every tenant's KVS from
        scratch (same seed, so the layout is deterministic) — the
        first requests after recovery pay genuine cold-cache misses
        until the working set re-warms.
        """
        self._provision()
        self.alive = True
        self.killed_at_request = None
        self.busy_until_cycles = 0.0
        self.stalled_until_epoch = -1
        self.down_until_epoch = -1
        self.reboots += 1
        self.rebooted_at_request = request_index

    def latency_us(self, cycles: float) -> float:
        """Convert cycles on this server's clock to microseconds."""
        return cycles / (self.spec.freq_ghz * 1e3)

    def stats(self) -> Dict[str, object]:
        """JSON-ready per-server summary.

        Self-healing keys (``reboots``, ``stalls``) appear only when
        non-zero so runs that never arm those faults keep the exact
        payload the pre-self-healing goldens embed.
        """
        data: Dict[str, object] = {
            "name": self.name,
            "machine": self.spec.name,
            "alive": self.alive,
            "served": self.served,
            "tenant_ways": self.tenant_ways,
            "killed_at_request": self.killed_at_request,
        }
        if self.reboots:
            data["reboots"] = self.reboots
        if self.stall_events:
            data["stalls"] = self.stall_events
        return data

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"FleetServer({self.name}, {self.spec.name}, {state})"
