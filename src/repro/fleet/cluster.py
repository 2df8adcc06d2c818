"""The fleet front end and its one serving loop.

:class:`FleetCluster` owns N :class:`~repro.fleet.server.FleetServer`
instances behind a static :class:`~repro.fleet.ring.ConsistentHashRing`
holding every server.  :func:`run_fleet_cell` drives a Zipf traffic
stream through it, epoch by epoch, in three phases:

* **Phase A (decisions)** — admission, routing, the replica walk,
  failover and hint recording.  Every input (arrival times,
  aliveness, beliefs, shed flags) is frozen at the epoch boundary, so
  decisions never depend on cache timing.
* **Phase B (charging)** — each server charges its work items in
  arrival order through one
  :meth:`~repro.fleet.server.FleetServer.serve_batch` call, the
  op-stream replay of :func:`~repro.kvs.server.serve_requests` —
  bit-identical per request to one
  :meth:`~repro.fleet.server.FleetServer.serve` call per item.
* **Phase C (queueing)** — a per-server FIFO fold over the charged
  cycles, applying the gray-stall service multiplier and failover
  penalties; the bearing item's finish defines request latency.

Membership follows one of two models, chosen by the ``healing``
argument (:func:`~repro.fleet.healing.resolve_healing`):

* **Re-shard** (no or trivial healing config) — kills come from
  :func:`~repro.faults.streams.draw_guarded_kill_schedule`: permanent,
  drawn per alive server at every epoch boundary, never the last alive
  server.  The replica walk is a key's full successor list and dead
  servers are skipped at no cost, so a dead owner's keys land on their
  first live ring successor — whose cache is cold for them, which is
  the tail inflation and recovery ``fleet-failover`` measures.  SETs
  write only the serving server.
* **Replicated** (any non-trivial config) — R-way replica sets, a
  pre-drawn :class:`~repro.faults.streams.OutageSchedule` with stalls
  and cold reboots, the heartbeat detector and admission control of
  :mod:`repro.fleet.healing`; SETs fan out to every replica.  The
  payload gains a ``self_healing`` block.

Determinism contract: server layouts derive per-server seeds from the
cell seed, every outage is drawn upfront from the plan's per-site
streams (zero rates draw nothing), and routing is hash-based — so a
cell result is a pure function of ``(params, seed, plan, healing)``, a
persisted plan replays bit-exactly, and a zero-rate plan is
bit-identical to no plan at all.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.faults.plan import FaultClock, resolve_plan
from repro.faults.streams import (
    OutageSchedule,
    draw_guarded_kill_schedule,
    draw_outage_schedule,
)
from repro.fleet.healing import (
    HeartbeatDetector,
    SelfHealingConfig,
    TokenBucketAdmission,
    lost_key_fraction,
    resolve_healing,
)
from repro.fleet.ring import ConsistentHashRing, key_positions
from repro.fleet.server import FleetServer
from repro.fleet.traffic import (
    REFERENCE_FREQ_GHZ,
    FleetTrafficGenerator,
    TrafficBatch,
)
from repro.lab.spec import derive_seed
from repro.stats.percentiles import LatencySummary, summarize_latencies

#: The tail percentiles the fleet experiments report.
FLEET_PERCENTILES = (50.0, 99.0, 99.9)


@dataclass(frozen=True)
class FleetClusterConfig:
    """Shape and budgets of one simulated fleet."""

    n_servers: int
    n_tenants: int
    n_keys: int = 1 << 12
    vnodes: int = 64
    tenant_ways: Optional[int] = None
    ddio_ways: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_servers <= 0:
            raise ValueError(
                f"n_servers must be positive, got {self.n_servers}"
            )
        if self.n_tenants <= 0:
            raise ValueError(
                f"n_tenants must be positive, got {self.n_tenants}"
            )
        if self.n_keys <= 1:
            raise ValueError(f"n_keys must be > 1, got {self.n_keys}")


class FleetCluster:
    """N simulated servers behind a consistent-hash load balancer."""

    def __init__(self, config: FleetClusterConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        self.servers: List[FleetServer] = [
            FleetServer(
                server_id,
                n_tenants=config.n_tenants,
                n_keys=config.n_keys,
                seed=derive_seed(seed, "fleet-server", server_id),
                tenant_ways=config.tenant_ways,
                ddio_ways=config.ddio_ways,
            )
            for server_id in range(config.n_servers)
        ]
        self.ring = ConsistentHashRing(vnodes=config.vnodes)
        for server in self.servers:
            self.ring.add_node(server.name)

    @property
    def alive_servers(self) -> List[FleetServer]:
        """Alive servers, in id order."""
        return [server for server in self.servers if server.alive]

    def route_epoch(self, batch: TrafficBatch) -> np.ndarray:
        """Each request's slot on the static ring (Phase A routing).

        Ring node order is server id order, so the owners
        :meth:`~repro.fleet.ring.ConsistentHashRing.successors_at`
        returns for a slot are server ids.
        """
        return self.ring.slot_positions(
            key_positions(batch.tenants, batch.keys)
        )


@dataclass
class FleetKillEvent:
    """One chaos server kill, for the persisted payload."""

    epoch: int
    request_index: int
    server: str


@dataclass
class FleetRunResult:
    """Outcome of one fleet cell (one shape × one plan)."""

    n_servers: int
    n_tenants: int
    requests: int
    measured: int
    goodput_mrps: float
    offered_mrps: float
    duration_ms: float
    summary: LatencySummary
    tenant_summaries: List[LatencySummary]
    window_p99_us: List[float]
    server_stats: List[Dict[str, Any]]
    kills: List[FleetKillEvent] = field(default_factory=list)
    alive_at_end: int = 0
    fault_counters: Optional[Dict[str, int]] = None
    #: Self-healing telemetry (detector/replication/admission); only
    #: emitted under the replicated membership model, so re-shard
    #: payloads — and the goldens that embed them — carry no such key.
    self_healing: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the persisted cell payload)."""
        payload: Dict[str, Any] = {
            "n_servers": self.n_servers,
            "n_tenants": self.n_tenants,
            "requests": self.requests,
            "measured": self.measured,
            "goodput_mrps": self.goodput_mrps,
            "offered_mrps": self.offered_mrps,
            "duration_ms": self.duration_ms,
            "latency_us": self.summary.to_dict(),
            "tenants": [s.to_dict() for s in self.tenant_summaries],
            "window_p99_us": list(self.window_p99_us),
            "servers": list(self.server_stats),
            "kills": [asdict(k) for k in self.kills],
            "alive_at_end": self.alive_at_end,
        }
        if self.fault_counters is not None:
            payload["fault_counters"] = self.fault_counters
        if self.self_healing is not None:
            payload["self_healing"] = self.self_healing
        return payload


def _summary_of(values: np.ndarray) -> LatencySummary:
    """Fleet latency summary; all zeros when nothing was served."""
    if values.size:
        return summarize_latencies(values, percentiles=FLEET_PERCENTILES)
    return LatencySummary(
        percentiles={q: 0.0 for q in FLEET_PERCENTILES},
        mean=0.0,
        count=0,
    )


def run_fleet_cell(
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
    plan: Optional[object] = None,
    healing: Optional[object] = None,
) -> FleetRunResult:
    """Simulate one fleet shape under one (optional) fault plan.

    The first *warmup* requests are served but excluded from the
    latency/goodput statistics (cold caches).  ``plan`` — a
    :class:`~repro.faults.plan.FaultPlan` or its persisted dict form —
    arms the fleet outage sites; ``None`` or all-zero rates leave every
    code path and RNG stream untouched.  Phase B replays each
    server's work items through :meth:`FleetServer.serve_batch`;
    results equal one ``serve`` per item because Phase A never depends
    on cache timing.

    ``healing`` — a :class:`~repro.fleet.healing.SelfHealingConfig` or
    its dict form — selects the replicated membership model; ``None``
    or a trivial config selects the re-shard model (see the module
    docstring).  The re-shard model has permanent kills and no stalls,
    so a plan that can stall (``server_stall``) or reboot
    (``server_kill`` with ``server_recovery_epochs_max``) a server is
    rejected with :class:`ValueError` rather than silently dropped.
    """
    config = resolve_healing(healing)
    if requests <= 0:
        raise ValueError(f"requests must be positive, got {requests}")
    if not 0 <= warmup < requests:
        raise ValueError(
            f"warmup must be in [0, requests), got {warmup}/{requests}"
        )
    if epoch_requests <= 0:
        raise ValueError(
            f"epoch_requests must be positive, got {epoch_requests}"
        )
    resolved = resolve_plan(plan)
    if config is None and resolved is not None:
        rates = resolved.rates
        dropped = []
        if rates.server_stall > 0.0:
            dropped.append(f"server_stall={rates.server_stall:g}")
        if rates.server_kill > 0.0 and rates.server_recovery_epochs_max > 0:
            dropped.append(
                f"server_recovery_epochs_max={rates.server_recovery_epochs_max}"
            )
        if dropped:
            raise ValueError(
                f"plan sets {', '.join(dropped)}, but without self-healing "
                "kills are permanent and servers never stall; pass a "
                "non-trivial healing= config (e.g. "
                "healing={'detector_enabled': True}) to run them"
            )
    clock = (
        FaultClock(resolved)
        if resolved is not None and resolved.rates.any_active
        else None
    )
    n_epochs = (requests + epoch_requests - 1) // epoch_requests
    schedule: Optional[OutageSchedule] = None
    if clock is not None and (
        clock.rates.server_kill > 0.0 or clock.rates.server_stall > 0.0
    ):
        draw = (
            draw_outage_schedule
            if config is not None
            else draw_guarded_kill_schedule
        )
        schedule = draw(clock, n_epochs, n_servers)
    # The re-shard model walks a key's whole successor list, skipping
    # dead servers for free, and writes SETs to the serving server only.
    settings = config if config is not None else SelfHealingConfig()
    walk_depth = settings.replication if config is not None else n_servers

    cluster = FleetCluster(
        FleetClusterConfig(
            n_servers=n_servers,
            n_tenants=n_tenants,
            n_keys=n_keys,
            vnodes=vnodes,
            tenant_ways=tenant_ways,
            ddio_ways=ddio_ways,
        ),
        seed=seed,
    )
    servers = cluster.servers
    generator = FleetTrafficGenerator(
        n_tenants=n_tenants,
        n_keys=n_keys,
        theta=theta,
        get_fraction=get_fraction,
        offered_mrps=offered_mrps,
        seed=seed + 17,
    )
    batch = generator.generate(requests)
    tenants = batch.tenants.tolist()
    keys = batch.keys.tolist()
    is_get = batch.is_get.tolist()
    arrivals = batch.arrivals_cycles.tolist()

    replica_cache: Dict[int, List[int]] = {}

    def replicas_of(slot: int) -> List[int]:
        cached = replica_cache.get(slot)
        if cached is None:
            cached = cluster.ring.successors_at(slot, walk_depth)
            replica_cache[slot] = cached
        return cached

    detector = (
        HeartbeatDetector(n_servers, settings)
        if settings.detector_enabled
        else None
    )
    believed_down: Set[int] = set()
    admission = (
        TokenBucketAdmission(
            n_tenants,
            settings.admit_tenant_mrps,
            settings.admit_bucket_depth,
        )
        if settings.admit_tenant_mrps is not None
        else None
    )
    shedding: Set[int] = set()

    latencies_us = np.full(requests, np.nan)
    finishes = np.full(requests, np.nan)
    kills: List[FleetKillEvent] = []
    stall_log: List[Dict[str, Any]] = []
    reboot_log: List[Dict[str, Any]] = []
    detections: List[Dict[str, Any]] = []
    rejoins: List[Dict[str, Any]] = []
    hints: List[List[Tuple[int, int]]] = [[] for _ in range(n_servers)]
    pending_event: Dict[int, Tuple[int, str]] = {}
    counters = {
        "served": 0,
        "rejected": 0,
        "shed": 0,
        "unavailable": 0,
        "failovers": 0,
        "hints_recorded": 0,
        "hints_replayed": 0,
        "reboots": 0,
        "stall_events": 0,
    }
    per_epoch: Dict[str, List[int]] = {
        key: [0] * n_epochs
        for key in ("served", "rejected", "shed", "unavailable")
    }
    believed_down_series: List[int] = [0] * n_epochs

    def replay_hints(server: FleetServer, boundary_cycles: float) -> None:
        """Re-warm a rebooted server from its hint queue (in order)."""
        queued = hints[server.server_id]
        if not queued:
            return
        busy = boundary_cycles
        services = server.serve_batch(
            np.array([t for t, _ in queued], dtype=np.int64),
            np.array([k for _, k in queued], dtype=np.int64),
            np.zeros(len(queued), dtype=bool),
        )
        for service in services:
            busy += float(service)
        server.busy_until_cycles = busy
        counters["hints_replayed"] += len(queued)
        hints[server.server_id] = []

    for epoch_start in range(0, requests, epoch_requests):
        epoch = epoch_start // epoch_requests
        boundary_cycles = arrivals[epoch_start]
        if epoch > 0:
            # 1. Recoveries due this boundary: reboot cold, replay hints.
            for server in servers:
                if (
                    not server.alive
                    and server.down_until_epoch > 0
                    and epoch >= server.down_until_epoch
                ):
                    server.reboot(epoch_start)
                    replay_hints(server, boundary_cycles)
                    counters["reboots"] += 1
                    reboot_log.append(
                        {"server": server.name, "epoch": epoch}
                    )
            if schedule is not None:
                # 2. Scheduled kills.  The schedule itself decides
                # whether the last alive server may die (see
                # repro.fleet.healing and draw_guarded_kill_schedule).
                for sid, server in enumerate(servers):
                    if schedule.kill_fires[epoch, sid] and server.alive:
                        server.kill(epoch_start)
                        delay = int(schedule.recovery_epochs[epoch, sid])
                        server.down_until_epoch = (
                            epoch + delay if delay > 0 else -1
                        )
                        assert clock is not None
                        clock.count("fleet.injected_server_kills")
                        pending_event[sid] = (epoch, "kill")
                        kills.append(
                            FleetKillEvent(
                                epoch=epoch,
                                request_index=epoch_start,
                                server=server.name,
                            )
                        )
                # 3. Scheduled stalls (guarded: never gray the last
                # alive server — stalls do not feed the durability
                # curves, so the guard cannot break monotonicity).
                for sid, server in enumerate(servers):
                    if not (
                        schedule.stall_fires[epoch, sid] and server.alive
                    ):
                        continue
                    if len(cluster.alive_servers) <= 1:
                        continue
                    until = epoch + int(schedule.stall_epochs[epoch, sid])
                    if until > server.stalled_until_epoch:
                        server.stall(until)
                        assert clock is not None
                        clock.count("fleet.injected_server_stalls")
                        counters["stall_events"] += 1
                        if sid not in pending_event:
                            pending_event[sid] = (epoch, "stall")
                        stall_log.append(
                            {
                                "server": server.name,
                                "epoch": epoch,
                                "until_epoch": until,
                            }
                        )
            # 4. Failure detection (or perfect knowledge).
            if detector is not None:
                beating = [
                    server.alive and not server.stalled_at(epoch)
                    for server in servers
                ]
                suspected, recovered = detector.observe_epoch(epoch, beating)
                believed_down = detector.believed_down
                for sid in suspected:
                    event = pending_event.pop(sid, None)
                    detections.append(
                        {
                            "server": servers[sid].name,
                            "kind": event[1] if event else "unknown",
                            "event_epoch": event[0] if event else None,
                            "detected_epoch": epoch,
                            "lag_epochs": (
                                epoch - event[0] if event else None
                            ),
                        }
                    )
                for sid in recovered:
                    pending_event.pop(sid, None)
                    rejoins.append(
                        {"server": servers[sid].name, "rejoin_epoch": epoch}
                    )
            else:
                believed_down = {
                    server.server_id
                    for server in servers
                    if not server.alive
                }
            # Healthy beats clear stale pending events (stall ended
            # before the detector ever noticed).
            for sid in list(pending_event):
                server = servers[sid]
                if (
                    server.alive
                    and not server.stalled_at(epoch)
                    and sid not in believed_down
                ):
                    del pending_event[sid]
            # 5. Queue-lag watermark shedding with hysteresis.
            if settings.shed_lag_high_us is not None:
                low = settings.shed_lag_low_us
                assert low is not None
                for server in servers:
                    lag_cycles = max(
                        0.0, server.busy_until_cycles - boundary_cycles
                    )
                    lag_us = server.latency_us(lag_cycles)
                    if lag_us > settings.shed_lag_high_us:
                        shedding.add(server.server_id)
                    elif lag_us < low:
                        shedding.discard(server.server_id)
        believed_down_series[epoch] = len(believed_down)

        # ---- Phase A: decisions (timing-independent) ----------------
        epoch_stop = min(epoch_start + epoch_requests, requests)
        slots = cluster.route_epoch(batch.slice(epoch_start, epoch_stop))
        # Per server: request rows in arrival order, and whether each
        # row is the request's bearing item (the rest are SET fan-out).
        work: Dict[int, Tuple[List[int], List[bool]]] = {}
        penalties = [0.0] * (epoch_stop - epoch_start)
        for index, slot in enumerate(slots.tolist(), epoch_start):
            if admission is not None and not admission.admit(
                tenants[index], arrivals[index]
            ):
                counters["rejected"] += 1
                per_epoch["rejected"][epoch] += 1
                continue
            replicas = replicas_of(slot)
            # Walk the replica set: skip believed-down replicas for
            # free, pay a timeout on believed-up-but-dead ones, and
            # bear the request on the first believed-up live server.
            bearing_sid = -1
            penalty = 0.0
            for sid in replicas:
                if sid in believed_down:
                    continue
                if not servers[sid].alive:
                    penalty += settings.failover_timeout_cycles
                    counters["failovers"] += 1
                    continue
                bearing_sid = sid
                break
            if bearing_sid < 0:
                counters["unavailable"] += 1
                per_epoch["unavailable"][epoch] += 1
                continue
            if bearing_sid in shedding:
                counters["shed"] += 1
                per_epoch["shed"][epoch] += 1
                continue
            counters["served"] += 1
            per_epoch["served"][epoch] += 1
            penalties[index - epoch_start] = penalty
            rows, bearing = work.setdefault(bearing_sid, ([], []))
            rows.append(index)
            bearing.append(True)
            if config is not None and not is_get[index]:
                # SET fan-out: every other replica either serves the
                # write (live) or gets a hint for rejoin replay.
                for sid in replicas:
                    if sid == bearing_sid:
                        continue
                    if sid in believed_down or not servers[sid].alive:
                        hints[sid].append((tenants[index], keys[index]))
                        counters["hints_recorded"] += 1
                    else:
                        rows, bearing = work.setdefault(sid, ([], []))
                        rows.append(index)
                        bearing.append(False)

        # ---- Phase B: charging ---- Phase C: queueing fold ----------
        for sid in sorted(work):
            server = servers[sid]
            rows, bearing = work[sid]
            services = server.serve_batch(
                batch.tenants[rows], batch.keys[rows], batch.is_get[rows]
            )
            factor = (
                clock.rates.server_stall_factor
                if clock is not None and server.stalled_at(epoch)
                else 1.0
            )
            busy = server.busy_until_cycles
            for row, bears, service in zip(rows, bearing, services):
                arrival = arrivals[row]
                effective = (
                    arrival + penalties[row - epoch_start] if bears else arrival
                )
                start = effective if effective > busy else busy
                busy = start + float(service) * factor
                if bears:
                    finishes[row] = busy
                    latencies_us[row] = server.latency_us(busy - arrival)
            server.busy_until_cycles = busy

    # ---- Statistics (served requests only) --------------------------
    measured_slice = slice(warmup, requests)
    measured_lat = latencies_us[measured_slice]
    served_mask = ~np.isnan(measured_lat)
    measured = int(served_mask.sum())
    if measured:
        duration_cycles = float(
            np.nanmax(finishes[measured_slice]) - arrivals[warmup]
        )
    else:
        duration_cycles = 0.0
    duration_s = duration_cycles / (REFERENCE_FREQ_GHZ * 1e9)
    goodput_mrps = measured / duration_s / 1e6 if duration_s > 0 else 0.0

    measured_tenants = batch.tenants[measured_slice]
    tenant_summaries = [
        _summary_of(measured_lat[(measured_tenants == tenant) & served_mask])
        for tenant in range(n_tenants)
    ]

    window_p99: List[float] = []
    for window_start in range(warmup, requests, epoch_requests):
        window = latencies_us[
            window_start : min(window_start + epoch_requests, requests)
        ]
        window = window[~np.isnan(window)]
        # Served-only windows are ragged, so this stays a per-window
        # loop (the vectorised reshape needs rectangular windows).
        window_p99.append(
            float(np.percentile(window, 99.0)) if window.size else 0.0
        )

    self_healing: Optional[Dict[str, Any]] = None
    if config is not None:
        self_healing = {
            "config": config.to_dict(),
            "counters": dict(counters),
            "per_epoch": {k: list(v) for k, v in per_epoch.items()},
            "believed_down_per_epoch": list(believed_down_series),
            "detections": detections,
            "rejoins": rejoins,
            "reboots": reboot_log,
            "stalls": stall_log,
            "believed_down_at_end": sorted(
                servers[sid].name for sid in believed_down
            ),
            "lost_key_fraction": lost_key_fraction(
                cluster.ring,
                [server.alive for server in servers],
                n_tenants,
                n_keys,
                config.replication,
            ),
        }

    return FleetRunResult(
        n_servers=n_servers,
        n_tenants=n_tenants,
        requests=requests,
        measured=measured,
        goodput_mrps=goodput_mrps,
        offered_mrps=offered_mrps,
        duration_ms=duration_s * 1e3,
        summary=_summary_of(measured_lat[served_mask]),
        tenant_summaries=tenant_summaries,
        window_p99_us=window_p99,
        server_stats=[server.stats() for server in servers],
        kills=kills,
        alive_at_end=len(cluster.alive_servers),
        fault_counters=(
            clock.stats.to_dict() if clock is not None else None
        ),
        self_healing=self_healing,
    )
