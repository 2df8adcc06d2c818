"""Self-healing mechanisms for the fleet's replicated membership model.

:func:`~repro.fleet.cluster.run_fleet_cell` has one serving loop and
two membership models.  :func:`resolve_healing` picks between them: a
trivial :class:`SelfHealingConfig` (or none) selects the *re-shard*
model — permanent guarded kills, a dead owner's keys moving to their
first live ring successor — and anything else selects the *replicated*
model, which uses the mechanisms defined here:

* **R-way replication** — every ``(tenant, key)`` pair maps to the
  ``replication`` first *distinct* servers clockwise from its ring
  slot (:meth:`~repro.fleet.ring.ConsistentHashRing.successors_at`).
  Replica sets are computed on the **full static ring** so they nest
  across R (``R`` replicas are a prefix of ``R+1``'s) and stay fixed
  as membership beliefs change; failover walks the set in order, and
  SETs fan out to every replica (a dead or suspected replica gets a
  hint, replayed when it reboots).
* **Transient failures + recovery** — whole-server kills and gray
  stalls come from a pre-drawn :class:`~repro.faults.streams.OutageSchedule`
  (nested sampling: fire sets are intensity-supersets).  A kill with a
  recovery delay reboots the server cold after the delay — the
  hierarchy and every tenant's KVS are re-provisioned, so the rejoin
  re-warm is genuine simulated work.  Unlike the re-shard model there
  is **no last-server kill guard**: a guard would break the monotone
  lost-key curves (whether a server is "last alive" depends on which
  other kills fired, so guarded fire sets stop nesting), and total
  outage is a well-defined measured state — requests simply count as
  unavailable.  :func:`lost_key_fraction` measures what is lost.
* **Heartbeat failure detection** — :class:`HeartbeatDetector`, a
  deterministic phi-accrual-style detector: every alive, non-stalled
  server beats once per epoch;
  ``phi = elapsed / (mean_gap * ln 10)`` over a sliding window of
  observed gaps, and a server whose phi exceeds the threshold is
  *suspected* (clients stop trying it, so gray servers shed traffic).
  Stalled servers beat late, which inflates the window mean and slows
  future detection — the classic gray-failure cost, made measurable.
  A suspected server rejoins after ``rejoin_heartbeats`` consecutive
  on-time beats.  With the detector off, clients have perfect
  knowledge of which servers are dead.
* **Admission control** — :class:`TokenBucketAdmission`, a per-tenant
  token bucket over arrival time, plus a per-server queue-lag
  watermark with hysteresis, both evaluated only at epoch boundaries
  or from arrival times so decisions never depend on cache timing
  (which is what keeps the record/replay charging bit-identical to
  one request at a time).

Determinism contract: all randomness is the outage schedule, drawn
upfront through the plan's :class:`~repro.faults.plan.FaultClock`
per-site streams; everything else is a pure function of the arrival
stream and epoch-boundary state, so a persisted plan replays
bit-exactly.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.fleet.ring import ConsistentHashRing, key_positions
from repro.fleet.traffic import REFERENCE_FREQ_GHZ

_LN10 = math.log(10.0)


@dataclass(frozen=True)
class SelfHealingConfig:
    """Knobs for the replicated membership model of the fleet loop.

    The defaults are all-off: ``replication=1``, detector disabled, no
    admission control.  Such a *trivial* config makes
    :func:`resolve_healing` return ``None``, which selects the
    re-shard model in ``run_fleet_cell`` — so passing a default config
    is byte-identical to passing no config at all.
    """

    #: Distinct servers per key (R).  1 = no replication.
    replication: int = 1
    #: Arm the heartbeat failure detector.  Off = perfect knowledge
    #: (clients skip dead servers instantly, no detection lag).
    detector_enabled: bool = False
    #: Suspicion threshold on phi; ~0.8 suspects after ~2 missed beats.
    phi_threshold: float = 0.8
    #: Sliding window of observed heartbeat gaps (epochs).
    heartbeat_window: int = 8
    #: Consecutive on-time beats before a suspect rejoins.
    rejoin_heartbeats: int = 2
    #: Client-side cost (cycles) of timing out on a believed-up but
    #: dead replica before trying the next one.
    failover_timeout_cycles: float = 30_000.0
    #: Per-tenant token-bucket refill rate; ``None`` disables the
    #: bucket.
    admit_tenant_mrps: Optional[float] = None
    #: Token-bucket depth (burst allowance), in requests.
    admit_bucket_depth: float = 64.0
    #: Queue-lag watermark (µs) above which a server sheds new
    #: requests; ``None`` disables shedding.  Must be set together
    #: with :attr:`shed_lag_low_us`.
    shed_lag_high_us: Optional[float] = None
    #: Queue-lag watermark (µs) below which a shedding server resumes
    #: (hysteresis; evaluated at epoch boundaries only).
    shed_lag_low_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ValueError(
                f"replication must be >= 1, got {self.replication}"
            )
        if self.phi_threshold <= 0:
            raise ValueError(
                f"phi_threshold must be positive, got {self.phi_threshold}"
            )
        if self.heartbeat_window < 1:
            raise ValueError(
                f"heartbeat_window must be >= 1, got {self.heartbeat_window}"
            )
        if self.rejoin_heartbeats < 1:
            raise ValueError(
                f"rejoin_heartbeats must be >= 1, got {self.rejoin_heartbeats}"
            )
        if self.failover_timeout_cycles < 0:
            raise ValueError("failover_timeout_cycles must be >= 0")
        if self.admit_tenant_mrps is not None and self.admit_tenant_mrps <= 0:
            raise ValueError("admit_tenant_mrps must be positive when set")
        if self.admit_bucket_depth <= 0:
            raise ValueError("admit_bucket_depth must be positive")
        if (self.shed_lag_high_us is None) != (self.shed_lag_low_us is None):
            raise ValueError(
                "shed_lag_high_us and shed_lag_low_us must be set together"
            )
        if self.shed_lag_high_us is not None:
            low = self.shed_lag_low_us
            assert low is not None
            if not 0 <= low <= self.shed_lag_high_us:
                raise ValueError(
                    "need 0 <= shed_lag_low_us <= shed_lag_high_us, got "
                    f"{low}/{self.shed_lag_high_us}"
                )

    @property
    def is_trivial(self) -> bool:
        """Whether this config selects the re-shard membership model."""
        return (
            self.replication == 1
            and not self.detector_enabled
            and self.admit_tenant_mrps is None
            and self.shed_lag_high_us is None
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (persisted with experiment artifacts)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SelfHealingConfig":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown self-healing config keys: {sorted(unknown)}"
            )
        return cls(**data)


def resolve_healing(healing: Optional[object]) -> Optional[SelfHealingConfig]:
    """Normalise a healing argument; trivial configs become ``None``.

    Accepts ``None``, a :class:`SelfHealingConfig`, or its dict form.
    ``None`` selects the re-shard membership model of
    :func:`~repro.fleet.cluster.run_fleet_cell` (permanent guarded
    kills, no replication, no ``self_healing`` payload block); a
    config selects the replicated model.  Both models run the same
    serving loop.
    """
    if healing is None:
        return None
    if isinstance(healing, SelfHealingConfig):
        config = healing
    elif isinstance(healing, dict):
        config = SelfHealingConfig.from_dict(healing)
    else:
        raise TypeError(
            f"healing must be SelfHealingConfig, dict or None, "
            f"got {type(healing).__name__}"
        )
    return None if config.is_trivial else config


class HeartbeatDetector:
    """Deterministic phi-accrual-style failure detector.

    One heartbeat per alive, non-stalled server per epoch.  For a
    server that has not beaten for ``elapsed`` epochs with a windowed
    mean observed gap ``g``, the suspicion level is
    ``phi = elapsed / (g * ln 10)`` — the shape of phi-accrual with an
    exponential inter-arrival model, with the window mean standing in
    for the fitted scale so the detector is a pure function of the
    beat history (no clocks, no RNG).
    """

    def __init__(self, n_servers: int, config: SelfHealingConfig) -> None:
        self.config = config
        self.n_servers = n_servers
        self.believed_down: Set[int] = set()
        self._last_beat = [0] * n_servers
        self._streak = [0] * n_servers
        self._gaps: List[Deque[float]] = [
            deque(maxlen=config.heartbeat_window) for _ in range(n_servers)
        ]

    def mean_gap(self, server_id: int) -> float:
        """Windowed mean observed heartbeat gap (1.0 before any beat)."""
        window = self._gaps[server_id]
        if not window:
            return 1.0
        return sum(window) / len(window)

    def phi(self, server_id: int, epoch: int) -> float:
        """Current suspicion level for one server."""
        elapsed = epoch - self._last_beat[server_id]
        return elapsed / (self.mean_gap(server_id) * _LN10)

    def observe_epoch(
        self, epoch: int, beating: Sequence[bool]
    ) -> Tuple[List[int], List[int]]:
        """Process one epoch boundary's heartbeats.

        ``beating[s]`` says whether server *s* delivered an on-schedule
        beat this epoch (alive and not stalled).  Returns the ids
        newly suspected and newly rejoined, in id order.
        """
        suspected: List[int] = []
        rejoined: List[int] = []
        for sid in range(self.n_servers):
            if beating[sid]:
                gap = float(epoch - self._last_beat[sid])
                if gap > 0:
                    # Late beats (gap > 1) enter the window too: a gray
                    # server's slow beats inflate the mean and slow
                    # *future* detection — the gray-failure cost.
                    self._gaps[sid].append(gap)
                    self._last_beat[sid] = epoch
                    self._streak[sid] = (
                        self._streak[sid] + 1 if gap <= 1.0 else 1
                    )
                if (
                    sid in self.believed_down
                    and self._streak[sid] >= self.config.rejoin_heartbeats
                ):
                    self.believed_down.discard(sid)
                    rejoined.append(sid)
                continue
            self._streak[sid] = 0
            if sid in self.believed_down:
                continue
            if self.phi(sid, epoch) > self.config.phi_threshold:
                self.believed_down.add(sid)
                suspected.append(sid)
        return suspected, rejoined


class TokenBucketAdmission:
    """Per-tenant token bucket over *arrival* time (timing-free).

    Refill is proportional to inter-arrival cycles at the reference
    clock, so admit/reject decisions are a pure function of the
    traffic stream — identical however the requests are charged.
    """

    def __init__(
        self,
        n_tenants: int,
        rate_mrps: float,
        depth: float,
        freq_ghz: float = REFERENCE_FREQ_GHZ,
    ) -> None:
        if rate_mrps <= 0:
            raise ValueError(f"rate_mrps must be positive, got {rate_mrps}")
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        #: Tokens per reference cycle (mrps = 1e6 req/s; GHz = 1e9 c/s).
        self.rate_per_cycle = rate_mrps / (freq_ghz * 1e3)
        self.depth = depth
        self._tokens = [depth] * n_tenants
        self._last_arrival = [0.0] * n_tenants

    def admit(self, tenant: int, arrival_cycles: float) -> bool:
        """Consume one token for *tenant* if available."""
        gained = (arrival_cycles - self._last_arrival[tenant]) * (
            self.rate_per_cycle
        )
        self._last_arrival[tenant] = arrival_cycles
        tokens = min(self.depth, self._tokens[tenant] + gained)
        if tokens >= 1.0:
            self._tokens[tenant] = tokens - 1.0
            return True
        self._tokens[tenant] = tokens
        return False


def lost_key_fraction(
    ring: ConsistentHashRing,
    alive: Sequence[bool],
    n_tenants: int,
    n_keys: int,
    replication: int,
) -> float:
    """Fraction of ``(tenant, key)`` pairs with every replica dead.

    Exact (full key-space enumeration), vectorised per unique ring
    slot.  ``alive`` is indexed like :attr:`ring.nodes`.  Because
    replica sets nest in R and dead sets nest in kill intensity (for
    permanent kills under nested sampling), the result is monotone
    non-increasing in ``replication`` and non-decreasing in intensity.
    """
    if len(alive) != len(ring):
        raise ValueError(
            f"alive has {len(alive)} entries for a {len(ring)}-node ring"
        )
    tenants = np.repeat(np.arange(n_tenants, dtype=np.uint64), n_keys)
    keys = np.tile(np.arange(n_keys, dtype=np.uint64), n_tenants)
    slots = ring.slot_positions(key_positions(tenants, keys))
    unique, counts = np.unique(slots, return_counts=True)
    lost = 0
    for slot, count in zip(unique, counts):
        owners = ring.successors_at(int(slot), replication)
        if not any(alive[owner] for owner in owners):
            lost += int(count)
    return lost / float(tenants.size)
