"""Fault plans, clocks, counters and the injected-fault taxonomy.

Determinism contract
--------------------

Every fault decision is drawn from a per-*site* RNG stream seeded as
``(plan.seed, crc32(site))``.  Consequences:

* Two runs with the same plan make identical decisions, regardless of
  how the surrounding experiment interleaves calls to different sites
  (each site advances its own stream only).
* A plan serialises to JSON and back without loss, so a persisted
  chaos artifact replays bit-identically from its plan alone.
* A rate of zero draws **nothing** (``fires`` returns early), so a run
  with an all-zero plan — or no plan at all — is bit-identical to a
  fault-free run.  Chaos never perturbs the experiment seed stream.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, Mapping, Optional, Tuple

import numpy as np


class InjectedFault(Exception):
    """Base class of every deliberately injected failure.

    Resilience layers catch *specific* subclasses they can recover
    from; generic ``except Exception`` handlers must let these
    propagate so a chaos run can never silently swallow its own
    faults.  The lab runner treats them as fatal (no retry).
    """


class NfCrashFault(InjectedFault):
    """An injected network-function crash."""

    def __init__(self, nf_name: str) -> None:
        super().__init__(f"injected crash in NF {nf_name!r}")
        self.nf_name = nf_name


class KvsRequestFault(InjectedFault):
    """An injected server-side KVS request failure."""


#: FaultRates fields that are probabilities (scaled by intensity);
#: the remaining fields are magnitudes (cycle costs, window lengths).
PROBABILITY_FIELDS = (
    "nic_drop",
    "nic_corrupt",
    "nic_duplicate",
    "nic_reorder",
    "nic_stall",
    "mempool_alloc_fail",
    "mempool_exhaust",
    "nf_crash",
    "nf_stall",
    "kvs_fail",
    "kvs_slow",
    "server_kill",
    "server_stall",
)

#: Probability fields some NFV site reads: the NIC, PMD, mempool and
#: NF-supervisor hooks of the microsimulated DuT, and the bulk wire
#: transforms.  The others drive only KVS servers and the fleet.
NFV_PROBABILITY_FIELDS = (
    "nic_drop",
    "nic_corrupt",
    "nic_duplicate",
    "nic_reorder",
    "nic_stall",
    "mempool_alloc_fail",
    "mempool_exhaust",
    "nf_crash",
    "nf_stall",
)

#: Self-healing fleet fields (PR 10).  They serialise only when they
#: differ from their defaults so pre-existing persisted plans — and the
#: fleet/chaos golden baselines that embed them — stay byte-identical.
SELF_HEALING_FIELDS = (
    "server_stall",
    "server_stall_factor",
    "server_stall_epochs_min",
    "server_stall_epochs_max",
    "server_recovery_epochs_min",
    "server_recovery_epochs_max",
)


@dataclass(frozen=True)
class FaultRates:
    """Per-site fault probabilities and magnitudes.

    Probabilities are per-event (per packet, per allocation, per
    request); magnitudes parameterise what a firing costs.
    """

    #: Frame lost on the wire (per packet).
    nic_drop: float = 0.0
    #: Frame delivered with a bad FCS; the PMD discards it (per packet).
    nic_corrupt: float = 0.0
    #: Frame delivered twice (per packet).
    nic_duplicate: float = 0.0
    #: Frame swapped with its successor (per packet).
    nic_reorder: float = 0.0
    #: RX poll stalls for ``nic_stall_cycles`` (per poll / per packet).
    nic_stall: float = 0.0
    nic_stall_cycles: int = 12_000
    #: Single allocation fails transiently (per allocation).
    mempool_alloc_fail: float = 0.0
    #: An exhaustion window opens: the next ``mempool_exhaust_allocs``
    #: (drawn from [min, max)) allocations all fail (per allocation).
    mempool_exhaust: float = 0.0
    mempool_exhaust_allocs_min: int = 8
    mempool_exhaust_allocs_max: int = 64
    #: NF raises :class:`NfCrashFault` (per packet, per NF).
    nf_crash: float = 0.0
    #: NF stalls for ``nf_stall_cycles`` (per packet, per NF).
    nf_stall: float = 0.0
    nf_stall_cycles: int = 20_000
    #: KVS server raises :class:`KvsRequestFault` (per request).
    kvs_fail: float = 0.0
    #: KVS server spends ``kvs_slow_cycles`` extra (per request).
    kvs_slow: float = 0.0
    kvs_slow_cycles: int = 5_000
    #: Whole fleet server dies and leaves the ring (per server, per
    #: traffic epoch — site ``fleet.server_kill``).
    server_kill: float = 0.0
    #: Fleet server turns gray — alive but slow — for a drawn number of
    #: epochs (per server, per epoch — site ``fleet.server_stall``).
    server_stall: float = 0.0
    #: Service-time multiplier while a server is stalled.
    server_stall_factor: float = 8.0
    #: Stall duration in epochs, drawn from ``[min, max]`` (inclusive,
    #: site ``fleet.server_stall_epochs``).
    server_stall_epochs_min: int = 1
    server_stall_epochs_max: int = 4
    #: Epochs a killed server stays down before rebooting cold, drawn
    #: from ``[min, max]`` (site ``fleet.server_recovery``); ``max`` of
    #: 0 keeps kills permanent (the pre-self-healing behaviour).
    server_recovery_epochs_min: int = 0
    server_recovery_epochs_max: int = 0

    def __post_init__(self) -> None:
        for name in PROBABILITY_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in (
            "nic_stall_cycles",
            "nf_stall_cycles",
            "kvs_slow_cycles",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.mempool_exhaust_allocs_min < 1:
            raise ValueError("mempool_exhaust_allocs_min must be >= 1")
        if self.mempool_exhaust_allocs_max < self.mempool_exhaust_allocs_min:
            raise ValueError(
                "mempool_exhaust_allocs_max must be >= mempool_exhaust_allocs_min"
            )
        if self.server_stall_factor < 1.0:
            raise ValueError(
                f"server_stall_factor must be >= 1, got {self.server_stall_factor}"
            )
        if self.server_stall_epochs_min < 1:
            raise ValueError("server_stall_epochs_min must be >= 1")
        if self.server_stall_epochs_max < self.server_stall_epochs_min:
            raise ValueError(
                "server_stall_epochs_max must be >= server_stall_epochs_min"
            )
        if self.server_recovery_epochs_min < 0:
            raise ValueError("server_recovery_epochs_min must be >= 0")
        if self.server_recovery_epochs_max < self.server_recovery_epochs_min:
            raise ValueError(
                "server_recovery_epochs_max must be >= server_recovery_epochs_min"
            )

    @property
    def any_active(self) -> bool:
        """Whether any fault can ever fire under these rates."""
        return any(getattr(self, name) > 0.0 for name in PROBABILITY_FIELDS)

    def scaled(self, intensity: float) -> "FaultRates":
        """Scale every probability by *intensity* (capped at 1).

        Magnitudes are left untouched: intensity makes faults more
        *frequent*, not individually worse — which keeps degradation
        sweeps interpretable.
        """
        if intensity < 0:
            raise ValueError(f"intensity must be non-negative, got {intensity}")
        return replace(
            self,
            **{
                name: min(1.0, getattr(self, name) * intensity)
                for name in PROBABILITY_FIELDS
            },
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form.

        Every pre-self-healing field is emitted, defaults included;
        the :data:`SELF_HEALING_FIELDS` appear only when they differ
        from their defaults, so plans that never touch the fleet
        self-healing sites serialise byte-identically to the format
        the existing goldens embed.
        """
        data = asdict(self)
        for name in SELF_HEALING_FIELDS:
            if data[name] == _FIELD_DEFAULTS[name]:
                del data[name]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultRates":
        """Inverse of :meth:`to_dict`; rejects unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown FaultRates fields: {sorted(unknown)}")
        return cls(**data)  # type: ignore[arg-type]


#: Field-name → declared default, for the conditional serialisation of
#: the self-healing fields above.
_FIELD_DEFAULTS: Dict[str, object] = {
    f.name: f.default for f in fields(FaultRates)
}


@dataclass(frozen=True)
class FaultPlan:
    """A complete, serialisable description of one chaos run's faults."""

    seed: int
    rates: FaultRates = FaultRates()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def scaled(self, intensity: float) -> "FaultPlan":
        """Same seed, every probability scaled by *intensity*."""
        return FaultPlan(seed=self.seed, rates=self.rates.scaled(intensity))

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form."""
        return {"seed": self.seed, "rates": self.rates.to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        return cls(
            seed=int(data["seed"]),  # type: ignore[arg-type]
            rates=FaultRates.from_dict(data.get("rates", {})),  # type: ignore[arg-type]
        )


class FaultStats:
    """Structured counters: every drop/retry/restart, by name."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}

    def bump(self, name: str, n: int = 1) -> None:
        """Add *n* to counter *name* (created at zero)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def get(self, name: str) -> int:
        """Current value of counter *name* (zero when never bumped)."""
        return self.counters.get(name, 0)

    def merge(self, other: "FaultStats") -> None:
        """Fold another stats object's counters into this one."""
        for name, value in other.counters.items():
            self.bump(name, value)

    def to_dict(self) -> Dict[str, int]:
        """JSON-ready form, keys sorted for stable artifacts."""
        return dict(sorted(self.counters.items()))

    def __repr__(self) -> str:
        return f"FaultStats({self.to_dict()})"


class FaultClock(object):
    """Turns a :class:`FaultPlan` into deterministic decisions.

    One lazily-created RNG stream per *site* (a string naming the
    injection point, e.g. ``"nic.drop"``): each site's decision
    sequence depends only on the plan seed and the site name, never on
    how calls to different sites interleave.

    This is the **only** sanctioned randomness source for fault hooks
    (enforced by simcheck rule SIM401).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def rates(self) -> FaultRates:
        """The plan's rates (shorthand for hooks)."""
        return self.plan.rates

    def stream(self, site: str) -> np.random.Generator:
        """The dedicated RNG stream for *site*."""
        stream = self._streams.get(site)
        if stream is None:
            stream = np.random.default_rng(
                [self.plan.seed, zlib.crc32(site.encode("utf-8"))]
            )
            self._streams[site] = stream
        return stream

    def fires(self, site: str, rate: float) -> bool:
        """One Bernoulli decision at *site*.

        A non-positive rate returns ``False`` without drawing, so
        zero-rate plans leave every stream untouched (bit-identity
        with fault-free runs).
        """
        if rate <= 0.0:
            return False
        return bool(self.stream(site).random() < rate)

    def integers(self, site: str, low: int, high: int) -> int:
        """One integer draw in ``[low, high)`` at *site*."""
        return int(self.stream(site).integers(low, high))

    def uniforms(self, site: str, count: int) -> np.ndarray:
        """*count* uniform draws at *site* (bulk transforms)."""
        return self.stream(site).random(count)

    def uniform_grid(
        self, site: str, shape: Tuple[int, ...]
    ) -> np.ndarray:
        """A uniform grid at *site* (e.g. epochs × servers).

        The draw count depends only on *shape*, never on which cells
        end up firing — the nested-sampling construction the fleet
        outage schedule relies on for monotone lost-key curves.
        """
        return self.stream(site).random(shape)

    def integer_grid(
        self, site: str, low: int, high: int, shape: Tuple[int, ...]
    ) -> np.ndarray:
        """An integer grid in ``[low, high)`` at *site* (magnitudes)."""
        return self.stream(site).integers(low, high, size=shape)

    def count(self, name: str, n: int = 1) -> None:
        """Record *n* occurrences of *name* in the structured counters."""
        self.stats.bump(name, n)

    def __repr__(self) -> str:
        return f"FaultClock(seed={self.plan.seed}, sites={sorted(self._streams)})"


def _mixed_rates() -> FaultRates:
    return FaultRates(
        nic_drop=0.005,
        nic_corrupt=0.003,
        nic_duplicate=0.003,
        nic_reorder=0.01,
        nic_stall=0.002,
        mempool_alloc_fail=0.002,
        nf_crash=0.0002,
        nf_stall=0.001,
    )


#: Named fault classes at reference (intensity = 1) rates; scale with
#: :meth:`FaultRates.scaled` for degradation sweeps.
FAULT_CLASSES: Dict[str, FaultRates] = {
    "none": FaultRates(),
    "nic-drop": FaultRates(nic_drop=0.02),
    "nic-corrupt": FaultRates(nic_corrupt=0.02),
    "nic-dup": FaultRates(nic_duplicate=0.02),
    "nic-reorder": FaultRates(nic_reorder=0.05),
    "nic-stall": FaultRates(nic_stall=0.01),
    "mempool": FaultRates(mempool_alloc_fail=0.01, mempool_exhaust=0.002),
    "nf-crash": FaultRates(nf_crash=0.0005),
    "nf-stall": FaultRates(nf_stall=0.002),
    "kvs": FaultRates(kvs_fail=0.01, kvs_slow=0.05),
    "server-kill": FaultRates(server_kill=0.02),
    "server-stall": FaultRates(server_stall=0.04),
    "fleet-gray": FaultRates(
        server_kill=0.01,
        server_stall=0.03,
        server_recovery_epochs_min=2,
        server_recovery_epochs_max=5,
    ),
    "mixed": _mixed_rates(),
}


def plan_for_class(
    fault_class: str, seed: int, intensity: float = 1.0
) -> FaultPlan:
    """Build the plan for a named fault class at *intensity*."""
    try:
        rates = FAULT_CLASSES[fault_class]
    except KeyError:
        raise ValueError(
            f"unknown fault class {fault_class!r}; "
            f"choose from {sorted(FAULT_CLASSES)}"
        ) from None
    return FaultPlan(seed=seed, rates=rates).scaled(intensity)


def resolve_plan(
    plan: Optional[object],
) -> Optional[FaultPlan]:
    """Coerce ``None`` / dict / :class:`FaultPlan` into a plan.

    Experiment runners accept plans as plain dicts (the persisted
    artifact form) so a replay needs no import gymnastics.
    """
    if plan is None:
        return None
    if isinstance(plan, FaultPlan):
        return plan
    if isinstance(plan, Mapping):
        return FaultPlan.from_dict(plan)
    raise TypeError(f"cannot interpret {type(plan).__name__} as a FaultPlan")
