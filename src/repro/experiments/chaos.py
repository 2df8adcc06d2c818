"""Chaos experiments: tail latency per fault class, degradation knee.

Two experiments exercise the fault-injection layer end to end:

* ``chaos_tail`` — the Fig. 13/14-style DPDK vs CacheDirector
  comparison, once per fault class.  The ``none`` class runs with an
  all-zero plan and therefore reproduces the fault-free golden numbers
  exactly; the others show how injected wire loss, corruption, mempool
  pressure and NF crashes move the latency CDF and goodput, and how
  the resilience layer (backpressure, FCS discard, supervision)
  accounts for every lost packet.

* ``degradation_knee`` — a Fig. 15-style sweep, but over *fault
  intensity* at fixed offered load instead of over load: the same
  plan's probabilities scale from 0 (fault-free) upward.  Thanks to
  the fault streams' nested sampling (see ``repro.faults.streams``)
  the delivered goodput is monotone non-increasing in intensity.

Every run's fault plans are part of the result payload, so a persisted
artifact replays bit-identically from its own JSON (``plans``
parameter / ``repro chaos replay``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.nfv_common import (
    NfvExperimentResult,
    compare_cache_director,
    merge_arms,
    nfv_result_to_dict,
    run_nfv_experiment,
)
from repro.faults.plan import (
    NFV_PROBABILITY_FIELDS,
    PROBABILITY_FIELDS,
    FaultPlan,
    plan_for_class,
    resolve_plan,
)
from repro.net.chain import router_napt_lb_chain, simple_forwarding_chain

#: Fault classes the tail experiment covers by default.
DEFAULT_TAIL_CLASSES = [
    "none",
    "nic-drop",
    "nic-corrupt",
    "mempool",
    "nf-crash",
    "mixed",
]

#: Intensities the degradation sweep covers by default (0 = fault-free).
DEFAULT_INTENSITIES = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]

#: Mempool watermarks (low, high) the chaos DuT runs with: the NIC
#: sheds load once 7/8 of the default 4096-mbuf pool is in flight.
DEFAULT_WATERMARKS = (3072, 3584)

#: Offset separating fault-plan seeds from the experiment seed stream.
FAULT_SEED_OFFSET = 7_000


def _chain_and_steering(chain: str):
    """Map a chain name to its (factory, steering) pair."""
    if chain == "forwarding":
        return simple_forwarding_chain, "rss"
    if chain == "stateful":
        return lambda: router_napt_lb_chain(hw_offload=True), "flow-director"
    raise ValueError(
        f"unknown chain {chain!r}; choose 'forwarding' or 'stateful'"
    )


def _nfv_plan(
    fault_class: str,
    fault_seed: int,
    intensity: float,
    plans: Optional[Mapping[str, Mapping[str, Any]]],
    key: Optional[str] = None,
) -> FaultPlan:
    """The plan for one task: a replay override (``plans[key]``, *key*
    defaulting to the class) wins over generation.

    A plan that injects faults only at sites no NFV site reads (today
    the ``kvs`` class; the fleet classes too) raises ``ValueError``: it
    would run the fault-free NFV pipeline under its name and measure
    nothing.  An all-zero plan is fault-free on purpose and passes.
    """
    lookup = key if key is not None else fault_class
    if plans is not None and lookup in plans:
        plan = resolve_plan(plans[lookup])
    else:
        plan = plan_for_class(fault_class, seed=fault_seed, intensity=intensity)
    active = [f for f in PROBABILITY_FIELDS if getattr(plan.rates, f) > 0.0]
    if active and not set(active) & set(NFV_PROBABILITY_FIELDS):
        raise ValueError(
            f"fault class {fault_class!r} sets only {', '.join(active)}, "
            "which no NFV site reads; the NFV chain would measure nothing"
        )
    return plan


# ----------------------------------------------------------------------
# chaos_tail
# ----------------------------------------------------------------------

@dataclass
class ChaosTailResult:
    """Per-fault-class DPDK vs CacheDirector outcomes plus the plans."""

    chain: str
    classes: List[str]
    intensity: float
    plans: Dict[str, Dict[str, Any]]
    results: Dict[str, Dict[str, NfvExperimentResult]]


def run_chaos_tail_arm(
    fault_class: str,
    cache_director: bool,
    chain: str = "forwarding",
    offered_gbps: float = 100.0,
    n_bulk_packets: int = 150_000,
    micro_packets: int = 2500,
    runs: int = 2,
    seed: int = 0,
    intensity: float = 1.0,
    watermarks: Optional[Tuple[int, int]] = DEFAULT_WATERMARKS,
    plans: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> NfvExperimentResult:
    """One (fault class, arm) cell, independently runnable.

    The fault seed is derived from the experiment seed, so the whole
    matrix is reproducible from one number; passing ``plans`` (the
    persisted ``{class: plan_dict}`` map from an earlier artifact)
    replays those plans verbatim instead.  A class whose rates no NFV
    site reads raises ``ValueError``.
    """
    chain_factory, steering = _chain_and_steering(chain)
    plan = _nfv_plan(fault_class, seed + FAULT_SEED_OFFSET, intensity, plans)
    return run_nfv_experiment(
        chain_factory,
        cache_director,
        steering,
        offered_gbps=offered_gbps,
        n_bulk_packets=n_bulk_packets,
        micro_packets=micro_packets,
        runs=runs,
        seed=seed,
        fault_plan=plan,
        watermarks=watermarks,
    )


def run_chaos_tail(
    chain: str = "forwarding",
    classes: Optional[Sequence[str]] = None,
    offered_gbps: float = 100.0,
    n_bulk_packets: int = 150_000,
    micro_packets: int = 2500,
    runs: int = 2,
    seed: int = 0,
    intensity: float = 1.0,
    watermarks: Optional[Tuple[int, int]] = DEFAULT_WATERMARKS,
    plans: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> ChaosTailResult:
    """Tail-latency comparison across fault classes.

    Every class's plan is checked before anything runs (see
    :func:`run_chaos_tail_arm`); each class's two arms then share one
    offered traffic (:func:`~repro.experiments.nfv_common.compare_cache_director`).
    """
    class_list = list(classes) if classes is not None else list(DEFAULT_TAIL_CLASSES)
    chain_factory, steering = _chain_and_steering(chain)
    used_plans = {
        fault_class: _nfv_plan(
            fault_class, seed + FAULT_SEED_OFFSET, intensity, plans
        ).to_dict()
        for fault_class in class_list
    }
    results = {
        fault_class: compare_cache_director(
            chain_factory,
            steering,
            offered_gbps=offered_gbps,
            n_bulk_packets=n_bulk_packets,
            micro_packets=micro_packets,
            runs=runs,
            seed=seed,
            fault_plan=used_plans[fault_class],
            watermarks=watermarks,
        )
        for fault_class in class_list
    }
    return ChaosTailResult(
        chain=chain,
        classes=class_list,
        intensity=intensity,
        plans=used_plans,
        results=results,
    )


def assemble_chaos_tail(
    params: Mapping[str, Any], arm_results: Sequence[NfvExperimentResult]
) -> ChaosTailResult:
    """Reassemble :func:`run_chaos_tail` from its fanned-out cells.

    ``arm_results`` must be ordered like the lab split generates them:
    for each class in order, the DPDK arm then the CacheDirector arm.
    """
    class_list = list(params.get("classes") or DEFAULT_TAIL_CLASSES)
    if len(arm_results) != 2 * len(class_list):
        raise ValueError(
            f"expected {2 * len(class_list)} arm results, got {len(arm_results)}"
        )
    seed = int(params.get("seed", 0))
    intensity = float(params.get("intensity", 1.0))
    plans = params.get("plans")
    used_plans = {
        cls: _nfv_plan(
            cls, seed + FAULT_SEED_OFFSET, intensity, plans
        ).to_dict()
        for cls in class_list
    }
    results = {
        cls: merge_arms(list(arm_results[2 * i : 2 * i + 2]))
        for i, cls in enumerate(class_list)
    }
    return ChaosTailResult(
        chain=str(params.get("chain", "forwarding")),
        classes=class_list,
        intensity=intensity,
        plans=used_plans,
        results=results,
    )


def chaos_tail_to_dict(result: ChaosTailResult) -> Dict[str, Any]:
    """JSON-ready form (the persisted chaos artifact)."""
    payload: Dict[str, Any] = {
        "chain": result.chain,
        "classes": list(result.classes),
        "intensity": result.intensity,
        "plans": result.plans,
        "results": {},
    }
    for cls, arms in result.results.items():
        base = arms["dpdk"]
        cd = arms["cachedirector"]
        payload["results"][cls] = {
            "dpdk": nfv_result_to_dict(base),
            "cachedirector": nfv_result_to_dict(cd),
            "improvement": cd.summary.improvement_over(base.summary),
        }
    return payload


def format_chaos_tail(result: ChaosTailResult) -> str:
    """Render the per-class tail/goodput table."""
    out = [
        f"Chaos tail — {result.chain} chain, intensity {result.intensity:g} "
        "(loopback excluded)"
    ]
    out.append(
        "class       |  DPDK p99 |   +CD p99 | DPDK good | drops DPDK"
    )
    for cls in result.classes:
        arms = result.results[cls]
        base, cd = arms["dpdk"], arms["cachedirector"]
        goodput = (
            base.goodput_gbps
            if base.fault_counters is not None
            else base.achieved_gbps
        )
        out.append(
            f"{cls:<11} | {base.summary[99]:>7.1f}us | {cd.summary[99]:>7.1f}us "
            f"| {goodput:>6.2f}Gbp | {base.drop_fraction:>9.2%}"
        )
    injected = {
        cls: arms["dpdk"].fault_counters
        for cls, arms in result.results.items()
        if arms["dpdk"].fault_counters
    }
    for cls, counters in injected.items():
        interesting = {
            k: v
            for k, v in counters.items()
            if "injected" in k or "restart" in k or "crash" in k
        }
        if interesting:
            out.append(f"  {cls}: {interesting}")
    return "\n".join(out)


# ----------------------------------------------------------------------
# degradation_knee
# ----------------------------------------------------------------------

@dataclass
class DegradationPoint:
    """One (arm, intensity) sweep point."""

    intensity: float
    goodput_gbps: float
    achieved_gbps: float
    offered_gbps: float
    p99_us: float
    drop_fraction: float
    fault_counters: Optional[Dict[str, int]] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        payload: Dict[str, Any] = {
            "intensity": self.intensity,
            "goodput_gbps": self.goodput_gbps,
            "achieved_gbps": self.achieved_gbps,
            "offered_gbps": self.offered_gbps,
            "p99_us": self.p99_us,
            "drop_fraction": self.drop_fraction,
        }
        if self.fault_counters is not None:
            payload["fault_counters"] = self.fault_counters
        return payload


@dataclass
class DegradationKneeResult:
    """Goodput/tail-vs-intensity curves for both arms."""

    fault_class: str
    chain: str
    offered_gbps: float
    intensities: List[float]
    plans: Dict[str, Dict[str, Any]]
    dpdk: List[DegradationPoint] = field(default_factory=list)
    cachedirector: List[DegradationPoint] = field(default_factory=list)


def run_degradation_point(
    cache_director: bool,
    intensity: float,
    fault_class: str = "mixed",
    chain: str = "stateful",
    offered_gbps: float = 40.0,
    n_bulk_packets: int = 60_000,
    micro_packets: int = 1500,
    runs: int = 1,
    seed: int = 0,
    watermarks: Optional[Tuple[int, int]] = DEFAULT_WATERMARKS,
    plans: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> DegradationPoint:
    """One independently-runnable sweep point.

    A replay ``plans`` map is keyed by the canonical intensity string
    (``f"{intensity:g}"``).
    """
    chain_factory, steering = _chain_and_steering(chain)
    plan = _nfv_plan(
        fault_class,
        seed + FAULT_SEED_OFFSET,
        intensity,
        plans,
        key=f"{intensity:g}",
    )
    result = run_nfv_experiment(
        chain_factory,
        cache_director,
        steering,
        offered_gbps=offered_gbps,
        n_bulk_packets=n_bulk_packets,
        micro_packets=micro_packets,
        runs=runs,
        seed=seed,
        fault_plan=plan,
        watermarks=watermarks,
    )
    goodput = (
        result.goodput_gbps
        if result.fault_counters is not None
        else result.achieved_gbps
    )
    return DegradationPoint(
        intensity=intensity,
        goodput_gbps=goodput,
        achieved_gbps=result.achieved_gbps,
        offered_gbps=result.offered_gbps,
        p99_us=result.summary[99],
        drop_fraction=result.drop_fraction,
        fault_counters=result.fault_counters,
    )


def run_degradation_knee(
    fault_class: str = "mixed",
    chain: str = "stateful",
    offered_gbps: float = 40.0,
    intensities: Optional[Sequence[float]] = None,
    n_bulk_packets: int = 60_000,
    micro_packets: int = 1500,
    runs: int = 1,
    seed: int = 0,
    watermarks: Optional[Tuple[int, int]] = DEFAULT_WATERMARKS,
    plans: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> DegradationKneeResult:
    """Sweep fault intensity at fixed load; goodput knees downward.

    Every intensity's plan is checked before any point runs (see
    :func:`_nfv_plan`).
    """
    grid = (
        [float(v) for v in intensities]
        if intensities is not None
        else list(DEFAULT_INTENSITIES)
    )
    used_plans = {
        f"{intensity:g}": _nfv_plan(
            fault_class,
            seed + FAULT_SEED_OFFSET,
            intensity,
            plans,
            key=f"{intensity:g}",
        ).to_dict()
        for intensity in grid
    }
    points: Dict[bool, List[DegradationPoint]] = {False: [], True: []}
    for intensity in grid:
        for cache_director in (False, True):
            points[cache_director].append(
                run_degradation_point(
                    cache_director,
                    intensity,
                    fault_class=fault_class,
                    chain=chain,
                    offered_gbps=offered_gbps,
                    n_bulk_packets=n_bulk_packets,
                    micro_packets=micro_packets,
                    runs=runs,
                    seed=seed,
                    watermarks=watermarks,
                    plans=plans,
                )
            )
    return DegradationKneeResult(
        fault_class=fault_class,
        chain=chain,
        offered_gbps=offered_gbps,
        intensities=grid,
        plans=used_plans,
        dpdk=points[False],
        cachedirector=points[True],
    )


def assemble_degradation_knee(
    params: Mapping[str, Any], point_results: Sequence[DegradationPoint]
) -> DegradationKneeResult:
    """Reassemble :func:`run_degradation_knee` from fanned-out points.

    ``point_results`` must be ordered like the lab split generates
    them: for each intensity in order, DPDK then CacheDirector.
    """
    grid = [
        float(v)
        for v in (params.get("intensities") or DEFAULT_INTENSITIES)
    ]
    if len(point_results) != 2 * len(grid):
        raise ValueError(
            f"expected {2 * len(grid)} points, got {len(point_results)}"
        )
    fault_class = str(params.get("fault_class", "mixed"))
    seed = int(params.get("seed", 0))
    plans = params.get("plans")
    used_plans = {
        f"{intensity:g}": _nfv_plan(
            fault_class,
            seed + FAULT_SEED_OFFSET,
            intensity,
            plans,
            key=f"{intensity:g}",
        ).to_dict()
        for intensity in grid
    }
    return DegradationKneeResult(
        fault_class=fault_class,
        chain=str(params.get("chain", "stateful")),
        offered_gbps=float(params.get("offered_gbps", 40.0)),
        intensities=grid,
        plans=used_plans,
        dpdk=[point_results[2 * i] for i in range(len(grid))],
        cachedirector=[point_results[2 * i + 1] for i in range(len(grid))],
    )


def degradation_knee_to_dict(result: DegradationKneeResult) -> Dict[str, Any]:
    """JSON-ready form (the persisted knee artifact)."""
    return {
        "fault_class": result.fault_class,
        "chain": result.chain,
        "offered_gbps": result.offered_gbps,
        "intensities": list(result.intensities),
        "plans": result.plans,
        "dpdk": [p.to_dict() for p in result.dpdk],
        "cachedirector": [p.to_dict() for p in result.cachedirector],
    }


def format_degradation_knee(result: DegradationKneeResult) -> str:
    """Render the goodput/tail degradation table."""
    out = [
        f"Degradation knee — {result.fault_class} faults on the "
        f"{result.chain} chain @ {result.offered_gbps:g} Gbps offered"
    ]
    out.append(
        "intensity | DPDK goodput |  +CD goodput |  DPDK p99 |   +CD p99"
    )
    for i, intensity in enumerate(result.intensities):
        base, cd = result.dpdk[i], result.cachedirector[i]
        out.append(
            f"{intensity:>9.2f} | {base.goodput_gbps:>9.2f}Gbp "
            f"| {cd.goodput_gbps:>9.2f}Gbp "
            f"| {base.p99_us:>7.1f}us | {cd.p99_us:>7.1f}us"
        )
    return "\n".join(out)
