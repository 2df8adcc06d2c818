"""Shared machinery for the NFV latency experiments (Figs. 12–15, Table 3).

One experiment = one (chain, steering, load, CacheDirector?) point:

1. microsimulate a packet sample through the full DuT to get the
   service-time distribution,
2. steer a bulk arrival stream to RX queues,
3. run the finite-buffer queueing model,
4. summarise with the paper's percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dpdk.steering import FlowDirectorSteering, RssSteering
from repro.faults.plan import FaultClock, resolve_plan
from repro.faults.streams import apply_bulk_faults
from repro.net.chain import (
    DutConfig,
    DutEnvironment,
    ServiceChain,
    router_napt_lb_chain,
    simple_forwarding_chain,
)
from repro.net.harness import (
    LatencyRunResult,
    NicModel,
    bootstrap_service_ns,
    sample_service_distribution,
    simulate_queueing_latency,
)
from repro.net.trace import CampusTraceGenerator
from repro.stats.percentiles import LatencySummary, median_of_runs, summarize_latencies

ChainFactory = Callable[[], ServiceChain]


def make_steering(kind: str, n_queues: int):
    """Instantiate a steering policy by name (``rss``/``flow-director``)."""
    if kind == "rss":
        return RssSteering(n_queues)
    if kind == "flow-director":
        return FlowDirectorSteering(n_queues)
    raise ValueError(f"unknown steering {kind!r}")


@dataclass
class NfvExperimentResult:
    """Latency + throughput of one configuration (median over runs)."""

    summary: LatencySummary
    achieved_gbps: float
    offered_gbps: float
    drop_fraction: float
    mean_service_ns: float
    latencies_us: np.ndarray  # one representative run (for CDFs)
    run_summaries: List[LatencySummary] = None  # per-run (for quartile bars)
    #: Useful-bit throughput (excludes duplicates/corrupted frames);
    #: equals :attr:`achieved_gbps` when no faults were injected.
    goodput_gbps: float = 0.0
    #: Structured fault/recovery counters, or ``None`` for a fault-free
    #: run (keeping fault-free artifacts byte-identical to pre-chaos
    #: golden numbers).
    fault_counters: Optional[Dict[str, int]] = None


def measure_service_times(
    chain_factory: ChainFactory,
    cache_director: bool,
    steering_kind: str,
    generator: CampusTraceGenerator,
    micro_packets: int = 4000,
    n_cores: int = 8,
    seed: int = 0,
    faults: Optional[FaultClock] = None,
    watermarks: Optional[Tuple[int, int]] = None,
    dataplane: str = "scalar",
) -> np.ndarray:
    """Cache-simulate a packet sample; returns service times (ns).

    With a fault clock, packets lost to injected faults (wire drops,
    FCS discards, allocation failures, NF crashes) are excluded from
    the sample and accounted in the clock's structured counters.
    ``dataplane="batched"`` charges the sample through the recorded
    op-stream replay instead of per-packet calls (identical results).
    """
    env = DutEnvironment(
        DutConfig(
            cache_director=cache_director,
            n_cores=n_cores,
            seed=seed,
            watermarks=watermarks,
            dataplane=dataplane,
        ),
        chain_factory,
        faults=faults,
    )
    steering = make_steering(steering_kind, n_cores)
    packets = generator.generate(micro_packets, rate_pps=4e6, seed_offset=seed)
    queues = [steering.queue_for(p.flow_key) for p in packets]
    return sample_service_distribution(env, packets, queues)


def run_nfv_experiment(
    chain_factory: ChainFactory,
    cache_director: bool,
    steering_kind: str,
    offered_gbps: float,
    n_bulk_packets: int = 300_000,
    micro_packets: int = 4000,
    n_cores: int = 8,
    runs: int = 3,
    ring_capacity: int = 1024,
    nic: Optional[NicModel] = None,
    seed: int = 0,
    fault_plan: Optional[object] = None,
    watermarks: Optional[Tuple[int, int]] = None,
    dataplane: str = "scalar",
) -> NfvExperimentResult:
    """Full pipeline for one configuration; medians over *runs*.

    ``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan` or its
    persisted dict form) turns on chaos injection: the microsimulation
    runs the full resilient DuT (backpressure, FCS discards, NF
    supervision) and the bulk stream passes through the vectorised
    wire-fault transforms.  A ``None`` plan — or one with all-zero
    rates — creates no clock and leaves every code path and RNG stream
    bit-identical to a fault-free run.
    """
    plan = resolve_plan(fault_plan)
    clock = (
        FaultClock(plan) if plan is not None and plan.rates.any_active else None
    )
    generator = CampusTraceGenerator(seed=seed + 1)
    service_samples = measure_service_times(
        chain_factory,
        cache_director,
        steering_kind,
        generator,
        micro_packets=micro_packets,
        n_cores=n_cores,
        seed=seed,
        faults=clock,
        watermarks=watermarks,
        dataplane=dataplane,
    )
    if service_samples.size == 0:
        # Every microsim packet was lost to injected faults (only
        # possible at extreme rates).  Fall back to a zero-cycle sample
        # so the queueing stage still runs — effective service then
        # degenerates to the NIC floor — and record that it happened.
        assert clock is not None
        clock.count("micro.no_service_samples")
        service_samples = np.zeros(1)
    flow_keys = [tuple(f) for f in generator.flows]
    summaries: List[LatencySummary] = []
    achieved: List[float] = []
    offered: List[float] = []
    drops: List[float] = []
    goodputs: List[float] = []
    last_run: Optional[LatencyRunResult] = None
    for run_index in range(runs):
        rng = np.random.default_rng(seed + 100 + run_index)
        sizes, flows, arrivals = generator.generate_arrays(
            n_bulk_packets, rate_gbps=offered_gbps, seed_offset=run_index
        )
        steering = make_steering(steering_kind, n_cores)
        queue_of_flow = np.array([steering.queue_for(key) for key in flow_keys])
        queues = queue_of_flow[flows]
        service = bootstrap_service_ns(service_samples, len(sizes), rng)
        goodput_mask: Optional[np.ndarray] = None
        if clock is not None:
            faulted = apply_bulk_faults(clock, arrivals, sizes, queues, service)
            if faulted.arrivals_ns.size == 0:
                raise ValueError(
                    "fault plan dropped every packet in the bulk stream; "
                    "lower the drop rate or intensity"
                )
            arrivals = faulted.arrivals_ns
            sizes = faulted.sizes_bytes
            queues = faulted.queue_ids
            service = faulted.service_ns
            goodput_mask = faulted.goodput
        result = simulate_queueing_latency(
            arrivals,
            sizes,
            queues,
            service,
            n_queues=n_cores,
            nic=nic,
            ring_capacity=ring_capacity,
            goodput=goodput_mask,
        )
        summaries.append(result.summary)
        achieved.append(result.achieved_gbps)
        offered.append(result.offered_gbps)
        drops.append(result.drop_fraction)
        goodputs.append(result.goodput_gbps)
        last_run = result
    assert last_run is not None
    return NfvExperimentResult(
        summary=median_of_runs(summaries),
        achieved_gbps=float(np.median(achieved)),
        offered_gbps=float(np.median(offered)),
        drop_fraction=float(np.median(drops)),
        mean_service_ns=float(service_samples.mean()),
        latencies_us=last_run.latencies_us,
        run_summaries=summaries,
        goodput_gbps=float(np.median(goodputs)),
        fault_counters=clock.stats.to_dict() if clock is not None else None,
    )


def compare_cache_director(
    chain_factory: ChainFactory,
    steering_kind: str,
    offered_gbps: float,
    **kwargs,
) -> Dict[str, NfvExperimentResult]:
    """Run DPDK vs DPDK+CacheDirector for one configuration."""
    return {
        "dpdk": run_nfv_experiment(
            chain_factory, False, steering_kind, offered_gbps, **kwargs
        ),
        "cachedirector": run_nfv_experiment(
            chain_factory, True, steering_kind, offered_gbps, **kwargs
        ),
    }


def merge_arms(
    arms: Sequence[NfvExperimentResult],
) -> Dict[str, NfvExperimentResult]:
    """Assemble the ``(dpdk, cachedirector)`` pair a comparison returns.

    Used by the lab runner to recombine the two arms after running
    them as independent parallel tasks; ``arms`` must be ordered like
    :func:`compare_cache_director` runs them (DPDK first).
    """
    if len(arms) != 2:
        raise ValueError(f"expected 2 arms, got {len(arms)}")
    return {"dpdk": arms[0], "cachedirector": arms[1]}


def nfv_result_to_dict(result: NfvExperimentResult) -> Dict[str, object]:
    """JSON-ready form of one configuration's outcome.

    The raw per-packet latency array is summarised as a downsampled
    CDF rather than dumped verbatim — runs keep artifacts small while
    still persisting the Fig. 14a curve shape.
    """
    from repro.stats.percentiles import cdf_points

    xs, fs = cdf_points(result.latencies_us, n_points=21)
    payload = {
        "summary": result.summary.to_dict(),
        "achieved_gbps": result.achieved_gbps,
        "offered_gbps": result.offered_gbps,
        "drop_fraction": result.drop_fraction,
        "mean_service_ns": result.mean_service_ns,
        "run_summaries": [s.to_dict() for s in (result.run_summaries or [])],
        "latency_cdf_us": [float(x) for x in xs],
        "latency_cdf_f": [float(f) for f in fs],
    }
    # Fault fields only appear when faults were injected, so fault-free
    # artifacts stay byte-identical to the pre-chaos golden numbers.
    if result.fault_counters is not None:
        payload["goodput_gbps"] = result.goodput_gbps
        payload["fault_counters"] = result.fault_counters
    return payload


def comparison_to_dict(
    results: Dict[str, NfvExperimentResult]
) -> Dict[str, object]:
    """JSON-ready form of a DPDK-vs-CacheDirector comparison."""
    base = results["dpdk"]
    cd = results["cachedirector"]
    return {
        "dpdk": nfv_result_to_dict(base),
        "cachedirector": nfv_result_to_dict(cd),
        "improvement": cd.summary.improvement_over(base.summary),
    }


def format_comparison(
    results: Dict[str, NfvExperimentResult], title: str
) -> str:
    """Render a DPDK vs CacheDirector percentile table + improvements."""
    base = results["dpdk"]
    cd = results["cachedirector"]
    out = [title]
    out.append("          |    75th |    90th |    95th |    99th |    mean")
    for name, res in (("DPDK", base), ("DPDK+CD", cd)):
        s = res.summary
        out.append(
            f"{name:<9} | {s[75]:>7.1f} | {s[90]:>7.1f} | {s[95]:>7.1f} "
            f"| {s[99]:>7.1f} | {s.mean:>7.1f}  (us)"
        )
    imp = cd.summary.improvement_over(base.summary)
    out.append(
        "improve   | "
        + " | ".join(
            f"{imp[f'p{q}_abs']:>7.2f}" for q in (75, 90, 95, 99)
        )
        + f" | {imp['mean_abs']:>7.2f}  (us)"
    )
    out.append(
        "          | "
        + " | ".join(
            f"{imp[f'p{q}_rel'] * 100:>6.2f}%" for q in (75, 90, 95, 99)
        )
        + f" | {imp['mean_rel'] * 100:>6.2f}%"
    )
    out.append(
        f"throughput: {base.achieved_gbps:.2f} -> {cd.achieved_gbps:.2f} Gbps "
        f"(+{(cd.achieved_gbps - base.achieved_gbps) * 1e3:.0f} Mbps); "
        f"drops {base.drop_fraction:.1%} -> {cd.drop_fraction:.1%}"
    )
    if base.run_summaries and len(base.run_summaries) > 1:
        from repro.stats.percentiles import quartiles_of_runs

        q1, median, q3 = quartiles_of_runs(base.run_summaries, 99.0)
        out.append(
            f"p99 across runs (DPDK): median {median:.1f} us, "
            f"quartiles [{q1:.1f}, {q3:.1f}] (the paper's error bars)"
        )
    return "\n".join(out)
