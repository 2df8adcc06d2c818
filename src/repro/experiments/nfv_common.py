"""Shared machinery for the NFV latency experiments (Figs. 12–15, Table 3).

One experiment = one (chain, steering, load) point run for one or more
arms (CacheDirector off/on) over one offered traffic
(:func:`run_nfv_arms`):

1. draw the campus trace's flows once, and from them one microsim
   packet sample with its RX queues and one flow→queue map,
2. per arm, microsimulate the sample through that arm's full DuT to
   get its service-time distribution,
3. per run, draw one bulk arrival stream and steer it through the map;
   every arm bootstraps its own service times onto that stream, runs it
   through its own fault clock and the finite-buffer queueing model,
   before the next run's stream is drawn,
4. per arm, summarise the runs with the paper's percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dpdk.steering import FlowDirectorSteering, RssSteering
from repro.faults.plan import FaultClock, resolve_plan
from repro.faults.streams import apply_bulk_faults
from repro.net.chain import DutConfig, DutEnvironment, ServiceChain
from repro.net.harness import (
    LatencyRunResult,
    NicModel,
    bootstrap_service_ns,
    sample_service_distribution,
    simulate_queueing_latency,
)
from repro.net.packet import Packet
from repro.net.trace import CampusTraceGenerator
from repro.stats.percentiles import LatencySummary, median_of_runs

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


def flow_queue_map(generator: CampusTraceGenerator, steering_kind: str, n_queues: int) -> np.ndarray:
    """Each of *generator*'s flows' RX queue, indexed by flow id.

    A fresh steering over the same flow order pins every flow to the
    same queue, so one map serves every bulk stream drawn from the
    generator: ``map[flows]`` gives a stream's queues.
    """
    steering = make_steering(steering_kind, n_queues)
    return np.array([steering.queue_for(tuple(f)) for f in generator.flows])


def _micro_sample(
    generator: CampusTraceGenerator,
    steering_kind: str,
    micro_packets: int,
    n_cores: int,
    seed: int,
) -> Tuple[List[Packet], List[int]]:
    """The microsim packet sample and the RX queue each packet lands on.

    A fresh steering sees the sample in arrival order, so the same
    generator and seed give the same queues every time.
    """
    steering = make_steering(steering_kind, n_cores)
    packets = generator.generate(micro_packets, rate_pps=4e6, seed_offset=seed)
    return packets, [steering.queue_for(p.flow_key) for p in packets]


def _sample_service_ns(
    chain_factory: ChainFactory,
    cache_director: bool,
    packets: List[Packet],
    queues: List[int],
    n_cores: int,
    seed: int,
    faults: Optional[FaultClock],
    watermarks: Optional[Tuple[int, int]],
) -> np.ndarray:
    """Microsimulate one arm's DuT over a packet sample (ns per packet)."""
    env = DutEnvironment(
        DutConfig(
            cache_director=cache_director,
            n_cores=n_cores,
            seed=seed,
            watermarks=watermarks,
        ),
        chain_factory,
        faults=faults,
    )
    return sample_service_distribution(env, packets, queues)


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
) -> np.ndarray:
    """Cache-simulate a packet sample; returns service times (ns).

    With a fault clock, packets lost to injected faults (wire drops,
    FCS discards, allocation failures, NF crashes) are excluded from
    the sample and accounted in the clock's structured counters.
    """
    packets, queues = _micro_sample(
        generator, steering_kind, micro_packets, n_cores, seed
    )
    return _sample_service_ns(
        chain_factory,
        cache_director,
        packets,
        queues,
        n_cores,
        seed,
        faults,
        watermarks,
    )


class _ArmRuns:
    """One arm's fault clock, service sample and per-run outcomes."""

    def __init__(self, clock: Optional[FaultClock], service_ns: np.ndarray) -> None:
        if service_ns.size == 0:
            # Every microsim packet was lost to injected faults (only
            # possible at extreme rates).  Fall back to a zero-cycle
            # sample so the queueing stage still runs — effective
            # service then degenerates to the NIC floor — and record
            # that it happened.
            assert clock is not None
            clock.count("micro.no_service_samples")
            service_ns = np.zeros(1)
        self.clock = clock
        self.service_ns = service_ns
        self.summaries: List[LatencySummary] = []
        self.achieved: List[float] = []
        self.offered: List[float] = []
        self.drops: List[float] = []
        self.goodputs: List[float] = []
        self.last_run: Optional[LatencyRunResult] = None

    def run(
        self,
        sizes: np.ndarray,
        queues: np.ndarray,
        arrivals: np.ndarray,
        rng: np.random.Generator,
        n_queues: int,
        nic: Optional[NicModel],
        ring_capacity: int,
    ) -> None:
        """Queue one bulk stream through this arm's service times.

        The stream's arrays are only read, so every arm of a
        comparison consumes the same ones.
        """
        service = bootstrap_service_ns(self.service_ns, len(sizes), rng)
        goodput_mask: Optional[np.ndarray] = None
        if self.clock is not None:
            faulted = apply_bulk_faults(self.clock, arrivals, sizes, queues, service)
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
            n_queues=n_queues,
            nic=nic,
            ring_capacity=ring_capacity,
            goodput=goodput_mask,
        )
        self.summaries.append(result.summary)
        self.achieved.append(result.achieved_gbps)
        self.offered.append(result.offered_gbps)
        self.drops.append(result.drop_fraction)
        self.goodputs.append(result.goodput_gbps)
        self.last_run = result

    def result(self) -> NfvExperimentResult:
        """Medians over the runs so far."""
        assert self.last_run is not None
        return NfvExperimentResult(
            summary=median_of_runs(self.summaries),
            achieved_gbps=float(np.median(self.achieved)),
            offered_gbps=float(np.median(self.offered)),
            drop_fraction=float(np.median(self.drops)),
            mean_service_ns=float(self.service_ns.mean()),
            latencies_us=self.last_run.latencies_us,
            run_summaries=self.summaries,
            goodput_gbps=float(np.median(self.goodputs)),
            fault_counters=(
                self.clock.stats.to_dict() if self.clock is not None else None
            ),
        )


def run_nfv_arms(
    chain_factory: ChainFactory,
    arms: Sequence[bool],
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
) -> List[NfvExperimentResult]:
    """Full pipeline for each arm over one offered traffic; medians over *runs*.

    ``arms`` lists the CacheDirector setting of each arm (``(False,
    True)`` is the DPDK vs +CacheDirector comparison).  The arms share
    what they are offered: one trace generator, one microsim sample
    with its queues, one flow→queue map, and per run one bulk stream,
    which every arm consumes before the next run's is drawn.  Each arm
    keeps its own DuT, its own bootstrap stream
    (``default_rng(seed + 100 + run)``) and its own fault clock, so its
    result is the same whichever arms run beside it.

    ``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan` or its
    persisted dict form) turns on chaos injection: the microsimulation
    runs the full resilient DuT (backpressure, FCS discards, NF
    supervision) and the bulk stream passes through the vectorised
    wire-fault transforms.  A ``None`` plan — or one with all-zero
    rates — creates no clock and leaves every code path and RNG stream
    bit-identical to a fault-free run.
    """
    plan = resolve_plan(fault_plan)
    active = plan is not None and plan.rates.any_active
    generator = CampusTraceGenerator(seed=seed + 1)
    packets, micro_queues = _micro_sample(
        generator, steering_kind, micro_packets, n_cores, seed
    )
    states = []
    for cache_director in arms:
        clock = FaultClock(plan) if active else None
        service_ns = _sample_service_ns(
            chain_factory,
            cache_director,
            packets,
            micro_queues,
            n_cores,
            seed,
            clock,
            watermarks,
        )
        states.append(_ArmRuns(clock, service_ns))
    # The ``del``s free each array as soon as nothing reads it, so the
    # peak holds one run's stream and nothing more (about 1 MiB of
    # peak RSS at 150k packets per run).
    del packets, micro_queues
    queue_of_flow = flow_queue_map(generator, steering_kind, n_cores)
    for run_index in range(runs):
        sizes, flows, arrivals = generator.generate_arrays(
            n_bulk_packets, rate_gbps=offered_gbps, seed_offset=run_index
        )
        queues = queue_of_flow[flows]
        del flows
        for state in states:
            state.run(
                sizes,
                queues,
                arrivals,
                np.random.default_rng(seed + 100 + run_index),
                n_cores,
                nic,
                ring_capacity,
            )
        del sizes, queues, arrivals
    return [state.result() for state in states]


def run_nfv_experiment(
    chain_factory: ChainFactory,
    cache_director: bool,
    steering_kind: str,
    offered_gbps: float,
    **kwargs,
) -> NfvExperimentResult:
    """One arm of :func:`run_nfv_arms` (same keyword arguments)."""
    (result,) = run_nfv_arms(
        chain_factory, (cache_director,), steering_kind, offered_gbps, **kwargs
    )
    return result


def compare_cache_director(
    chain_factory: ChainFactory,
    steering_kind: str,
    offered_gbps: float,
    **kwargs,
) -> Dict[str, NfvExperimentResult]:
    """Run DPDK vs DPDK+CacheDirector over one offered traffic."""
    return merge_arms(
        run_nfv_arms(chain_factory, (False, True), steering_kind, offered_gbps, **kwargs)
    )


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
