"""Fig. 15 — 99th-percentile latency vs throughput knee (§5.2.2).

The stateful chain under a load sweep; below the knee tail latency
grows linearly with throughput, above it quadratically.  The paper
fits piecewise curves with the knee at 37 Gbps and reports R² for both
segments; these latencies *include* the loopback cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.net.chain import router_napt_lb_chain
from repro.net.harness import LOOPBACK_100G_US
from repro.stats.fitting import PiecewiseFit, fit_piecewise_linear_quadratic

#: Offered loads swept (Gbps); the paper sweeps 5–100.
DEFAULT_LOADS = [5.0, 10.0, 20.0, 30.0, 37.0, 45.0, 55.0, 65.0, 75.0, 90.0, 100.0]


@dataclass
class KneeCurve:
    """One tail-latency-vs-throughput curve."""

    throughputs_gbps: List[float]
    tail_latency_us: List[float]
    fit: PiecewiseFit


@dataclass
class KneeResult:
    """Fig. 15's two curves."""

    dpdk: KneeCurve
    cachedirector: KneeCurve


def _measure_samples(
    cache_director: bool, generator, micro_packets: int, seed: int
) -> np.ndarray:
    """The load-independent service-time sample for one configuration."""
    from repro.experiments.nfv_common import measure_service_times

    return measure_service_times(
        lambda: router_napt_lb_chain(hw_offload=True),
        cache_director,
        "flow-director",
        generator,
        micro_packets=micro_packets,
        seed=seed,
    )


def _simulate_load_point(
    service_samples: np.ndarray,
    generator,
    queue_of_flow: np.ndarray,
    load: float,
    n_bulk_packets: int,
    runs: int,
    ring_capacity: int,
    burstiness: float,
    seed: int,
) -> Tuple[float, float]:
    """One (achieved Gbps, p99 us incl. loopback) point of the sweep;
    *queue_of_flow* maps the generator's flow ids to RX queues."""
    from repro.net.harness import bootstrap_service_ns, simulate_queueing_latency

    per_run_tp: List[float] = []
    per_run_tail: List[float] = []
    for run_index in range(runs):
        rng = np.random.default_rng(seed + 50 + run_index)
        sizes, flows, arrivals = generator.generate_arrays(
            n_bulk_packets,
            rate_gbps=load,
            seed_offset=run_index,
            burstiness=burstiness,
        )
        result = simulate_queueing_latency(
            arrivals,
            sizes,
            queue_of_flow[flows],
            bootstrap_service_ns(service_samples, len(sizes), rng),
            n_queues=8,
            ring_capacity=ring_capacity,
        )
        per_run_tp.append(result.achieved_gbps)
        per_run_tail.append(result.summary[99])
    # Fig. 15 includes the loopback cost.
    return (
        float(np.median(per_run_tp)),
        float(np.median(per_run_tail)) + LOOPBACK_100G_US,
    )


def run_fig15_point(
    cache_director: bool,
    load_gbps: float,
    n_bulk_packets: int = 150_000,
    micro_packets: int = 3000,
    runs: int = 1,
    ring_capacity: int = 2048,
    burstiness: float = 0.45,
    seed: int = 0,
) -> Tuple[float, float]:
    """One independently-runnable sweep point of Fig. 15.

    Re-measures the configuration's service-time sample (it is seed-
    deterministic, so every point of the same arm sees the identical
    sample) and simulates a single offered load.  The lab runner fans
    these out across workers and reassembles the curves with
    :func:`assemble_fig15`, bit-identical to :func:`run_fig15`.
    """
    generator, queue_of_flow = _fig15_traffic(seed)
    service_samples = _measure_samples(
        cache_director, generator, micro_packets, seed
    )
    return _simulate_load_point(
        service_samples,
        generator,
        queue_of_flow,
        load_gbps,
        n_bulk_packets,
        runs,
        ring_capacity,
        burstiness,
        seed,
    )


def _fig15_traffic(seed: int):
    """The trace generator every Fig. 15 point shares (seed + 1), and
    its flow→queue map over Flow Director's 8 queues."""
    from repro.experiments.nfv_common import flow_queue_map
    from repro.net.trace import CampusTraceGenerator

    generator = CampusTraceGenerator(seed=seed + 1)
    return generator, flow_queue_map(generator, "flow-director", 8)


def assemble_fig15(
    dpdk_points: Sequence[Tuple[float, float]],
    cachedirector_points: Sequence[Tuple[float, float]],
    knee_gbps: float = None,
) -> KneeResult:
    """Fit the two knee curves from already-simulated sweep points."""
    curves: Dict[bool, KneeCurve] = {}
    for cache_director, points in (
        (False, dpdk_points),
        (True, cachedirector_points),
    ):
        throughputs = [float(p[0]) for p in points]
        tails = [float(p[1]) for p in points]
        knee = knee_gbps if knee_gbps is not None else max(throughputs) * 0.48
        fit = fit_piecewise_linear_quadratic(throughputs, tails, knee=knee)
        curves[cache_director] = KneeCurve(
            throughputs_gbps=throughputs, tail_latency_us=tails, fit=fit
        )
    return KneeResult(dpdk=curves[False], cachedirector=curves[True])


def run_fig15(
    loads_gbps: List[float] = None,
    n_bulk_packets: int = 150_000,
    micro_packets: int = 3000,
    runs: int = 1,
    knee_gbps: float = None,
    ring_capacity: int = 2048,
    burstiness: float = 0.45,
    seed: int = 0,
) -> KneeResult:
    """Sweep offered load, collect (achieved, p99) points, fit curves.

    The knee defaults to roughly half the saturation throughput,
    mirroring the paper's 37 Gbps on a ~76 Gbps ceiling.  The buffer
    budget is two rings deep (RX ring + NIC-internal FIFO) and the
    burst modulation moderate, so the tail keeps growing with load up
    to saturation instead of pinning at one ring's depth.
    """
    loads = loads_gbps if loads_gbps is not None else list(DEFAULT_LOADS)
    generator, queue_of_flow = _fig15_traffic(seed)
    points: Dict[bool, List[Tuple[float, float]]] = {False: [], True: []}
    for cache_director in (False, True):
        # The service-time distribution is load-independent; sample it
        # once per configuration.
        service_samples = _measure_samples(
            cache_director, generator, micro_packets, seed
        )
        for load in loads:
            points[cache_director].append(
                _simulate_load_point(
                    service_samples,
                    generator,
                    queue_of_flow,
                    load,
                    n_bulk_packets,
                    runs,
                    ring_capacity,
                    burstiness,
                    seed,
                )
            )
    return assemble_fig15(points[False], points[True], knee_gbps=knee_gbps)


def format_fig15(result: KneeResult) -> str:
    """Render the Fig. 15 data points and fitted curves."""
    out = ["Fig. 15 — 99th-percentile latency vs throughput (loopback included)"]
    out.append("achieved Gbps |  DPDK p99 us |  +CD p99 us")
    for i in range(len(result.dpdk.throughputs_gbps)):
        out.append(
            f"{result.dpdk.throughputs_gbps[i]:>13.1f} | "
            f"{result.dpdk.tail_latency_us[i]:>12.1f} | "
            f"{result.cachedirector.tail_latency_us[i]:>11.1f}"
        )
    out.append(result.dpdk.fit.format_paper_style("DPDK"))
    out.append(
        f"  R2 = {result.dpdk.fit.r2_linear:.3f} (linear), "
        f"{result.dpdk.fit.r2_quadratic:.3f} (quadratic)"
    )
    out.append(result.cachedirector.fit.format_paper_style("CacheDirector"))
    out.append(
        f"  R2 = {result.cachedirector.fit.r2_linear:.3f} (linear), "
        f"{result.cachedirector.fit.r2_quadratic:.3f} (quadratic)"
    )
    return "\n".join(out)
def fig15_to_dict(result: KneeResult) -> dict:
    """JSON-ready form of the knee curves and fits (lab/CLI ``--json``)."""

    def curve(c: KneeCurve) -> dict:
        return {
            "throughputs_gbps": [float(v) for v in c.throughputs_gbps],
            "tail_latency_us": [float(v) for v in c.tail_latency_us],
            "fit": {
                "knee": float(c.fit.knee),
                "linear_coeffs": [float(v) for v in c.fit.linear_coeffs],
                "quadratic_coeffs": [float(v) for v in c.fit.quadratic_coeffs],
                "r2_linear": float(c.fit.r2_linear),
                "r2_quadratic": float(c.fit.r2_quadratic),
            },
        }

    return {"dpdk": curve(result.dpdk), "cachedirector": curve(result.cachedirector)}
