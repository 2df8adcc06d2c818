"""Figs. 1 & 14 — Router-NAPT-LB at 100 Gbps with FlowDirector (§5.2.1).

The stateful chain with the routing classification offloaded to the
NIC (Metron's FlowDirector offload); Fig. 14a is the latency CDF,
Fig. 14b the per-percentile improvement, and Fig. 1 the same data as
relative speedups.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.experiments.nfv_common import (
    NfvComparison,
    NfvExperimentResult,
    compare_cache_director,
    format_comparison,
    run_nfv_experiment,
)
from repro.net.chain import router_napt_lb_chain


def run_fig14_arm(
    cache_director: bool,
    offered_gbps: float = 100.0,
    n_bulk_packets: int = 300_000,
    micro_packets: int = 4000,
    runs: int = 3,
    hw_offload: bool = True,
    seed: int = 0,
) -> NfvExperimentResult:
    """One arm of Fig. 14, independently runnable (see Fig. 13's twin)."""
    return run_nfv_experiment(
        lambda: router_napt_lb_chain(hw_offload=hw_offload),
        cache_director,
        "flow-director",
        offered_gbps=offered_gbps,
        n_bulk_packets=n_bulk_packets,
        micro_packets=micro_packets,
        runs=runs,
        seed=seed,
    )


def run_fig14(
    offered_gbps: float = 100.0,
    n_bulk_packets: int = 300_000,
    micro_packets: int = 4000,
    runs: int = 3,
    hw_offload: bool = True,
    seed: int = 0,
) -> NfvComparison:
    """Stateful chain at 100 Gbps with FlowDirector steering."""
    return compare_cache_director(
        lambda: router_napt_lb_chain(hw_offload=hw_offload),
        steering_kind="flow-director",
        offered_gbps=offered_gbps,
        n_bulk_packets=n_bulk_packets,
        micro_packets=micro_packets,
        runs=runs,
        seed=seed,
    )


def cdf_table(
    results: NfvComparison, n_points: int = 11
) -> List[Tuple[float, float, float]]:
    """Fig. 14a data: (CDF, dpdk latency, cachedirector latency)."""
    quantiles = np.linspace(0.0, 1.0, n_points)
    base = np.quantile(results.dpdk.latencies_us, quantiles)
    cd = np.quantile(results.cachedirector.latencies_us, quantiles)
    return [(float(q), float(b), float(c)) for q, b, c in zip(quantiles, base, cd)]


def format_fig14(results: NfvComparison) -> str:
    """Render Fig. 14's CDF plus the improvement panel."""
    out = [
        format_comparison(
            results,
            "Figs. 1 & 14 — Router-NAPT-LB, mixed sizes @ 100 Gbps, "
            "FlowDirector (loopback excluded)",
        )
    ]
    out.append("CDF (Fig. 14a):  F(x) |   DPDK us |  +CD us")
    for q, base, cd in cdf_table(results):
        out.append(f"                 {q:>4.0%} | {base:>9.1f} | {cd:>8.1f}")
    return "\n".join(out)
