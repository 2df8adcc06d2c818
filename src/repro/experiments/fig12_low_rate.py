"""Fig. 12 — 64 B packets at 1000 pps, simple forwarding (§5.1.1).

At this rate there is no queueing: the experiment isolates the pure
per-packet effect of CacheDirector.  The paper sends 5000 packets per
run and plots the 75/90/95/99th percentiles over 50 runs; the minimum
loopback latency (9 µs) is subtracted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.net.chain import DutConfig, DutEnvironment, simple_forwarding_chain
from repro.net.harness import LOOPBACK_LOW_RATE_US, NicModel
from repro.net.trace import FixedSizeTraffic, TrafficClass, LOW_RATE_PPS
from repro.stats.percentiles import LatencySummary, median_of_runs, summarize_latencies


@dataclass
class LowRateResult:
    """Latency summaries for DPDK vs DPDK+CacheDirector, with
    CacheDirector's gain over DPDK (``improvement``)."""

    dpdk: LatencySummary
    cachedirector: LatencySummary
    improvement: Dict[str, float] = field(init=False)

    def __post_init__(self) -> None:
        self.improvement = self.cachedirector.improvement_over(self.dpdk)


def run_fig12(
    packets_per_run: int = 5000,
    runs: int = 5,
    n_cores: int = 8,
    seed: int = 0,
) -> LowRateResult:
    """Measure per-packet DuT latency at 1000 pps.

    Every packet's latency is its service time plus the NIC's fixed
    pipeline latency — queues are always empty at 1000 pps.
    """
    traffic_class = TrafficClass(packet_size=64, rate_pps=LOW_RATE_PPS, label="64B-L")
    nic = NicModel()
    summaries: Dict[bool, List[LatencySummary]] = {False: [], True: []}
    for run_index in range(runs):
        traffic = FixedSizeTraffic(traffic_class, seed=seed + run_index)
        packets = traffic.generate(packets_per_run)
        for cache_director in (False, True):
            env = DutEnvironment(
                DutConfig(cache_director=cache_director, n_cores=n_cores, seed=seed),
                simple_forwarding_chain,
            )
            queues = [p.flow.src_port % n_cores for p in packets]
            cycles = env.service_cycles(packets, queues)
            freq = env.config.spec.freq_ghz
            latencies_us = np.array(
                [
                    (c / freq + nic.fixed_latency_ns) / 1e3
                    for c in cycles
                    if c is not None
                ]
            )
            summaries[cache_director].append(summarize_latencies(latencies_us))
    return LowRateResult(
        dpdk=median_of_runs(summaries[False]),
        cachedirector=median_of_runs(summaries[True]),
    )


def format_fig12(result: LowRateResult) -> str:
    """Render the Fig. 12 box positions."""
    out = [
        "Fig. 12 — DuT latency, 64 B @ 1000 pps, simple forwarding "
        f"(loopback {LOOPBACK_LOW_RATE_US:.0f} us already excluded)"
    ]
    out.append("          |   75th |   90th |   95th |   99th  (us)")
    for name, s in (("DPDK", result.dpdk), ("DPDK+CD", result.cachedirector)):
        out.append(
            f"{name:<9} | {s[75]:>6.3f} | {s[90]:>6.3f} | {s[95]:>6.3f} | {s[99]:>6.3f}"
        )
    imp = result.improvement
    out.append(
        "rel gain  | "
        + " | ".join(f"{imp[f'p{q}_rel'] * 100:>5.2f}%" for q in (75, 90, 95, 99))
    )
    return "\n".join(out)
