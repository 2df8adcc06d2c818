"""Low-rate latency across every Table 2 traffic class.

§5.1 reports Fig. 12 for 64 B at 1000 pps and states that "all other
traffic sets (except those related to only 1500 B packets) show the
same behavior, but with different latency values".  This sweep runs
the same measurement for each packet size so that claim is checkable:
CacheDirector wins for every class, larger frames carry higher
absolute latency, and the 1500 B case is where §8's eviction caveat
lives (see the MTU ablation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.net.chain import DutConfig, DutEnvironment, simple_forwarding_chain
from repro.net.harness import NicModel
from repro.net.trace import FixedSizeTraffic, LOW_RATE_PPS, TrafficClass
from repro.stats.percentiles import LatencySummary, summarize_latencies

PACKET_SIZES = (64, 512, 1024, 1500)


@dataclass
class TrafficClassPoint:
    """One (size, configuration) latency summary."""

    packet_size: int
    dpdk: LatencySummary
    cachedirector: LatencySummary
    #: Absolute 99th-percentile improvement in µs.
    improvement_p99_us: float = field(init=False)

    def __post_init__(self) -> None:
        self.improvement_p99_us = self.dpdk[99] - self.cachedirector[99]


@dataclass
class TrafficClassSweep:
    """One point per Table 2 packet size, smallest first."""

    points: List[TrafficClassPoint]


def run_traffic_class_sweep(
    packets_per_class: int = 1500,
    n_cores: int = 8,
    seed: int = 0,
) -> TrafficClassSweep:
    """Run the low-rate forwarding experiment for every Table 2 size."""
    nic = NicModel()
    points: List[TrafficClassPoint] = []
    for size in PACKET_SIZES:
        traffic = FixedSizeTraffic(
            TrafficClass(packet_size=size, rate_pps=LOW_RATE_PPS, label=f"{size}B-L"),
            seed=seed,
        )
        packets = traffic.generate(packets_per_class)
        summaries: Dict[bool, LatencySummary] = {}
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
                    (c / freq + nic.fixed_latency_ns + size * 8.0 / nic.link_gbps)
                    / 1e3
                    for c in cycles
                    if c is not None
                ]
            )
            summaries[cache_director] = summarize_latencies(latencies_us)
        points.append(
            TrafficClassPoint(
                packet_size=size,
                dpdk=summaries[False],
                cachedirector=summaries[True],
            )
        )
    return TrafficClassSweep(points)
