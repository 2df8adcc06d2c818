"""§6 — porting CacheDirector to the Skylake architecture.

The paper ports its code to the Xeon Gold 6134 and argues that
CacheDirector "is still expected to be beneficial, but with lower
improvements — as the size of L2 has been increased" (and the LLC is a
non-inclusive victim cache).  This experiment runs the same NFV
microsimulation on both machine models and compares CacheDirector's
per-packet saving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.cachesim.machines import HASWELL_E5_2667V3, SKYLAKE_GOLD_6134
from repro.dpdk.steering import FlowDirectorSteering
from repro.net.chain import DutConfig, DutEnvironment, router_napt_lb_chain
from repro.net.trace import CampusTraceGenerator


@dataclass
class PortResult:
    """Per-machine CacheDirector effect on the stateful chain."""

    base_cycles: float
    cachedirector_cycles: float
    saving_cycles: float = field(init=False)
    saving_pct: float = field(init=False)

    def __post_init__(self) -> None:
        self.saving_cycles = self.base_cycles - self.cachedirector_cycles
        self.saving_pct = self.saving_cycles / self.base_cycles * 100


def run_skylake_port(
    micro_packets: int = 2500,
    seed: int = 0,
) -> Dict[str, PortResult]:
    """Mean chain service cycles, DPDK vs +CacheDirector, per machine."""
    generator = CampusTraceGenerator(seed=seed + 1)
    packets = generator.generate(micro_packets, rate_pps=4e6)
    results: Dict[str, PortResult] = {}
    for name, spec in (("haswell", HASWELL_E5_2667V3), ("skylake", SKYLAKE_GOLD_6134)):
        cycles: Dict[bool, float] = {}
        for cache_director in (False, True):
            env = DutEnvironment(
                DutConfig(spec=spec, cache_director=cache_director, seed=seed),
                router_napt_lb_chain,
            )
            steering = FlowDirectorSteering(8)
            queues = [steering.queue_for(p.flow_key) for p in packets]
            sampled = [
                c for c in env.service_cycles(packets, queues) if c is not None
            ]
            cycles[cache_director] = float(np.mean(sampled))
        results[name] = PortResult(
            base_cycles=cycles[False], cachedirector_cycles=cycles[True]
        )
    return results
