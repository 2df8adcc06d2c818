"""CacheDirector's tail gain vs offered load.

§5.3's mechanism — "the CPU can process packets faster … hence, the
queueing delay is reduced" — predicts that a fixed per-packet service
saving is *amplified* in the tail as the system approaches saturation
(classically, waiting time scales like ρ/(1−ρ)).  This study sweeps
offered load and reports CacheDirector's absolute and relative
99th-percentile improvement at each point, locating where the
amplification peaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.experiments.nfv_common import run_nfv_experiment
from repro.net.chain import router_napt_lb_chain


@dataclass
class SensitivityPoint:
    """One load point of the sweep."""

    offered_gbps: float
    achieved_gbps: float
    p99_dpdk_us: float
    p99_cd_us: float
    improvement_us: float = field(init=False)
    improvement_pct: float = field(init=False)

    def __post_init__(self) -> None:
        self.improvement_us = self.p99_dpdk_us - self.p99_cd_us
        self.improvement_pct = (
            self.improvement_us / self.p99_dpdk_us * 100 if self.p99_dpdk_us else 0.0
        )


@dataclass
class LoadSensitivityResult:
    """The sweep, one point per offered load."""

    points: List[SensitivityPoint]


def run_load_sensitivity(
    loads_gbps: List[float] = (20.0, 40.0, 55.0, 65.0, 75.0, 90.0),
    n_bulk_packets: int = 120_000,
    micro_packets: int = 2000,
    seed: int = 0,
) -> LoadSensitivityResult:
    """Sweep offered load; returns one point per load."""
    points: List[SensitivityPoint] = []
    for load in loads_gbps:
        p99 = {}
        achieved = 0.0
        for cache_director in (False, True):
            result = run_nfv_experiment(
                lambda: router_napt_lb_chain(hw_offload=True),
                cache_director,
                "flow-director",
                offered_gbps=load,
                n_bulk_packets=n_bulk_packets,
                micro_packets=micro_packets,
                runs=2,
                seed=seed,
            )
            p99[cache_director] = result.summary[99]
            achieved = result.achieved_gbps
        points.append(
            SensitivityPoint(
                offered_gbps=load,
                achieved_gbps=achieved,
                p99_dpdk_us=p99[False],
                p99_cd_us=p99[True],
            )
        )
    return LoadSensitivityResult(points)
