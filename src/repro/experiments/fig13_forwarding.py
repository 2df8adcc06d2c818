"""Fig. 13 — simple forwarding, mixed-size packets at 100 Gbps, RSS (§5.1.2)."""
# simcheck: ignore-file[SIM302] — serialized via the shared nfv_common.comparison_to_dict in lab/registry.py

from __future__ import annotations

from typing import Dict

from repro.experiments.nfv_common import (
    NfvExperimentResult,
    compare_cache_director,
    format_comparison,
    run_nfv_experiment,
)
from repro.net.chain import simple_forwarding_chain


def run_fig13_arm(
    cache_director: bool,
    offered_gbps: float = 100.0,
    n_bulk_packets: int = 300_000,
    micro_packets: int = 4000,
    runs: int = 3,
    seed: int = 0,
) -> NfvExperimentResult:
    """One arm (DPDK or +CacheDirector) of Fig. 13, independently runnable.

    Splitting the comparison into its two arms lets the lab runner
    execute them in parallel; each arm is exactly what
    :func:`run_fig13` computes for it.
    """
    return run_nfv_experiment(
        simple_forwarding_chain,
        cache_director,
        "rss",
        offered_gbps=offered_gbps,
        n_bulk_packets=n_bulk_packets,
        micro_packets=micro_packets,
        runs=runs,
        seed=seed,
    )


def run_fig13(
    offered_gbps: float = 100.0,
    n_bulk_packets: int = 300_000,
    micro_packets: int = 4000,
    runs: int = 3,
    seed: int = 0,
) -> Dict[str, NfvExperimentResult]:
    """Forwarding at 100 Gbps with RSS steering over 8 cores."""
    return compare_cache_director(
        simple_forwarding_chain,
        steering_kind="rss",
        offered_gbps=offered_gbps,
        n_bulk_packets=n_bulk_packets,
        micro_packets=micro_packets,
        runs=runs,
        seed=seed,
    )


def format_fig13(results: Dict[str, NfvExperimentResult]) -> str:
    """Render the Fig. 13 percentile/improvement panels."""
    return format_comparison(
        results,
        "Fig. 13 — simple forwarding, mixed sizes @ 100 Gbps, RSS "
        "(loopback excluded)",
    )
