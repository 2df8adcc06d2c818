"""Fig. 8 — emulated KVS transactions per second (§3.1).

Single serving core; 2^24 64 B values; requests in 128 B TCP packets;
four configurations: {slice-aware, normal} × {Zipf(0.99), uniform};
three GET/SET mixes.  The paper reports slice-aware winning ~12 % on
skewed workloads and tying on uniform; see EXPERIMENTS.md for how the
capacity-vs-latency trade-off plays out in the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.cachesim.machines import HASWELL_E5_2667V3, MachineSpec
from repro.core.slice_aware import SliceAwareContext
from repro.kvs.server import KvsServer
from repro.kvs.store import KvsStore
from repro.kvs.workload import GetSetMix, UniformKeys, ZipfKeys

#: Fig. 8's GET fractions.
PAPER_GET_FRACTIONS = (1.00, 0.95, 0.50)


@dataclass
class KvsFigureResult:
    """TPS (millions) and cycles per request, keyed by (distribution,
    placement, mix)."""

    tps_millions: Dict[Tuple[str, str, str], float] = field(default_factory=dict)
    cycles_per_request: Dict[Tuple[str, str, str], float] = field(
        default_factory=dict
    )

    def delta_pct(self, distribution: str, mix_label: str) -> float:
        """Slice-aware gain over normal for one cell pair."""
        aware = self.tps_millions[(distribution, "slice", mix_label)]
        normal = self.tps_millions[(distribution, "normal", mix_label)]
        return (aware / normal - 1) * 100


def run_fig08(
    spec: MachineSpec = HASWELL_E5_2667V3,
    n_keys: int = 1 << 24,
    warmup_requests: int = 120_000,
    measured_requests: int = 20_000,
    get_fractions: Tuple[float, ...] = PAPER_GET_FRACTIONS,
    zipf_theta: float = 0.99,
    seed: int = 0,
) -> KvsFigureResult:
    """Run all Fig. 8 cells.

    Args:
        spec: machine model.
        n_keys: key-space size (paper: 2^24).
        warmup_requests: requests served before measuring (fills the
            LLC hot set — the paper measures a continuously loaded
            server).
        measured_requests: requests measured per mix.
        get_fractions: the GET/SET mixes.
        zipf_theta: skew of the Zipf distribution.
        seed: RNG seed.
    """
    result = KvsFigureResult()
    distributions = (
        ("skewed", ZipfKeys(n_keys, zipf_theta, seed=seed + 3)),
        ("uniform", UniformKeys(n_keys, seed=seed + 3)),
    )
    for dist_name, generator in distributions:
        warm_keys = generator.keys(warmup_requests, np.random.default_rng(seed + 9))
        for placement, slice_aware in (("slice", True), ("normal", False)):
            context = SliceAwareContext(spec, seed=seed + 2)
            store = KvsStore(context, core=0, n_keys=n_keys, slice_aware=slice_aware)
            server = KvsServer(context, store, core=0)
            server.run(
                warm_keys, np.ones(warmup_requests, dtype=bool), warmup=warmup_requests - 1
            )
            for get_fraction in get_fractions:
                mix = GetSetMix(get_fraction)
                keys = generator.keys(measured_requests, np.random.default_rng(seed + 11))
                ops = mix.operations(measured_requests, np.random.default_rng(seed + 12))
                run = server.run(keys, ops)
                key = (dist_name, placement, mix.label)
                result.tps_millions[key] = run.tps_millions
                result.cycles_per_request[key] = run.cycles_per_request
    return result


def format_fig08(result: KvsFigureResult) -> str:
    """Render the Fig. 8 grouped bars as a table."""
    mixes = sorted({k[2] for k in result.tps_millions}, reverse=True)
    out = ["Fig. 8 — average KVS TPS (millions), 1 core"]
    out.append("config            | " + " | ".join(f"{m:>9}" for m in mixes))
    for dist in ("skewed", "uniform"):
        for placement in ("slice", "normal"):
            row = [f"{placement}-{dist:<10}"]
            for mix in mixes:
                row.append(f"{result.tps_millions[(dist, placement, mix)]:>9.2f}")
            out.append(" | ".join(row))
    for dist in ("skewed", "uniform"):
        deltas = ", ".join(
            f"{mix}: {result.delta_pct(dist, mix):+.1f}%" for mix in mixes
        )
        out.append(f"slice-aware gain ({dist}): {deltas}")
    skew_get = ("skewed", "slice", "100% GET")
    norm_get = ("skewed", "normal", "100% GET")
    cycles = result.cycles_per_request
    if skew_get in cycles:
        out.append(
            f"cycles/request, skewed 100% GET: slice "
            f"{cycles[skew_get]:.0f} vs normal {cycles[norm_get]:.0f} "
            f"(paper: ~160 vs ~194)"
        )
    return "\n".join(out)
