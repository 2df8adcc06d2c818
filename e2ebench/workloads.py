"""The benchmark's workloads: four lab-registry experiments.

Each workload runs ``spec.serializer(spec.runner(seed=..., **params))``
for one registered experiment.  Its params are a registry preset plus
size overrides only; the benchmark never sets ``engine`` or
``dataplane`` itself, so it measures whatever the product defaults are.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, Mapping, NamedTuple, Tuple


class Workload(NamedTuple):
    """One benchmark workload."""

    name: str
    experiment: str
    preset: str
    overrides: Mapping[str, Any]
    #: Smallest params that keep every layer the workload covers busy
    #: (the tests run the workload at these).
    tiny: Mapping[str, Any]
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="nfv-chain",
            experiment="fig14",
            preset="full",
            overrides={},
            tiny={"n_bulk_packets": 2000, "micro_packets": 48, "runs": 1},
            why=(
                "Router-NAPT-LB chain, DPDK vs +CacheDirector: the only "
                "workload that runs core (udata precompute), dpdk and net "
                "(NFs and the queueing model)"
            ),
        ),
        Workload(
            name="kvs-getset",
            experiment="fig08",
            preset="reduced",
            overrides={},
            tiny={"n_keys": 1 << 12, "warmup_requests": 200, "measured_requests": 40},
            why=(
                "one-core KVS, GET/SET mixes under Zipf and uniform keys: "
                "per-line reference cachesim, kvs and mem with writes; "
                "bypasses core, dpdk, net and fleet"
            ),
        ),
        Workload(
            name="llc-sweep",
            experiment="fig07",
            preset="reduced",
            overrides={"sizes": [128 * 1024, 1 << 20]},
            tiny={"n_ops": 20, "sizes": [16 * 1024]},
            why=(
                "8 cores, working sets inside L2 and 4x past it: the fast "
                "engine's access_batch, the cachesim serve hot path, with "
                "little setup"
            ),
        ),
        Workload(
            name="fleet-zipf",
            experiment="fleet-scale",
            preset="reduced",
            overrides={
                "server_counts": [2, 4],
                "tenant_counts": [4],
                "requests": 12_000,
                "warmup": 2_000,
                "epoch_requests": 1_000,
                "n_keys": 4096,
            },
            tiny={
                "server_counts": [2],
                "tenant_counts": [2],
                "requests": 400,
                "warmup": 100,
                "epoch_requests": 100,
                "n_keys": 256,
            },
            why=(
                "6 fleet servers built per rep (setup-heavy), then 24k Zipf "
                "requests over the ring: fleet, kvs and fast-engine DDIO"
            ),
        ),
    )
}


_ALL = tuple(WORKLOADS)


class Effect(NamedTuple):
    """A prediction written down before measuring: which end-to-end
    metrics these per-layer metrics should move, on which workloads,
    and on which they should stay flat."""

    layer_metrics: Tuple[str, ...]
    moves: Tuple[str, ...]
    on: Tuple[str, ...]
    flat_on: Tuple[str, ...]


LAYER_EFFECTS = (
    Effect(("core.calls", "core.setup_pct", "core.serve_pct"), ("setup_s", "run_s"),
           ("nfv-chain",), ("kvs-getset", "llc-sweep", "fleet-zipf")),
    Effect(("cachesim.setup_pct", "cachesim.hierarchies"), ("setup_s", "peak_rss_mb"),
           ("fleet-zipf", "llc-sweep"), ()),
    Effect(("cachesim.calls", "cachesim.serve_pct", "cachesim.host_us_per_access",
            "cachesim.accesses"), ("sim_accesses_per_s",),
           ("llc-sweep", "kvs-getset"), ()),
    Effect(("dpdk.calls", "dpdk.setup_pct", "dpdk.serve_pct", "dpdk.rx_packets",
            "net.calls", "net.setup_pct", "net.serve_pct"), ("sim_accesses_per_s", "run_s"),
           ("nfv-chain",), ("kvs-getset", "llc-sweep", "fleet-zipf")),
    Effect(("kvs.calls", "kvs.setup_pct", "kvs.serve_pct", "kvs.requests",
            "kvs.requests_per_s"), ("sim_accesses_per_s",),
           ("kvs-getset", "fleet-zipf"), ("nfv-chain", "llc-sweep")),
    Effect(("fleet.calls", "fleet.setup_pct", "fleet.serve_pct", "fleet.requests",
            "fleet.requests_per_s"), ("run_s",),
           ("fleet-zipf",), ("nfv-chain", "kvs-getset", "llc-sweep")),
    Effect(("mem.calls", "mem.setup_pct", "mem.serve_pct"), ("setup_s", "run_s"),
           ("llc-sweep", "kvs-getset"), ("nfv-chain",)),
    Effect(("experiments.serve_pct",), ("run_s",), ("llc-sweep",), ()),
    # Simulated statistics: they explain the model's results and must
    # stay identical under any change that only speeds up the simulator.
    Effect(("cachesim.llc_hit_ratio", "cachesim.dram_accesses",
            "cachesim.ddio_read_hit_ratio", "dpdk.drop_ratio"), ("sim_accesses_per_s",),
           (), _ALL),
    Effect(("trace.spans", "trace.overhead_pct"), ("run_s",), (), _ALL),
)


def params_for(workload: Workload, tiny: bool = False) -> Dict[str, Any]:
    """The experiment params: registry preset, then size overrides."""
    from repro.lab.registry import default_registry

    params = default_registry().get(workload.experiment).params_for(workload.preset)
    params.update(workload.overrides)
    if tiny:
        params.update(workload.tiny)
    return params


def make_runner(workload: Workload, tiny: bool = False) -> Callable[[int], Any]:
    """``run(seed) -> payload`` for one workload."""
    from repro.lab.registry import default_registry

    spec = default_registry().get(workload.experiment)
    params = params_for(workload, tiny)

    def run(seed: int) -> Any:
        return spec.serializer(spec.runner(seed=seed, **params))

    return run


def digest(payload: Any) -> str:
    """SHA-256 of the payload's canonical JSON form."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def model_summary(name: str, payload: Mapping[str, Any]) -> Dict[str, float]:
    """The paper's headline numbers in the model, for the human report.

    Simulated values repeat exactly for a seed; the payload digest
    already checks them, so they are shown, not gated.
    """
    if name == "nfv-chain":
        return {
            "sim_gain_pct": 100.0 * payload["improvement"]["p99_rel"],
            "sim_p99_us": payload["cachedirector"]["summary"]["percentiles"]["p99"],
        }
    if name == "kvs-getset":
        tps = payload["tps_millions"]
        return {
            "sim_gain_pct": 100.0
            * (tps["skewed/slice/95% GET"] / tps["skewed/normal/95% GET"] - 1.0)
        }
    if name == "llc-sweep":
        slice_read = payload["slice_mops"]["read"][-1]
        normal_read = payload["normal_mops"]["read"][-1]
        return {"sim_gain_pct": 100.0 * (slice_read / normal_read - 1.0)}
    if name == "fleet-zipf":
        return {
            "sim_p99_us": max(
                cell["latency_us"]["percentiles"]["p99"] for cell in payload["cells"]
            )
        }
    raise KeyError(name)
