"""The declared benchmark suite: what ``repro bench run`` measures.

Each :class:`BenchEntry` names either a lab-registered experiment
(``kind="experiment"``) or a self-contained engine microbench
(``kind="micro"``), at two parameter points:

* ``smoke`` — seconds-per-entry sizing for CI and tests;
* ``full`` — the sizing the trajectory artifacts are recorded at.

``REPRO_BENCH_SCALE`` multiplies the parameters named in ``scaled``,
so one environment variable moves the whole suite between quick smoke
and paper-scale sampling.  Every entry declares its *work units* — how many simulated
ops/packets/requests one execution performs — which is what turns raw
wall-clock nanoseconds into the ops/sec and Mpps rates the trajectory
reports.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "BenchEntry",
    "bench_scale_factor",
    "default_suite",
    "suite_by_name",
]


def bench_scale_factor() -> float:
    """The ``REPRO_BENCH_SCALE`` multiplier (1.0 when unset/invalid)."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "1.0")
    try:
        factor = float(raw)
    except ValueError:
        warnings.warn(
            f"ignoring non-numeric REPRO_BENCH_SCALE={raw!r}; using 1.0",
            stacklevel=2,
        )
        return 1.0
    if factor <= 0:
        warnings.warn(
            f"ignoring non-positive REPRO_BENCH_SCALE={raw!r}; using 1.0",
            stacklevel=2,
        )
        return 1.0
    return factor


@dataclass(frozen=True)
class BenchEntry:
    """One measured benchmark in the suite.

    Args:
        name: stable entry key — renaming breaks the trajectory.
        title: human description shown by ``bench report``.
        kind: ``"experiment"`` (lab-registry runner) or ``"micro"``
            (self-contained callable).
        experiment: lab registry name for ``kind="experiment"``.
        runner: ``fn(params, seed) -> payload`` for ``kind="micro"``;
            with ``setup`` present, ``fn(params, seed, context)``.
        setup: optional untimed ``fn(params, seed) -> context`` run
            before every pass (like ``timeit``'s setup statement) —
            fixtures such as environments and traces are rebuilt fresh
            per pass but excluded from the sample, so the entry times
            the computation it names rather than fixture assembly.
        smoke_params / full_params: the two parameter points.
        scaled: integer parameters multiplied by ``REPRO_BENCH_SCALE``.
        work: ``fn(params) -> {"ops": N, "packets": M, ...}`` — the
            simulated work one execution performs (post-scaling).
        metrics: optional ``fn(payload) -> {metric: float}`` capturing
            model-level context numbers (throughput, speedups) in the
            artifact; never used for regression gating.
    """

    name: str
    title: str
    kind: str
    smoke_params: Mapping[str, Any]
    full_params: Mapping[str, Any]
    work: Callable[[Mapping[str, Any]], Dict[str, float]]
    experiment: Optional[str] = None
    runner: Optional[Callable[..., Any]] = None
    setup: Optional[Callable[[Mapping[str, Any], int], Any]] = None
    scaled: Tuple[str, ...] = ()
    metrics: Optional[Callable[[Any], Dict[str, float]]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("experiment", "micro"):
            raise ValueError(f"unknown bench kind {self.kind!r}")
        if self.kind == "experiment" and not self.experiment:
            raise ValueError(f"entry {self.name!r} needs an experiment name")
        if self.kind == "micro" and self.runner is None:
            raise ValueError(f"entry {self.name!r} needs a runner callable")

    def params_for(self, scale: str) -> Dict[str, Any]:
        """Effective parameters at ``"smoke"``/``"full"`` after
        applying ``REPRO_BENCH_SCALE`` to the ``scaled`` counts."""
        if scale == "smoke":
            params = dict(self.smoke_params)
        elif scale == "full":
            params = dict(self.full_params)
        else:
            raise ValueError(f"unknown bench scale {scale!r} (smoke/full)")
        factor = bench_scale_factor()
        if factor != 1.0:
            for key in self.scaled:
                if key in params:
                    params[key] = max(1, int(params[key] * factor))
        return params


# ----------------------------------------------------------------------
# Work-unit helpers (module-level so entries stay picklable/inspectable)
# ----------------------------------------------------------------------

def _fig07_work(params: Mapping[str, Any]) -> Dict[str, float]:
    # Every simulated access of the sweep: warm-up, steady-state and
    # measured passes per core, size point, op kind and placement.
    from repro.cachesim.machines import HASWELL_E5_2667V3
    from repro.experiments.fig07_ops_sweep import simulated_accesses

    accesses = simulated_accesses(
        params["sizes"], params["n_ops"], HASWELL_E5_2667V3.n_cores
    )
    return {"ops": float(accesses)}


def _nfv_work(params: Mapping[str, Any]) -> Dict[str, float]:
    # Both arms (DPDK, +CacheDirector) process the bulk stream per run
    # plus the microsimulated service-time sample.
    runs = params.get("runs", 1)
    packets = 2 * (params["n_bulk_packets"] * runs + params["micro_packets"])
    return {"packets": float(packets)}


def _fig08_work(params: Mapping[str, Any]) -> Dict[str, float]:
    # Four (distribution, placement, mix) grid cells, each warmed then
    # measured; see repro.experiments.fig08_kvs.
    requests = params["warmup_requests"] + params["measured_requests"]
    return {"ops": float(requests)}


def _micro_batch_work(params: Mapping[str, Any]) -> Dict[str, float]:
    return {"ops": float(params["n_accesses"])}


def _micro_dma_work(params: Mapping[str, Any]) -> Dict[str, float]:
    return {"packets": float(params["n_spans"])}


def _dataplane_work(params: Mapping[str, Any]) -> Dict[str, float]:
    return {"packets": float(params["n_packets"])}


def _ring_work(params: Mapping[str, Any]) -> Dict[str, float]:
    # Every lookup batch routes n_lookups pairs; one membership change
    # halfway re-routes the same batch against the rebuilt table.
    return {"ops": float(params["n_lookups"] * 2)}


def _fleet_scale_work(params: Mapping[str, Any]) -> Dict[str, float]:
    cells = len(params["server_counts"]) * len(params["tenant_counts"])
    return {"ops": float(params["requests"] * cells)}


def _fleet_availability_work(params: Mapping[str, Any]) -> Dict[str, float]:
    # One self-healing serving cell per chaos intensity point.
    return {"ops": float(params["requests"] * len(params["intensities"]))}


# ----------------------------------------------------------------------
# Payload metric extractors (model numbers recorded for context)
# ----------------------------------------------------------------------

def _fig07_metrics(payload: Mapping[str, Any]) -> Dict[str, float]:
    return {
        "peak_slice_read_mops": max(payload["slice_mops"]["read"]),
        "peak_normal_read_mops": max(payload["normal_mops"]["read"]),
    }


def _nfv_metrics(payload: Mapping[str, Any]) -> Dict[str, float]:
    return {
        "cachedirector_achieved_gbps": payload["cachedirector"]["achieved_gbps"],
        "dpdk_achieved_gbps": payload["dpdk"]["achieved_gbps"],
        "p99_improvement_us": payload["improvement"]["p99_abs"],
    }


def _fig08_metrics(payload: Mapping[str, Any]) -> Dict[str, float]:
    return {"peak_tps_millions": max(payload["tps_millions"].values())}


def _fleet_scale_metrics(payload: Mapping[str, Any]) -> Dict[str, float]:
    cells = payload["cells"]
    return {
        "peak_goodput_mrps": max(c["goodput_mrps"] for c in cells),
        "worst_p99_us": max(
            c["latency_us"]["percentiles"]["p99"] for c in cells
        ),
    }


def _fleet_availability_metrics(payload: Mapping[str, Any]) -> Dict[str, float]:
    points = payload["points"]
    return {
        "worst_unavailable_fraction": max(
            p["availability"]["unavailable_fraction"] for p in points
        ),
        "total_failovers": float(
            sum(p["availability"]["failovers"] for p in points)
        ),
        "worst_tail_inflation": max(
            p["recovery"]["tail_inflation"] for p in points
        ),
    }


# ----------------------------------------------------------------------
# Engine microbenches
# ----------------------------------------------------------------------

def _run_engine_batch(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Time FastEngine.access_batch on a mixed random-access stream."""
    import numpy as np

    from repro.cachesim.engine import FastEngine
    from repro.cachesim.machines import HASWELL_E5_2667V3, build_hierarchy
    from repro.mem.address import CACHE_LINE

    hierarchy = build_hierarchy(HASWELL_E5_2667V3, seed=seed)
    engine = FastEngine(hierarchy)
    rng = np.random.default_rng(seed)
    n = int(params["n_accesses"])
    lines = int(params["working_set_bytes"]) // CACHE_LINE
    addresses = rng.integers(0, lines, size=n, dtype=np.uint64) * CACHE_LINE
    writes = rng.random(n) < float(params["write_fraction"])
    cores = rng.integers(0, hierarchy.n_cores, size=n, dtype=np.int64)
    result = engine.access_batch(addresses, kinds=writes, core=cores.tolist())
    return {
        "total_cycles": int(result.cycles.sum()),
        "llc_accesses": int((result.slices >= 0).sum()),
    }


def _run_engine_dma(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Time the flattened DMA span path (NIC-side DDIO traffic)."""
    import numpy as np

    from repro.cachesim.engine import FastEngine
    from repro.cachesim.machines import HASWELL_E5_2667V3, build_hierarchy

    hierarchy = build_hierarchy(HASWELL_E5_2667V3, seed=seed)
    engine = FastEngine(hierarchy)
    rng = np.random.default_rng(seed)
    n_spans = int(params["n_spans"])
    span_bytes = int(params["span_bytes"])
    slots = 4096
    bases = rng.integers(0, slots, size=n_spans, dtype=np.uint64) * 2048
    lines = 0
    hits = 0
    for base in bases.tolist():
        lines += engine.dma_write_span(int(base), span_bytes)
        _, h = engine.dma_read_span(int(base), span_bytes)
        hits += h
    return {"dma_lines": int(lines), "dma_read_hits": int(hits)}


def _micro_batch_metrics(payload: Mapping[str, Any]) -> Dict[str, float]:
    return {"llc_accesses": float(payload["llc_accesses"])}


def _micro_dma_metrics(payload: Mapping[str, Any]) -> Dict[str, float]:
    return {"dma_read_hit_lines": float(payload["dma_read_hits"])}


def _setup_dataplane_forwarding(params: Mapping[str, Any], seed: int) -> Any:
    """Build a fresh DuT + campus trace; excluded from the sample."""
    from repro.net.chain import DutConfig, DutEnvironment, simple_forwarding_chain
    from repro.net.trace import CampusTraceGenerator

    config = DutConfig(
        dataplane=str(params["dataplane"]),
        n_mbufs=int(params["n_mbufs"]),
    )
    env = DutEnvironment(config, chain_factory=simple_forwarding_chain)
    generator = CampusTraceGenerator(seed=seed)
    packets = generator.generate(int(params["n_packets"]), rate_pps=1e6)
    queues = [p.packet_id % env.nic.n_queues for p in packets]
    return env, packets, queues


def _run_dataplane_forwarding(
    params: Mapping[str, Any], seed: int, context: Any
) -> Dict[str, Any]:
    """Time one forwarding microsim pass over the prebuilt trace.

    The scalar/batched entry pair shares this runner; only the
    ``dataplane`` parameter differs, so the trajectory ratio between
    the two entries is the end-to-end dataplane speedup on one engine.
    """
    env, packets, queues = context
    cycles = env.service_cycles(packets, queues)
    serviced = [c for c in cycles if c is not None]
    return {
        "serviced": len(serviced),
        "dropped": len(cycles) - len(serviced),
        "total_cycles": int(sum(serviced)),
    }


def _dataplane_metrics(payload: Mapping[str, Any]) -> Dict[str, float]:
    return {
        "serviced_packets": float(payload["serviced"]),
        "dropped_packets": float(payload["dropped"]),
    }


def _run_ring_routing(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Time bulk consistent-hash routing plus one failover re-route."""
    import numpy as np

    from repro.fleet.ring import build_ring, key_positions

    n_servers = int(params["n_servers"])
    n_lookups = int(params["n_lookups"])
    ring = build_ring([f"server-{i}" for i in range(n_servers)])
    rng = np.random.default_rng(seed)
    tenants = rng.integers(0, 16, size=n_lookups)
    keys = rng.integers(0, 1 << 24, size=n_lookups)
    positions = key_positions(tenants, keys)
    before = ring.route_positions(positions)
    ring.remove_node("server-0")
    after = ring.route_positions(positions)
    moved = int((before != after).sum())
    return {
        "owner_checksum": int(before.sum() + after.sum()),
        "moved_on_failover": moved,
    }


def _ring_metrics(payload: Mapping[str, Any]) -> Dict[str, float]:
    return {"moved_on_failover": float(payload["moved_on_failover"])}


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------

def default_suite() -> List[BenchEntry]:
    """The standing benchmark suite, in measurement order."""
    return [
        BenchEntry(
            name="fig07-ops-sweep",
            title="Fig. 7 ops sweep (fast engine, slice-aware vs normal)",
            kind="experiment",
            experiment="fig07",
            smoke_params={
                "n_ops": 100,
                "sizes": [128 * 1024, 2 << 20],
            },
            full_params={
                "n_ops": 800,
                "sizes": [128 * 1024, 512 * 1024, 2 << 20, 8 << 20],
            },
            scaled=("n_ops",),
            work=_fig07_work,
            metrics=_fig07_metrics,
        ),
        BenchEntry(
            name="fig13-forwarding",
            title="Fig. 13 forwarding @ 100 Gbps (RSS, both arms)",
            kind="experiment",
            experiment="fig13",
            smoke_params={
                "offered_gbps": 100.0,
                "n_bulk_packets": 4_000,
                "micro_packets": 128,
                "runs": 1,
            },
            full_params={
                "offered_gbps": 100.0,
                "n_bulk_packets": 40_000,
                "micro_packets": 1000,
                "runs": 1,
            },
            scaled=("n_bulk_packets", "micro_packets"),
            work=_nfv_work,
            metrics=_nfv_metrics,
        ),
        BenchEntry(
            name="dataplane-forwarding-scalar",
            title="Forwarding microsim, scalar dataplane",
            kind="micro",
            runner=_run_dataplane_forwarding,
            setup=_setup_dataplane_forwarding,
            smoke_params={
                "n_packets": 800,
                "n_mbufs": 1024,
                "dataplane": "scalar",
            },
            full_params={
                "n_packets": 8_000,
                "n_mbufs": 1024,
                "dataplane": "scalar",
            },
            scaled=("n_packets",),
            work=_dataplane_work,
            metrics=_dataplane_metrics,
        ),
        BenchEntry(
            name="dataplane-forwarding-batched",
            title="Forwarding microsim, batched record/replay dataplane",
            kind="micro",
            runner=_run_dataplane_forwarding,
            setup=_setup_dataplane_forwarding,
            smoke_params={
                "n_packets": 800,
                "n_mbufs": 1024,
                "dataplane": "batched",
            },
            full_params={
                "n_packets": 8_000,
                "n_mbufs": 1024,
                "dataplane": "batched",
            },
            scaled=("n_packets",),
            work=_dataplane_work,
            metrics=_dataplane_metrics,
        ),
        BenchEntry(
            name="fig14-service-chain",
            title="Fig. 14 Router-NAPT-LB @ 100 Gbps (FlowDirector)",
            kind="experiment",
            experiment="fig14",
            smoke_params={
                "offered_gbps": 100.0,
                "n_bulk_packets": 4_000,
                "micro_packets": 128,
                "runs": 1,
            },
            full_params={
                "offered_gbps": 100.0,
                "n_bulk_packets": 40_000,
                "micro_packets": 1000,
                "runs": 1,
            },
            scaled=("n_bulk_packets", "micro_packets"),
            work=_nfv_work,
            metrics=_nfv_metrics,
        ),
        BenchEntry(
            name="fig08-kvs",
            title="Fig. 8 slice-aware KVS (warmup + measured requests)",
            kind="experiment",
            experiment="fig08",
            smoke_params={
                "n_keys": 1 << 14,
                "warmup_requests": 600,
                "measured_requests": 200,
            },
            full_params={
                "n_keys": 1 << 18,
                "warmup_requests": 3_000,
                "measured_requests": 800,
            },
            scaled=("warmup_requests", "measured_requests"),
            work=_fig08_work,
            metrics=_fig08_metrics,
        ),
        BenchEntry(
            name="engine-batch-access",
            title="FastEngine.access_batch, mixed 8-core random stream",
            kind="micro",
            runner=_run_engine_batch,
            smoke_params={
                "n_accesses": 20_000,
                "working_set_bytes": 8 << 20,
                "write_fraction": 0.3,
            },
            full_params={
                "n_accesses": 200_000,
                "working_set_bytes": 8 << 20,
                "write_fraction": 0.3,
            },
            scaled=("n_accesses",),
            work=_micro_batch_work,
            metrics=_micro_batch_metrics,
        ),
        BenchEntry(
            name="engine-dma-span",
            title="FastEngine DMA write/read spans (DDIO path)",
            kind="micro",
            runner=_run_engine_dma,
            smoke_params={"n_spans": 1_000, "span_bytes": 1536},
            full_params={"n_spans": 10_000, "span_bytes": 1536},
            scaled=("n_spans",),
            work=_micro_dma_work,
            metrics=_micro_dma_metrics,
        ),
        BenchEntry(
            name="fleet-ring-routing",
            title="Consistent-hash bulk routing + one failover re-route",
            kind="micro",
            runner=_run_ring_routing,
            smoke_params={"n_servers": 8, "n_lookups": 100_000},
            full_params={"n_servers": 16, "n_lookups": 1_000_000},
            scaled=("n_lookups",),
            work=_ring_work,
            metrics=_ring_metrics,
        ),
        BenchEntry(
            name="fleet-scale",
            title="Fleet serving grid (servers × tenants, Zipf traffic)",
            kind="experiment",
            experiment="fleet-scale",
            smoke_params={
                "server_counts": [2],
                "tenant_counts": [2],
                "requests": 1_500,
                "warmup": 300,
                "epoch_requests": 300,
                "n_keys": 1 << 10,
                "offered_mrps": 16.0,
            },
            full_params={
                "server_counts": [2, 4],
                "tenant_counts": [2, 4],
                "requests": 12_000,
                "warmup": 2_000,
                "epoch_requests": 1_000,
                "offered_mrps": 16.0,
            },
            scaled=("requests",),
            work=_fleet_scale_work,
            metrics=_fleet_scale_metrics,
        ),
        BenchEntry(
            name="fleet-availability",
            title="Self-healing fleet under chaos (replication + detector)",
            kind="experiment",
            experiment="fleet-availability",
            smoke_params={
                "intensities": [0.0, 6.0],
                "n_servers": 4,
                "n_tenants": 2,
                "requests": 1_500,
                "warmup": 300,
                "epoch_requests": 150,
                "n_keys": 1 << 10,
                "offered_mrps": 16.0,
            },
            full_params={
                "intensities": [0.0, 2.0, 6.0, 8.0],
                "n_servers": 6,
                "n_tenants": 4,
                "requests": 12_000,
                "warmup": 2_000,
                "epoch_requests": 500,
                "n_keys": 1 << 12,
                "offered_mrps": 16.0,
            },
            scaled=("requests",),
            work=_fleet_availability_work,
            metrics=_fleet_availability_metrics,
        ),
    ]


def suite_by_name(names: Optional[List[str]] = None) -> List[BenchEntry]:
    """Resolve entry names against the default suite (all when empty)."""
    suite = default_suite()
    if not names:
        return suite
    by_name = {entry.name: entry for entry in suite}
    missing = [n for n in names if n not in by_name]
    if missing:
        known = ", ".join(sorted(by_name))
        raise KeyError(
            f"unknown bench entries {', '.join(missing)}; known: {known}"
        )
    return [by_name[n] for n in names]
