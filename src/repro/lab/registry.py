"""The default experiment registry: every CLI-reachable entry point.

Names mirror the CLI surface: ``figNN`` for ``repro fig NN``,
``tableN`` for ``repro table N``, ``headroom``, ``ablation-<which>``
for ``repro ablation <which>``, plus the extension experiments the CLI
does not expose (tagged ``extension``).

Each experiment module has one factory here that imports it and
returns the specs it backs.  The registry declares every name with its
factory and calls the factory on the name's first lookup, so a process
that looks up one experiment imports that module and nothing else of
``repro.experiments``.  Listing or running the whole matrix builds
them all.

Reduced parameters are sized so the whole matrix finishes in about a
minute serially — small enough for CI smoke, large enough that every
figure keeps its shape.  ``fig05``/``fig06``/``table4`` reduced
parameters deliberately equal the golden-baseline parameters in
``tests/golden/`` so ``repro lab compare <run> tests/golden`` checks
real numbers.

Each spec declares the paper's qualitative results about it as
:class:`~repro.lab.spec.Claim` objects.  Each threshold is the paper's
envelope; the presets a claim holds at were measured from one seed-0
run of each preset.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.lab.spec import Claim, ExperimentSpec, Registry, SplitSpec

_REGISTRY: Optional[Registry] = None


# ----------------------------------------------------------------------
# Split helpers (module-level so worker processes can resolve them)
# ----------------------------------------------------------------------

def _fig07_tasks(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """One task per array size of the Fig. 7 sweep."""
    from repro.experiments.fig07_ops_sweep import PAPER_SIZES

    base = dict(params)
    sizes = base.pop("sizes", None) or list(PAPER_SIZES)
    return [dict(base, sizes=[size]) for size in sizes]


def _fig07_merge(params: Mapping[str, Any], results: Sequence[Any]) -> Any:
    from repro.experiments.fig07_ops_sweep import merge_ops_sweeps

    return merge_ops_sweeps(list(results))


def _arm_tasks(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """DPDK vs +CacheDirector as two independent tasks."""
    return [
        dict(params, cache_director=False),
        dict(params, cache_director=True),
    ]


def _arm_merge(params: Mapping[str, Any], results: Sequence[Any]) -> Any:
    from repro.experiments.nfv_common import merge_arms

    return merge_arms(list(results))


def _fig15_tasks(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """One task per (configuration, offered load) sweep point."""
    from repro.experiments.fig15_knee import DEFAULT_LOADS

    base = dict(params)
    loads = base.pop("loads_gbps", None) or list(DEFAULT_LOADS)
    base.pop("knee_gbps", None)
    return [
        dict(base, cache_director=cache_director, load_gbps=load)
        for cache_director in (False, True)
        for load in loads
    ]


def _fig15_merge(params: Mapping[str, Any], results: Sequence[Any]) -> Any:
    from repro.experiments.fig15_knee import DEFAULT_LOADS, assemble_fig15

    loads = params.get("loads_gbps") or list(DEFAULT_LOADS)
    n = len(loads)
    return assemble_fig15(
        results[:n], results[n:], knee_gbps=params.get("knee_gbps")
    )


def _chaos_tail_tasks(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """One task per (fault class, arm) cell of the chaos matrix."""
    from repro.experiments.chaos import DEFAULT_TAIL_CLASSES

    base = dict(params)
    classes = base.pop("classes", None) or list(DEFAULT_TAIL_CLASSES)
    return [
        dict(base, fault_class=fault_class, cache_director=cache_director)
        for fault_class in classes
        for cache_director in (False, True)
    ]


def _chaos_tail_merge(params: Mapping[str, Any], results: Sequence[Any]) -> Any:
    from repro.experiments.chaos import assemble_chaos_tail

    return assemble_chaos_tail(params, list(results))


def _knee_tasks(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """One task per (intensity, arm) point of the degradation sweep."""
    from repro.experiments.chaos import DEFAULT_INTENSITIES

    base = dict(params)
    grid = base.pop("intensities", None)
    grid = [float(v) for v in (grid or DEFAULT_INTENSITIES)]
    return [
        dict(base, intensity=intensity, cache_director=cache_director)
        for intensity in grid
        for cache_director in (False, True)
    ]


def _knee_merge(params: Mapping[str, Any], results: Sequence[Any]) -> Any:
    from repro.experiments.chaos import assemble_degradation_knee

    return assemble_degradation_knee(params, list(results))


def _fleet_task_base(params: Mapping[str, Any]) -> Dict[str, Any]:
    """A fleet preset minus the pinned ``engine``, which only the whole
    sweep runners take (the benchmark pins and the goldens name it)."""
    from repro.experiments import require_fast_engine

    base = dict(params)
    require_fast_engine(base.pop("engine", "fast"))
    return base


def _fleet_scale_tasks(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """One task per (server count, tenant count) grid cell."""
    from repro.experiments.fleet import (
        DEFAULT_SERVER_COUNTS,
        DEFAULT_TENANT_COUNTS,
    )

    base = _fleet_task_base(params)
    servers = base.pop("server_counts", None) or list(DEFAULT_SERVER_COUNTS)
    tenants = base.pop("tenant_counts", None) or list(DEFAULT_TENANT_COUNTS)
    return [
        dict(base, n_servers=int(n_servers), n_tenants=int(n_tenants))
        for n_servers in servers
        for n_tenants in tenants
    ]


def _fleet_scale_merge(params: Mapping[str, Any], results: Sequence[Any]) -> Any:
    from repro.experiments.fleet import assemble_fleet_scale

    return assemble_fleet_scale(params, list(results))


def _fleet_failover_tasks(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """One task per intensity point of the failover sweep."""
    from repro.experiments.fleet import DEFAULT_FAILOVER_INTENSITIES

    base = _fleet_task_base(params)
    grid = base.pop("intensities", None)
    grid = [float(v) for v in (grid or DEFAULT_FAILOVER_INTENSITIES)]
    return [dict(base, intensity=intensity) for intensity in grid]


def _fleet_failover_merge(
    params: Mapping[str, Any], results: Sequence[Any]
) -> Any:
    from repro.experiments.fleet import assemble_fleet_failover

    return assemble_fleet_failover(params, list(results))


def _fleet_availability_tasks(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """One task per intensity point of the availability sweep."""
    from repro.experiments.fleet import DEFAULT_AVAILABILITY_INTENSITIES

    base = _fleet_task_base(params)
    grid = base.pop("intensities", None)
    grid = [float(v) for v in (grid or DEFAULT_AVAILABILITY_INTENSITIES)]
    return [dict(base, intensity=intensity) for intensity in grid]


def _fleet_availability_merge(
    params: Mapping[str, Any], results: Sequence[Any]
) -> Any:
    from repro.experiments.fleet import assemble_fleet_availability

    return assemble_fleet_availability(params, list(results))


def _fleet_durability_tasks(params: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """One task per (replication, intensity) cell of the matrix."""
    from repro.experiments.fleet import (
        DEFAULT_DURABILITY_INTENSITIES,
        DEFAULT_DURABILITY_REPLICATIONS,
    )

    base = _fleet_task_base(params)
    replications = base.pop("replications", None)
    replications = [
        int(v) for v in (replications or DEFAULT_DURABILITY_REPLICATIONS)
    ]
    grid = base.pop("intensities", None)
    grid = [float(v) for v in (grid or DEFAULT_DURABILITY_INTENSITIES)]
    return [
        dict(base, replication=replication, intensity=intensity)
        for replication in replications
        for intensity in grid
    ]


def _fleet_durability_merge(
    params: Mapping[str, Any], results: Sequence[Any]
) -> Any:
    from repro.experiments.fleet import assemble_fleet_durability

    return assemble_fleet_durability(params, list(results))


# ----------------------------------------------------------------------
# Claim helpers (read serialized payloads)
# ----------------------------------------------------------------------

#: Claims that need full-scale traffic (saturated queues, long sweeps).
_FULL = ("full",)
#: Claims whose shape the full preset's sweep no longer shows.
_REDUCED = ("reduced",)
_TAILS = ("p75", "p90", "p95", "p99")


def _cd_cuts_tails(payload: Mapping[str, Any]) -> bool:
    """CacheDirector improves p75–p99 and the mean (Figs. 13/14)."""
    gains = payload["improvement"]
    return all(gains[f"{q}_abs"] > 0.0 for q in _TAILS) and gains["mean_abs"] > 0.0


def _forwarding_ceiling(payload: Mapping[str, Any]) -> bool:
    """DPDK's throughput saturates near the paper's ~76 Gbps."""
    return 60.0 < payload["dpdk"]["achieved_gbps"] < 90.0


def _slice_regime_wins(payload: Mapping[str, Any]) -> bool:
    """Slice-aware reads win by >10 % at each 1–2 MiB sweep point."""
    normal, aware = payload["normal_mops"]["read"], payload["slice_mops"]["read"]
    points = [i for i, size in enumerate(payload["sizes"]) if size in (1 << 20, 2 << 20)]
    return bool(points) and all(aware[i] > normal[i] * 1.10 for i in points)


def _kvs_gain_pct(payload: Mapping[str, Any], dist: str, mix: str) -> float:
    """Slice-aware TPS gain over normal for one Fig. 8 cell pair."""
    tps = payload["tps_millions"]
    return (tps[f"{dist}/slice/{mix}"] / tps[f"{dist}/normal/{mix}"] - 1) * 100


def _knee_dominates(payload: Mapping[str, Any]) -> bool:
    """Above the knee, DPDK's p99 grows far faster than below it."""
    from repro.stats.fitting import PiecewiseFit

    fit = PiecewiseFit(**payload["dpdk"]["fit"])
    slope = fit.linear_coeffs[1]
    rise = fit.predict(fit.knee * 1.6) - fit.predict(fit.knee)
    return rise > 3 * slope * fit.knee * 0.6


def _skylake_core0_order(payload: Mapping[str, Any]) -> bool:
    """Core 0's nearest slices are S0, then S2 and S6 (Table 4)."""
    cycles = payload["read_cycles"]
    ordered = sorted(range(len(cycles)), key=cycles.__getitem__)
    return ordered[0] == 0 and set(ordered[1:3]) == {2, 6}


def _table4_matches(payload: Mapping[str, Any]) -> bool:
    from repro.cachesim.machines import (
        SKYLAKE_PRIMARY_SLICES,
        SKYLAKE_SECONDARY_SLICES,
    )

    table = payload["preferable"]
    return all(
        table[str(core)]["primary"] == primary
        for core, primary in SKYLAKE_PRIMARY_SLICES.items()
    ) and all(
        set(table[str(core)]["secondary"]) == set(secondaries)
        for core, secondaries in SKYLAKE_SECONDARY_SLICES.items()
    )


def _knee_inside_sweep(payload: Mapping[str, Any]) -> bool:
    """The largest p99 gain sits below the sweep's top load."""
    points = payload["points"]
    knee = max(points, key=lambda p: p["improvement_us"])
    return knee["offered_gbps"] < points[-1]["offered_gbps"]


def _packet_counts(params: Mapping[str, Any]) -> Dict[str, Any]:
    """The Fig. 13 traffic sizing Table 3 shares."""
    return {k: params[k] for k in ("n_bulk_packets", "micro_packets", "runs")}


# ----------------------------------------------------------------------
# Spec factories: one per experiment module, each importing only it
# ----------------------------------------------------------------------

#: The Fig. 13 traffic at each preset; Table 3 runs the same sizing.
_FIG13_FULL = {
    "offered_gbps": 100.0,
    "n_bulk_packets": 150_000,
    "micro_packets": 2500,
    "runs": 2,
}
_FIG13_REDUCED = {
    "offered_gbps": 100.0,
    "n_bulk_packets": 20_000,
    "micro_packets": 500,
    "runs": 1,
}


def _fig04_specs() -> Tuple[ExperimentSpec, ...]:
    from repro.experiments.fig04_hash_recovery import fig04_to_dict, run_fig04

    return (
        ExperimentSpec(
            name="fig04",
            title="Fig. 4 — Complex Addressing hash recovery",
            runner=run_fig04,
            serializer=fig04_to_dict,
            default_params={"n_bases": 4, "verify_addresses": 512},
            reduced_params={"verify_addresses": 128},
            claims=(
                Claim("Fig. 4", "the polled hash matches ground truth on every address",
                      lambda p: p["ground_truth_match"] and p["match_fraction"] == 1.0),
            ),
        ),
    )


def _access_time_specs() -> Tuple[ExperimentSpec, ...]:
    from repro.experiments.fig05_access_time import (
        profile_to_dict,
        run_fig05,
        run_fig16,
    )

    return (
        ExperimentSpec(
            name="fig05",
            title="Fig. 5 — per-slice access time (Haswell)",
            runner=run_fig05,
            serializer=profile_to_dict,
            # Matches tests/golden/fig05_latency.json at both scales.
            default_params={"core": 0, "runs": 3},
            reduced_params={},
            claims=(
                Claim("Fig. 5a", "core 0's own slice is the fastest",
                      lambda p: p["fastest_slice"] == 0),
                Claim("Fig. 5a", "reads are bimodal: every even slice beats every odd one",
                      lambda p: max(p["read_cycles"][0::2]) < min(p["read_cycles"][1::2])),
                Claim("Fig. 5a", "the read spread is ~20 cycles (15-30)",
                      lambda p: 15 <= p["read_spread"] <= 30),
                Claim("Fig. 5b", "writes are flat (< 1 cycle spread)",
                      lambda p: max(p["write_cycles"]) - min(p["write_cycles"]) < 1),
            ),
        ),
        ExperimentSpec(
            name="fig16",
            title="Fig. 16 — per-slice access time (Skylake)",
            runner=run_fig16,
            serializer=profile_to_dict,
            default_params={"core": 0, "runs": 5},
            reduced_params={"runs": 3},
            claims=(
                Claim("Fig. 16", "the Gold 6134 model has 18 slices",
                      lambda p: len(p["read_cycles"]) == 18),
                Claim("Fig. 16", "core 0's nearest slices are S0, then S2 and S6",
                      _skylake_core0_order),
            ),
        ),
    )


def _fig06_specs() -> Tuple[ExperimentSpec, ...]:
    from repro.experiments.fig06_speedup import fig06_to_dict, run_fig06

    return (
        ExperimentSpec(
            name="fig06",
            title="Fig. 6 — slice-aware allocation speedup",
            runner=run_fig06,
            serializer=fig06_to_dict,
            # Matches tests/golden/fig06_speedup.json at both scales.
            default_params={"core": 0, "n_ops": 2000},
            reduced_params={},
            claims=(
                Claim("Fig. 6a", "slice-0 reads gain > 10 %, the farthest lose > 10 %",
                      lambda p: p["read_speedup_pct"][0] > 10.0
                      and min(p["read_speedup_pct"]) < -10.0),
                Claim("Fig. 6a", "read gains are bimodal: every even slice beats every odd one",
                      lambda p: min(p["read_speedup_pct"][0::2])
                      > max(p["read_speedup_pct"][1::2])),
                Claim("Fig. 6b", "slice-0 writes gain > 5 %, slice-5 writes lose > 5 %",
                      lambda p: p["write_speedup_pct"][0] > 5.0
                      and p["write_speedup_pct"][5] < -5.0),
            ),
        ),
    )


def _fig07_specs() -> Tuple[ExperimentSpec, ...]:
    from repro.experiments.fig07_ops_sweep import fig07_to_dict, run_fig07

    return (
        ExperimentSpec(
            name="fig07",
            title="Fig. 7 — OPS vs working-set size (8 cores)",
            runner=run_fig07,
            serializer=fig07_to_dict,
            default_params={"n_ops": 1000, "engine": "fast"},
            reduced_params={
                "n_ops": 200,
                "sizes": [128 * 1024, 512 * 1024, 2 << 20],
                "engine": "fast",
            },
            split=SplitSpec(
                task_runner=run_fig07,
                make_tasks=_fig07_tasks,
                merge=_fig07_merge,
            ),
            tags=("sweep",),
            claims=(
                Claim("Fig. 7a", "placements tie (< 5 %) at the smallest, cache-resident size",
                      lambda p: abs(p["slice_mops"]["read"][0] - p["normal_mops"]["read"][0])
                      / p["normal_mops"]["read"][0] < 0.05),
                Claim("Fig. 7a", "slice-aware reads win by > 10 % in the 1-2 MiB slice regime",
                      _slice_regime_wins),
                Claim("Fig. 7a", "placements converge (< 10 %) at the largest, DRAM-bound size",
                      lambda p: abs(p["slice_mops"]["read"][-1] - p["normal_mops"]["read"][-1])
                      / p["normal_mops"]["read"][-1] < 0.10,
                      scales=_FULL),
                Claim("Fig. 7a", "OPS falls from cache speed to DRAM speed across the sweep",
                      lambda p: p["normal_mops"]["read"][0] > p["normal_mops"]["read"][-1]),
            ),
        ),
    )


def _fig08_specs() -> Tuple[ExperimentSpec, ...]:
    from repro.experiments.fig08_kvs import fig08_to_dict, run_fig08

    return (
        ExperimentSpec(
            name="fig08",
            title="Fig. 8 — slice-aware KVS TPS",
            runner=run_fig08,
            serializer=fig08_to_dict,
            default_params={"warmup_requests": 60_000, "measured_requests": 12_000},
            reduced_params={
                "n_keys": 1 << 18,
                "warmup_requests": 3_000,
                "measured_requests": 800,
            },
            claims=(
                Claim("Fig. 8", "uniform pure GETs: placement matters little (|gain| < 4 %)",
                      lambda p: abs(_kvs_gain_pct(p, "uniform", "100% GET")) < 4.0),
                Claim("Fig. 8", "uniform 95 %/50 % GET gains stay within -4 % .. +8 %",
                      lambda p: all(-4.0 < _kvs_gain_pct(p, "uniform", mix) < 8.0
                                    for mix in ("95% GET", "50% GET"))),
                Claim("Fig. 8", "skewed pure GETs run > 1.2x faster than uniform (normal)",
                      lambda p: p["tps_millions"]["skewed/normal/100% GET"]
                      > 1.2 * p["tps_millions"]["uniform/normal/100% GET"]),
                Claim("Fig. 8", "skewed 50 % GET gains from slice-aware placement",
                      lambda p: _kvs_gain_pct(p, "skewed", "50% GET") > 0.0,
                      scales=_FULL),
                Claim("Fig. 8", "skewed pure GETs lose no more than 8 %",
                      lambda p: _kvs_gain_pct(p, "skewed", "100% GET") > -8.0),
            ),
        ),
    )


def _fig12_specs() -> Tuple[ExperimentSpec, ...]:
    from repro.experiments.fig12_low_rate import fig12_to_dict, run_fig12

    return (
        ExperimentSpec(
            name="fig12",
            title="Fig. 12 — DuT latency at 1000 pps",
            runner=run_fig12,
            serializer=fig12_to_dict,
            default_params={"packets_per_run": 2000, "runs": 3},
            reduced_params={"packets_per_run": 400, "runs": 2},
            claims=(
                Claim("Fig. 12", "CacheDirector never loses at p75-p99",
                      lambda p: all(p["improvement"][f"{q}_abs"] >= 0.0 for q in _TAILS)),
            ),
        ),
    )


def _fig13_specs() -> Tuple[ExperimentSpec, ...]:
    from repro.experiments.fig13_forwarding import run_fig13, run_fig13_arm
    from repro.experiments.nfv_common import comparison_to_dict

    return (
        ExperimentSpec(
            name="fig13",
            title="Fig. 13 — simple forwarding @ 100 Gbps (RSS)",
            runner=run_fig13,
            serializer=comparison_to_dict,
            default_params=_FIG13_FULL,
            reduced_params=_FIG13_REDUCED,
            split=SplitSpec(
                task_runner=run_fig13_arm,
                make_tasks=_arm_tasks,
                merge=_arm_merge,
            ),
            tags=("sweep",),
            claims=(
                Claim("Fig. 13", "CacheDirector cuts p75-p99 and the mean", _cd_cuts_tails),
                Claim("Table 3", "CacheDirector forwards more than DPDK",
                      lambda p: p["cachedirector"]["achieved_gbps"]
                      > p["dpdk"]["achieved_gbps"]),
                Claim("Table 3", "forwarding saturates at 60-90 Gbps (paper ~76)",
                      _forwarding_ceiling, scales=_FULL),
            ),
        ),
    )


def _fig14_specs() -> Tuple[ExperimentSpec, ...]:
    from repro.experiments.fig14_service_chain import run_fig14, run_fig14_arm
    from repro.experiments.nfv_common import comparison_to_dict

    return (
        ExperimentSpec(
            name="fig14",
            title="Figs. 1 & 14 — Router-NAPT-LB @ 100 Gbps (FlowDirector)",
            runner=run_fig14,
            serializer=comparison_to_dict,
            default_params={
                "offered_gbps": 100.0,
                "n_bulk_packets": 150_000,
                "micro_packets": 2500,
                "runs": 2,
            },
            reduced_params={
                "offered_gbps": 100.0,
                "n_bulk_packets": 20_000,
                "micro_packets": 500,
                "runs": 1,
            },
            split=SplitSpec(
                task_runner=run_fig14_arm,
                make_tasks=_arm_tasks,
                merge=_arm_merge,
            ),
            tags=("sweep",),
            claims=(
                Claim("Fig. 14", "CacheDirector cuts p75-p99 and the mean", _cd_cuts_tails),
                Claim("Table 3", "the chain saturates at 60-90 Gbps (paper ~76)",
                      _forwarding_ceiling, scales=_FULL),
            ),
        ),
    )


def _fig15_specs() -> Tuple[ExperimentSpec, ...]:
    from repro.experiments.fig15_knee import (
        fig15_to_dict,
        run_fig15,
        run_fig15_point,
    )

    return (
        ExperimentSpec(
            name="fig15",
            title="Fig. 15 — p99 latency vs throughput knee",
            runner=run_fig15,
            serializer=fig15_to_dict,
            default_params={"n_bulk_packets": 60_000, "micro_packets": 1500},
            reduced_params={
                "loads_gbps": [10.0, 20.0, 30.0, 45.0, 65.0, 90.0],
                "n_bulk_packets": 15_000,
                "micro_packets": 400,
            },
            split=SplitSpec(
                task_runner=run_fig15_point,
                make_tasks=_fig15_tasks,
                merge=_fig15_merge,
            ),
            tags=("sweep",),
            claims=(
                Claim("Fig. 15", "DPDK's p99 grows with load",
                      lambda p: p["dpdk"]["tail_latency_us"][-1]
                      > p["dpdk"]["tail_latency_us"][0]),
                Claim("Fig. 15", "past the knee, p99 growth dwarfs the below-knee slope",
                      _knee_dominates, scales=_REDUCED),
                Claim("Fig. 15", "the piecewise fits explain both curves (R^2 > 0.8)",
                      lambda p: p["dpdk"]["fit"]["r2_quadratic"] > 0.8
                      and p["cachedirector"]["fit"]["r2_quadratic"] > 0.8),
                Claim("Fig. 15", "CacheDirector's p99 is at or below DPDK's at the top load",
                      lambda p: p["cachedirector"]["tail_latency_us"][-1]
                      <= p["dpdk"]["tail_latency_us"][-1]),
            ),
        ),
    )


def _fig17_specs() -> Tuple[ExperimentSpec, ...]:
    from repro.experiments.fig17_isolation import fig17_to_dict, run_fig17

    return (
        ExperimentSpec(
            name="fig17",
            title="Fig. 17 — slice-based isolation vs CAT",
            runner=run_fig17,
            serializer=fig17_to_dict,
            default_params={"n_ops": 6000},
            reduced_params={"n_ops": 1500},
            claims=(
                Claim("Fig. 17", "slice isolation beats 2-way CAT by > 5 % (read and write)",
                      lambda p: p["slice_vs_cat_read_pct"] > 5.0
                      and p["slice_vs_cat_write_pct"] > 5.0),
                Claim("Fig. 17", "slice isolation beats no isolation under the neighbour",
                      lambda p: p["read_seconds"]["slice-isolated"] < p["read_seconds"]["nocat"]),
            ),
        ),
    )


def _headroom_specs() -> Tuple[ExperimentSpec, ...]:
    from repro.experiments.headroom import (
        headroom_to_dict,
        run_headroom_experiment,
    )

    return (
        ExperimentSpec(
            name="headroom",
            title="§4.2 — dynamic headroom distribution",
            runner=run_headroom_experiment,
            serializer=headroom_to_dict,
            default_params={"n_packets": 20_000},
            reduced_params={"n_packets": 3_000},
            claims=(
                Claim("§4.2", "headroom is tight and bounded: median 128-448 B, p95 and max <= 576 B",
                      lambda p: 128 <= p["median"] <= 448 and p["p95"] <= 576 and p["max"] <= 576),
            ),
        ),
    )


def _table_specs() -> Tuple[ExperimentSpec, ...]:
    from repro.experiments import tables

    return (
        ExperimentSpec(
            name="table1",
            title="Table 1 — Haswell cache specification",
            runner=tables.run_table1,
            serializer=tables.table1_to_dict,
            seeded=False,
            claims=(
                Claim("Table 1", "LLC slice, L2 and L1 geometry match the E5-2667 v3",
                      lambda p: [
                          (r["level"], r["size"], r["ways"], r["sets"], r["index_bits"])
                          for r in p["rows"]
                      ] == [
                          ("LLC-Slice", "2.5MB", 20, 2048, "16-6"),
                          ("L2", "256kB", 8, 512, "14-6"),
                          ("L1", "32kB", 8, 64, "11-6"),
                      ]),
            ),
        ),
        ExperimentSpec(
            name="table2",
            title="Table 2 — traffic classes",
            runner=tables.run_table2,
            serializer=tables.table2_to_dict,
            seeded=False,
            claims=(
                Claim("Table 2", "eight traffic classes", lambda p: len(p["classes"]) == 8),
            ),
        ),
        ExperimentSpec(
            name="table3",
            title="Table 3 — throughput at 100 Gbps + improvement",
            runner=tables.run_table3,
            serializer=tables.table3_to_dict,
            # The same traffic as the Fig. 13/14 runs at each preset.
            default_params=_packet_counts(_FIG13_FULL),
            reduced_params=_packet_counts(_FIG13_REDUCED),
            claims=(
                Claim("Table 3", "CacheDirector adds throughput to both applications",
                      lambda p: all(r["improvement_mbps"] > 0 for r in p["rows"])),
                Claim("Table 3", "both saturate at 60-90 Gbps, forwarding at or above the chain",
                      lambda p: 60.0 < p["rows"][1]["throughput_gbps"]
                      <= p["rows"][0]["throughput_gbps"] < 90.0,
                      scales=_FULL),
            ),
        ),
        ExperimentSpec(
            name="table4",
            title="Table 4 — preferable slices per core (Skylake)",
            runner=tables.run_table4,
            serializer=tables.table4_to_dict,
            seeded=False,
            claims=(
                Claim("Table 4", "primary and secondary slices per core match the paper",
                      _table4_matches),
            ),
        ),
    )


def _ablation_specs() -> Tuple[ExperimentSpec, ...]:
    from repro.experiments import ablations

    return (
        ExperimentSpec(
            name="ablation-ddio",
            title="Ablation — DDIO ways vs service cycles",
            runner=ablations.run_ddio_ways_ablation,
            serializer=ablations.ddio_ablation_to_dict,
            default_params={"micro_packets": 2000},
            reduced_params={"micro_packets": 600},
            claims=(
                Claim("§5", "without DDIO a packet costs > 3 % more than with 2 ways",
                      lambda p: p["cycles_per_packet"]["0"]
                      > p["cycles_per_packet"]["2"] * 1.03),
                Claim("§5", "more I/O ways never hurt materially (8 ways <= 2 ways + 5 %)",
                      lambda p: p["cycles_per_packet"]["8"]
                      <= p["cycles_per_packet"]["2"] * 1.05),
            ),
        ),
        ExperimentSpec(
            name="ablation-prefetcher",
            title="Ablation — L2 streamer prefetcher vs allocation",
            runner=ablations.run_prefetcher_ablation,
            serializer=ablations.prefetcher_ablation_to_dict,
            default_params={"n_lines": 16384, "n_ops": 6000},
            reduced_params={"n_lines": 4096, "n_ops": 1500},
            claims=(
                Claim("§8", "the streamer speeds sequential scans of normal arrays > 30 %",
                      lambda p: p["speedup_pct"]["sequential/normal"] > 30.0),
                Claim("§8", "the streamer does nothing (< 5 %) for slice-aware or random access",
                      lambda p: all(abs(p["speedup_pct"][k]) < 5.0 for k in (
                          "sequential/slice", "random/normal", "random/slice"))),
            ),
        ),
        ExperimentSpec(
            name="ablation-replacement",
            title="Ablation — LLC replacement policies",
            runner=ablations.run_replacement_ablation,
            serializer=ablations.replacement_ablation_to_dict,
            default_params={},
            reduced_params={"scan_lines": 1 << 17, "rounds": 4},
            claims=(
                Claim("ablation", "RRIP protects the hot set from scans: brrip <= srrip < lru",
                      lambda p: p["brrip"]["hot_cycles"] <= p["srrip"]["hot_cycles"]
                      < p["lru"]["hot_cycles"]),
            ),
        ),
        ExperimentSpec(
            name="ablation-migration",
            title="Ablation — hot-set migration vs static placement",
            runner=ablations.run_migration_experiment,
            serializer=ablations.migration_experiment_to_dict,
            default_params={},
            reduced_params={
                "n_keys": 1 << 15,
                "hot_keys": 1536,
                "ops_per_phase": 20_000,
            },
        ),
        ExperimentSpec(
            name="ablation-value-size",
            title="Ablation — multi-line KVS values",
            runner=ablations.run_value_size_ablation,
            serializer=ablations.value_size_ablation_to_dict,
            default_params={},
            reduced_params={"warmup": 6_000, "measured": 1_500},
            claims=(
                Claim("§8", "more lines per value, fewer transactions per second",
                      lambda p: p["256"]["normal"] < p["128"]["normal"] < p["64"]["normal"]),
                Claim("§8", "scattered multi-line values keep > 85 % of contiguous TPS",
                      lambda p: all(r["slice"] / r["normal"] > 0.85 for r in p.values())),
            ),
        ),
        ExperimentSpec(
            name="ablation-mtu",
            title="Ablation — MTU frames vs DDIO eviction",
            runner=ablations.run_mtu_eviction_experiment,
            serializer=ablations.mtu_eviction_to_dict,
            default_params={"queue_depth": 512},
            # A 256-deep backlog evicts no header before the poll; the
            # effect needs the full queue depth at both presets.
            reduced_params={},
            claims=(
                Claim("§8", "MTU frames evict > 10 % of headers before the core reads them",
                      lambda p: p["eviction_fraction"] > 0.10),
            ),
        ),
        ExperimentSpec(
            name="ablation-rx-strategies",
            title="§4.2 — RX placement strategies",
            runner=ablations.run_rx_strategy_comparison,
            serializer=ablations.rx_strategies_to_dict,
            default_params={"n_packets": 8000},
            reduced_params={"n_packets": 3000},
            claims=(
                Claim("§4.2", "stock DPDK places < 30 % of headers in the core's slice",
                      lambda p: p["fixed"]["match_fraction"] < 0.30),
                Claim("§4.2", "dynamic headroom places > 99 %, sorted pools > 95 %",
                      lambda p: p["dynamic-headroom"]["match_fraction"] > 0.99
                      and p["sorted-pools"]["match_fraction"] > 0.95),
                Claim("§4.2", "dynamic headroom provisions more data room than sorted pools",
                      lambda p: p["dynamic-headroom"]["data_room_bytes"]
                      > p["sorted-pools"]["data_room_bytes"]),
            ),
        ),
    )


def _multitenant_specs() -> Tuple[ExperimentSpec, ...]:
    from repro.experiments.multitenant import (
        multitenant_to_dict,
        run_multitenant_experiment,
    )

    return (
        ExperimentSpec(
            name="ablation-multitenant",
            title="Extension — multi-tenant LLC policies",
            runner=run_multitenant_experiment,
            serializer=multitenant_to_dict,
            default_params={"n_ops": 4000},
            reduced_params={"n_ops": 1200},
            claims=(
                Claim("§7", "the polite tenant does best under slice partitioning",
                      lambda p: p["slice"]["tenant_cycles"][0] < min(
                          p["shared"]["tenant_cycles"][0], p["cat"]["tenant_cycles"][0])),
                Claim("§7", "slice partitioning costs the aggregate at most 5 %",
                      lambda p: p["slice"]["mean"] <= p["shared"]["mean"] * 1.05),
            ),
        ),
    )


def _chaos_specs() -> Tuple[ExperimentSpec, ...]:
    from repro.experiments.chaos import (
        chaos_tail_to_dict,
        degradation_knee_to_dict,
        run_chaos_tail,
        run_chaos_tail_arm,
        run_degradation_knee,
        run_degradation_point,
    )

    return (
        ExperimentSpec(
            name="chaos-tail",
            title="Chaos — tail latency per fault class (DPDK vs +CD)",
            runner=run_chaos_tail,
            serializer=chaos_tail_to_dict,
            default_params={
                "chain": "forwarding",
                "offered_gbps": 100.0,
                "n_bulk_packets": 60_000,
                "micro_packets": 1500,
                "runs": 2,
            },
            reduced_params={
                "chain": "forwarding",
                "classes": ["none", "nic-drop", "mempool", "nf-crash", "mixed"],
                "offered_gbps": 100.0,
                "n_bulk_packets": 15_000,
                "micro_packets": 400,
                "runs": 1,
            },
            split=SplitSpec(
                task_runner=run_chaos_tail_arm,
                make_tasks=_chaos_tail_tasks,
                merge=_chaos_tail_merge,
            ),
            tags=("chaos",),
        ),
        ExperimentSpec(
            name="degradation-knee",
            title="Chaos — goodput vs fault intensity (degradation knee)",
            runner=run_degradation_knee,
            serializer=degradation_knee_to_dict,
            default_params={
                "fault_class": "mixed",
                "chain": "stateful",
                "offered_gbps": 40.0,
                "n_bulk_packets": 60_000,
                "micro_packets": 1500,
                "runs": 1,
            },
            reduced_params={
                "fault_class": "mixed",
                "chain": "stateful",
                "offered_gbps": 40.0,
                "intensities": [0.0, 1.0, 2.0, 4.0, 8.0],
                "n_bulk_packets": 12_000,
                "micro_packets": 400,
                "runs": 1,
            },
            split=SplitSpec(
                task_runner=run_degradation_point,
                make_tasks=_knee_tasks,
                merge=_knee_merge,
            ),
            tags=("chaos",),
        ),
    )


def _fleet_specs() -> Tuple[ExperimentSpec, ...]:
    from repro.experiments.fleet import (
        fleet_availability_to_dict,
        fleet_durability_to_dict,
        fleet_failover_to_dict,
        fleet_scale_to_dict,
        run_fleet_availability,
        run_fleet_availability_point,
        run_fleet_durability,
        run_fleet_durability_point,
        run_fleet_failover,
        run_fleet_failover_point,
        run_fleet_scale,
        run_fleet_scale_cell,
    )

    return (
        ExperimentSpec(
            name="fleet-scale",
            title="Fleet — goodput and tails vs servers × tenants",
            runner=run_fleet_scale,
            serializer=fleet_scale_to_dict,
            default_params={
                "server_counts": [2, 4, 8],
                "tenant_counts": [2, 4, 8],
                "requests": 120_000,
                "warmup": 20_000,
                "epoch_requests": 10_000,
                "offered_mrps": 16.0,
                "engine": "fast",
            },
            reduced_params={
                "server_counts": [2, 3],
                "tenant_counts": [2],
                "requests": 2400,
                "warmup": 600,
                "epoch_requests": 300,
                "n_keys": 1 << 10,
                "offered_mrps": 16.0,
                "engine": "fast",
            },
            split=SplitSpec(
                task_runner=run_fleet_scale_cell,
                make_tasks=_fleet_scale_tasks,
                merge=_fleet_scale_merge,
            ),
            tags=("fleet",),
        ),
        ExperimentSpec(
            name="fleet-failover",
            title="Fleet — tail inflation and recovery under server kills",
            runner=run_fleet_failover,
            serializer=fleet_failover_to_dict,
            default_params={
                "n_servers": 6,
                "n_tenants": 4,
                "requests": 150_000,
                "warmup": 25_000,
                "epoch_requests": 12_500,
                "offered_mrps": 16.0,
                "engine": "fast",
            },
            reduced_params={
                "intensities": [0.0, 1.0, 4.0],
                "n_servers": 3,
                "n_tenants": 2,
                "requests": 2400,
                "warmup": 600,
                "epoch_requests": 300,
                "n_keys": 1 << 10,
                "offered_mrps": 16.0,
                "engine": "fast",
            },
            split=SplitSpec(
                task_runner=run_fleet_failover_point,
                make_tasks=_fleet_failover_tasks,
                merge=_fleet_failover_merge,
            ),
            tags=("fleet",),
        ),
        ExperimentSpec(
            name="fleet-availability",
            title="Fleet — unavailability and recovery under kill+stall chaos",
            runner=run_fleet_availability,
            serializer=fleet_availability_to_dict,
            default_params={
                "intensities": [0.0, 2.0, 4.0, 6.0, 8.0],
                "n_servers": 6,
                "n_tenants": 4,
                "requests": 150_000,
                "warmup": 25_000,
                "epoch_requests": 7_500,
                "offered_mrps": 16.0,
                "engine": "fast",
            },
            reduced_params={
                "intensities": [0.0, 2.0, 6.0, 8.0],
                "n_servers": 4,
                "n_tenants": 2,
                "requests": 2400,
                "warmup": 600,
                "epoch_requests": 200,
                "n_keys": 1 << 10,
                "offered_mrps": 16.0,
                "engine": "fast",
            },
            split=SplitSpec(
                task_runner=run_fleet_availability_point,
                make_tasks=_fleet_availability_tasks,
                merge=_fleet_availability_merge,
            ),
            tags=("fleet",),
        ),
        ExperimentSpec(
            name="fleet-durability",
            title="Fleet — lost keys vs replication factor × kill intensity",
            runner=run_fleet_durability,
            serializer=fleet_durability_to_dict,
            default_params={
                "replications": [1, 2, 3],
                "intensities": [0.0, 1.0, 2.0],
                "n_servers": 5,
                "n_tenants": 2,
                "requests": 150_000,
                "warmup": 25_000,
                "epoch_requests": 12_500,
                "offered_mrps": 16.0,
                "engine": "fast",
            },
            reduced_params={
                "replications": [1, 2, 3],
                "intensities": [0.0, 1.0, 2.0],
                "n_servers": 4,
                "n_tenants": 2,
                "requests": 2400,
                "warmup": 600,
                "epoch_requests": 300,
                "n_keys": 1 << 10,
                "offered_mrps": 16.0,
                "engine": "fast",
            },
            split=SplitSpec(
                task_runner=run_fleet_durability_point,
                make_tasks=_fleet_durability_tasks,
                merge=_fleet_durability_merge,
            ),
            tags=("fleet",),
        ),
    )


def _skylake_port_specs() -> Tuple[ExperimentSpec, ...]:
    from repro.experiments.skylake_port import (
        run_skylake_port,
        skylake_port_to_dict,
    )

    return (
        ExperimentSpec(
            name="skylake-port",
            title="§6 — CacheDirector across architectures",
            runner=run_skylake_port,
            serializer=skylake_port_to_dict,
            default_params={"micro_packets": 2500},
            reduced_params={"micro_packets": 600},
            tags=("extension",),
            claims=(
                Claim("§6", "CacheDirector saves cycles on Haswell and on Skylake",
                      lambda p: p["haswell"]["saving_cycles"] > 0
                      and p["skylake"]["saving_cycles"] > 0),
            ),
        ),
    )


def _load_sensitivity_specs() -> Tuple[ExperimentSpec, ...]:
    from repro.experiments.load_sensitivity import (
        load_sensitivity_to_dict,
        run_load_sensitivity,
    )

    return (
        ExperimentSpec(
            name="load-sensitivity",
            title="Extension — p99 gain vs offered load",
            runner=run_load_sensitivity,
            serializer=load_sensitivity_to_dict,
            default_params={},
            reduced_params={
                "loads_gbps": [20.0, 55.0, 90.0],
                "n_bulk_packets": 15_000,
                "micro_packets": 400,
            },
            tags=("extension",),
            claims=(
                Claim("§5.3", "CacheDirector never loses > 0.5 us of p99 at any load",
                      lambda p: all(pt["improvement_us"] >= -0.5 for pt in p["points"])),
                Claim("§5.3", "queueing amplifies the p99 gain above the light-load gain",
                      lambda p: max(pt["improvement_us"] for pt in p["points"])
                      > p["points"][0]["improvement_us"]),
                Claim("§5.3", "the gain peaks at a knee inside the load sweep",
                      _knee_inside_sweep, scales=_FULL),
            ),
        ),
    )


def _traffic_classes_specs() -> Tuple[ExperimentSpec, ...]:
    from repro.experiments.traffic_classes import (
        run_traffic_class_sweep,
        traffic_classes_to_dict,
    )

    return (
        ExperimentSpec(
            name="traffic-classes",
            title="Table 2 sweep — low-rate latency per packet size",
            runner=run_traffic_class_sweep,
            serializer=traffic_classes_to_dict,
            default_params={"packets_per_class": 1500},
            reduced_params={"packets_per_class": 400},
            tags=("extension",),
            claims=(
                Claim("§5.1", "CacheDirector never loses p99 in any traffic class",
                      lambda p: all(pt["improvement_p99_us"] >= 0.0 for pt in p["points"])),
                Claim("§5.1", "larger frames have higher p99 latency",
                      lambda p: [pt["dpdk"]["percentiles"]["p99"] for pt in p["points"]]
                      == sorted(pt["dpdk"]["percentiles"]["p99"] for pt in p["points"])),
            ),
        ),
    )


#: Every factory with the names of the specs it returns.
_FACTORIES = (
    (("fig04",), _fig04_specs),
    (("fig05", "fig16"), _access_time_specs),
    (("fig06",), _fig06_specs),
    (("fig07",), _fig07_specs),
    (("fig08",), _fig08_specs),
    (("fig12",), _fig12_specs),
    (("fig13",), _fig13_specs),
    (("fig14",), _fig14_specs),
    (("fig15",), _fig15_specs),
    (("fig17",), _fig17_specs),
    (("headroom",), _headroom_specs),
    (("table1", "table2", "table3", "table4"), _table_specs),
    (
        (
            "ablation-ddio",
            "ablation-prefetcher",
            "ablation-replacement",
            "ablation-migration",
            "ablation-value-size",
            "ablation-mtu",
            "ablation-rx-strategies",
        ),
        _ablation_specs,
    ),
    (("ablation-multitenant",), _multitenant_specs),
    (("chaos-tail", "degradation-knee"), _chaos_specs),
    (
        ("fleet-scale", "fleet-failover", "fleet-availability", "fleet-durability"),
        _fleet_specs,
    ),
    (("skylake-port",), _skylake_port_specs),
    (("load-sensitivity",), _load_sensitivity_specs),
    (("traffic-classes",), _traffic_classes_specs),
)


# ----------------------------------------------------------------------
# Registry construction
# ----------------------------------------------------------------------

def _build() -> Registry:
    # Declares names only: each experiment module is imported by the
    # first ``get`` of one of its names (``names()``/``specs()`` import
    # them all), so nothing leaks at module import and a worker forked
    # after those lookups imports nothing per task.
    registry = Registry()
    for names, factory in _FACTORIES:
        registry.declare(names, factory)
    return registry


def default_registry() -> Registry:
    """The process-wide registry, built on first use.

    Worker processes forked by the runner inherit the parent's
    registry (including any test-injected specs and every spec the
    parent already looked up); spawned workers build the one spec they
    run on its first lookup.
    """
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build()
    return _REGISTRY
