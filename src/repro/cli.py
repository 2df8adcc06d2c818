"""Command-line interface: run any paper experiment from the shell.

Examples::

    python -m repro profile --machine haswell
    python -m repro recover-hash
    python -m repro fig 6 --ops 4000 --seed 7
    python -m repro fig 14 --offered 100 --json
    python -m repro table 3
    python -m repro headroom --packets 10000
    python -m repro ablation prefetcher --json
    python -m repro lab run --all --jobs 4 --out lab-runs/nightly
    python -m repro lab compare lab-runs/nightly tests/golden

Every subcommand prints the same rows/series the paper's figure or
table reports (see EXPERIMENTS.md for the mapping); ``--json`` emits
the same payload the lab's run artifacts store.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, List, Mapping, Optional, Set, Tuple

from repro.cachesim.machines import HASWELL_E5_2667V3, SKYLAKE_GOLD_6134

MACHINES = {
    "haswell": HASWELL_E5_2667V3,
    "skylake": SKYLAKE_GOLD_6134,
}


def _emit_json(payload: Any) -> int:
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.experiments.fig05_access_time import (
        format_profile,
        profile_to_dict,
        run_fig05,
    )

    spec = MACHINES[args.machine]
    profile = run_fig05(spec=spec, core=args.core, runs=args.runs, seed=args.seed)
    if args.json:
        return _emit_json(profile_to_dict(profile))
    print(
        format_profile(
            profile, f"Per-slice access time, core {args.core} ({spec.name})"
        )
    )
    return 0


def _cmd_recover_hash(args: argparse.Namespace) -> int:
    from repro.experiments.fig04_hash_recovery import (
        fig04_to_dict,
        format_fig04,
        run_fig04,
    )

    result = run_fig04(verify_addresses=args.verify, seed=args.seed)
    status = 0 if result.ground_truth_match else 1
    if args.json:
        _emit_json(fig04_to_dict(result))
        return status
    print(format_fig04(result))
    return status


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments import tables

    if args.number == 1:
        if args.json:
            return _emit_json(tables.table1_to_dict(tables.run_table1()))
        print(tables.format_table1())
    elif args.number == 2:
        if args.json:
            return _emit_json(tables.table2_to_dict(tables.run_table2()))
        print(tables.format_table2())
    elif args.number == 3:
        rows = tables.run_table3(
            n_bulk_packets=args.bulk,
            micro_packets=args.micro,
            runs=args.runs,
            seed=args.seed,
        )
        if args.json:
            return _emit_json(tables.table3_to_dict(rows))
        print(tables.format_table3(rows))
    else:
        if args.json:
            return _emit_json(tables.table4_to_dict(tables.run_table4()))
        print(tables.format_table4())
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    number = args.number
    seed = args.seed
    if number == 4:
        return _cmd_recover_hash(args)
    if number in (5, 16):
        from repro.experiments.fig05_access_time import (
            format_profile,
            profile_to_dict,
            run_fig05,
            run_fig16,
        )

        profile = (
            run_fig16(runs=args.runs, seed=seed)
            if number == 16
            else run_fig05(runs=args.runs, seed=seed)
        )
        if args.json:
            return _emit_json(profile_to_dict(profile))
        print(format_profile(profile, f"Fig. {number}"))
        return 0
    if number == 6:
        from repro.experiments.fig06_speedup import (
            fig06_to_dict,
            format_fig06,
            run_fig06,
        )

        result = run_fig06(n_ops=args.ops, seed=seed)
        if args.json:
            return _emit_json(fig06_to_dict(result))
        print(format_fig06(result))
        return 0
    if number == 7:
        from repro.experiments.fig07_ops_sweep import (
            fig07_to_dict,
            format_fig07,
            run_fig07,
        )

        result = run_fig07(n_ops=max(200, args.ops // 4), seed=seed)
        if args.json:
            return _emit_json(fig07_to_dict(result))
        print(format_fig07(result))
        return 0
    if number == 8:
        from repro.experiments.fig08_kvs import fig08_to_dict, format_fig08, run_fig08

        result = run_fig08(
            warmup_requests=args.warmup,
            measured_requests=args.ops,
            seed=seed,
        )
        if args.json:
            return _emit_json(fig08_to_dict(result))
        print(format_fig08(result))
        return 0
    if number == 12:
        from repro.experiments.fig12_low_rate import (
            fig12_to_dict,
            format_fig12,
            run_fig12,
        )

        result = run_fig12(packets_per_run=args.ops, runs=args.runs, seed=seed)
        if args.json:
            return _emit_json(fig12_to_dict(result))
        print(format_fig12(result))
        return 0
    if number in (1, 13, 14):
        from repro.experiments.nfv_common import comparison_to_dict

        if number == 13:
            from repro.experiments.fig13_forwarding import format_fig13 as fmt
            from repro.experiments.fig13_forwarding import run_fig13 as run
        else:
            from repro.experiments.fig14_service_chain import format_fig14 as fmt
            from repro.experiments.fig14_service_chain import run_fig14 as run
        results = run(
            offered_gbps=args.offered,
            n_bulk_packets=args.bulk,
            micro_packets=args.micro,
            runs=args.runs,
            seed=seed,
        )
        if args.json:
            return _emit_json(comparison_to_dict(results))
        print(fmt(results))
        return 0
    if number == 15:
        from repro.experiments.fig15_knee import (
            fig15_to_dict,
            format_fig15,
            run_fig15,
        )

        result = run_fig15(
            n_bulk_packets=args.bulk, micro_packets=args.micro, seed=seed
        )
        if args.json:
            return _emit_json(fig15_to_dict(result))
        print(format_fig15(result))
        return 0
    if number == 17:
        from repro.experiments.fig17_isolation import (
            fig17_to_dict,
            format_fig17,
            run_fig17,
        )

        result = run_fig17(n_ops=args.ops, seed=seed)
        if args.json:
            return _emit_json(fig17_to_dict(result))
        print(format_fig17(result))
        return 0
    print(f"no driver for figure {number}", file=sys.stderr)
    return 2


def _cmd_headroom(args: argparse.Namespace) -> int:
    from repro.experiments.headroom import (
        format_headroom,
        headroom_to_dict,
        run_headroom_experiment,
    )

    result = run_headroom_experiment(n_packets=args.packets, seed=args.seed)
    if args.json:
        return _emit_json(headroom_to_dict(result))
    print(format_headroom(result))
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments import ablations

    name = args.which
    seed = args.seed
    if name == "ddio":
        result = ablations.run_ddio_ways_ablation(seed=seed)
        serializer, formatter = (
            ablations.ddio_ablation_to_dict,
            ablations.format_ddio_ablation,
        )
    elif name == "prefetcher":
        result = ablations.run_prefetcher_ablation(seed=seed)
        serializer, formatter = (
            ablations.prefetcher_ablation_to_dict,
            ablations.format_prefetcher_ablation,
        )
    elif name == "replacement":
        result = ablations.run_replacement_ablation(seed=seed)
        serializer, formatter = (
            ablations.replacement_ablation_to_dict,
            ablations.format_replacement_ablation,
        )
    elif name == "migration":
        result = ablations.run_migration_experiment(seed=seed)
        serializer, formatter = (
            ablations.migration_experiment_to_dict,
            ablations.format_migration_experiment,
        )
    elif name == "value-size":
        result = ablations.run_value_size_ablation(seed=seed)
        serializer, formatter = (
            ablations.value_size_ablation_to_dict,
            ablations.format_value_size_ablation,
        )
    elif name == "mtu":
        result = ablations.run_mtu_eviction_experiment(seed=seed)
        serializer, formatter = (
            ablations.mtu_eviction_to_dict,
            ablations.format_mtu_eviction,
        )
    elif name == "rx-strategies":
        result = ablations.run_rx_strategy_comparison(seed=seed)
        serializer, formatter = (
            ablations.rx_strategies_to_dict,
            ablations.format_rx_strategies,
        )
    elif name == "multitenant":
        from repro.experiments.multitenant import (
            format_multitenant,
            multitenant_to_dict,
            run_multitenant_experiment,
        )

        result = run_multitenant_experiment(seed=seed)
        serializer, formatter = multitenant_to_dict, format_multitenant
    else:  # pragma: no cover - argparse restricts choices
        return 2
    if args.json:
        return _emit_json(serializer(result))
    print(formatter(result))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.chaos_command == "tail":
        from repro.experiments.chaos import (
            chaos_tail_to_dict,
            format_chaos_tail,
            run_chaos_tail,
        )

        result = run_chaos_tail(
            chain=args.chain,
            classes=args.classes or None,
            offered_gbps=args.offered,
            n_bulk_packets=args.bulk,
            micro_packets=args.micro,
            runs=args.runs,
            seed=args.seed,
            intensity=args.intensity,
        )
        if args.json:
            return _emit_json(chaos_tail_to_dict(result))
        print(format_chaos_tail(result))
        return 0
    if args.chaos_command == "knee":
        from repro.experiments.chaos import (
            degradation_knee_to_dict,
            format_degradation_knee,
            run_degradation_knee,
        )

        result = run_degradation_knee(
            fault_class=args.fault_class,
            chain=args.chain,
            offered_gbps=args.offered,
            intensities=args.intensities or None,
            n_bulk_packets=args.bulk,
            micro_packets=args.micro,
            seed=args.seed,
        )
        if args.json:
            return _emit_json(degradation_knee_to_dict(result))
        print(format_degradation_knee(result))
        return 0
    return _cmd_chaos_replay(args)


def _cmd_chaos_replay(args: argparse.Namespace) -> int:
    from repro.experiments.chaos import (
        chaos_tail_to_dict,
        degradation_knee_to_dict,
        run_chaos_tail,
        run_degradation_knee,
    )

    return _replay_artifact(
        args,
        "chaos",
        {
            "chaos-tail": (run_chaos_tail, chaos_tail_to_dict),
            "degradation-knee": (run_degradation_knee, degradation_knee_to_dict),
        },
        kinds="chaos-tail/degradation-knee",
    )


def _replay_artifact(
    args: argparse.Namespace,
    command: str,
    replayable: Mapping[str, Tuple[Callable[..., Any], Callable[[Any], Any]]],
    kinds: str,
) -> int:
    """Re-run a persisted artifact from its own fault plans.

    The replay feeds the artifact's persisted FaultPlan JSON back into
    the experiment (``plans`` override) at the artifact's parameters
    and seed, then requires the reproduced payload to be bit-identical:
    exit 0 if it is, 1 if not (naming each differing top-level key),
    2 for an artifact of a kind not in *replayable*.
    """
    artifact = json.loads(Path(args.artifact).read_text())
    name = artifact.get("name")
    if name not in replayable:
        print(
            f"{command} replay: {args.artifact} is a {name!r} artifact, not {kinds}",
            file=sys.stderr,
        )
        return 2
    runner, serializer = replayable[name]
    persisted = artifact["result"]
    kwargs = dict(artifact.get("params") or {})
    # Artifacts from before the chaos runners lost their ``engine``
    # argument persist ``"engine": "fast"``, the only engine there is
    # (and the only value the fleet runners accept).
    kwargs.pop("engine", None)
    if artifact.get("seed") is not None:
        kwargs.setdefault("seed", artifact["seed"])
    kwargs["plans"] = persisted["plans"]
    replayed = serializer(runner(**kwargs))
    original = json.dumps(persisted, sort_keys=True)
    reproduced = json.dumps(replayed, sort_keys=True)
    if original == reproduced:
        print(f"replay of {name} from {args.artifact}: bit-identical")
        return 0
    print(
        f"replay of {name} from {args.artifact}: MISMATCH "
        f"({len(original)} vs {len(reproduced)} canonical bytes)",
        file=sys.stderr,
    )
    for key in sorted(set(persisted) | set(replayed)):
        a = json.dumps(persisted.get(key), sort_keys=True)
        b = json.dumps(replayed.get(key), sort_keys=True)
        if a != b:
            print(f"  differs at top-level key {key!r}", file=sys.stderr)
    return 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    if args.fleet_command == "scale":
        from repro.experiments.fleet import (
            fleet_scale_to_dict,
            format_fleet_scale,
            run_fleet_scale,
        )

        result = run_fleet_scale(
            server_counts=args.servers or None,
            tenant_counts=args.tenants or None,
            requests=args.requests,
            warmup=args.warmup,
            n_keys=args.keys,
            offered_mrps=args.offered,
            epoch_requests=args.epoch,
            seed=args.seed,
        )
        if args.json:
            return _emit_json(fleet_scale_to_dict(result))
        print(format_fleet_scale(result))
        return 0
    if args.fleet_command == "failover":
        from repro.experiments.fleet import (
            fleet_failover_to_dict,
            format_fleet_failover,
            run_fleet_failover,
        )

        result = run_fleet_failover(
            intensities=args.intensities or None,
            n_servers=args.servers,
            n_tenants=args.tenants,
            requests=args.requests,
            warmup=args.warmup,
            n_keys=args.keys,
            offered_mrps=args.offered,
            epoch_requests=args.epoch,
            seed=args.seed,
        )
        if args.json:
            return _emit_json(fleet_failover_to_dict(result))
        print(format_fleet_failover(result))
        return 0
    if args.fleet_command == "availability":
        from repro.experiments.fleet import (
            fleet_availability_to_dict,
            format_fleet_availability,
            run_fleet_availability,
        )

        result = run_fleet_availability(
            intensities=args.intensities or None,
            n_servers=args.servers,
            n_tenants=args.tenants,
            requests=args.requests,
            warmup=args.warmup,
            n_keys=args.keys,
            offered_mrps=args.offered,
            epoch_requests=args.epoch,
            seed=args.seed,
        )
        if args.json:
            return _emit_json(fleet_availability_to_dict(result))
        print(format_fleet_availability(result))
        return 0
    if args.fleet_command == "durability":
        from repro.experiments.fleet import (
            fleet_durability_to_dict,
            format_fleet_durability,
            run_fleet_durability,
        )

        result = run_fleet_durability(
            replications=args.replications or None,
            intensities=args.intensities or None,
            n_servers=args.servers,
            n_tenants=args.tenants,
            requests=args.requests,
            warmup=args.warmup,
            n_keys=args.keys,
            offered_mrps=args.offered,
            epoch_requests=args.epoch,
            seed=args.seed,
        )
        if args.json:
            return _emit_json(fleet_durability_to_dict(result))
        print(format_fleet_durability(result))
        return 0
    return _cmd_fleet_replay(args)


def _cmd_fleet_replay(args: argparse.Namespace) -> int:
    from repro.experiments.fleet import (
        fleet_availability_to_dict,
        fleet_durability_to_dict,
        fleet_failover_to_dict,
        run_fleet_availability,
        run_fleet_durability,
        run_fleet_failover,
    )

    replayable = {
        "fleet-failover": (run_fleet_failover, fleet_failover_to_dict),
        "fleet-availability": (run_fleet_availability, fleet_availability_to_dict),
        "fleet-durability": (run_fleet_durability, fleet_durability_to_dict),
    }
    return _replay_artifact(
        args, "fleet", replayable, kinds=f"one of {sorted(replayable)}"
    )


def _check_paths(args: argparse.Namespace) -> Tuple[List[Path], Path]:
    """What ``repro check``/``deepcheck`` scan, and the report root.

    With no paths given, the installed repro package itself, so both
    work from any working directory.
    """
    if args.paths:
        return [Path(p) for p in args.paths], Path.cwd()
    pkg = Path(__file__).resolve().parent
    return [pkg], pkg.parent


def _rule_codes(text: str) -> Set[str]:
    return {code.strip() for code in text.split(",") if code.strip()}


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis.simcheck import RULES, format_result, run_simcheck

    if args.list_rules:
        for code in sorted(RULES):
            print(f"{code}  {RULES[code]}")
        return 0
    paths, root = _check_paths(args)
    result = run_simcheck(
        paths, root=root, select=args.select, exclude=args.exclude_rules
    )
    mode = "json" if args.json else ("github" if args.github else "text")
    print(format_result(result, mode))
    return 1 if result.active else 0


def _cmd_deepcheck_graph(args: argparse.Namespace) -> int:
    from repro.analysis.simcheck import run_simcheck

    paths, root = _check_paths(args)
    graph = run_simcheck(paths, root=root).graph
    if args.pattern is None:
        summary = {
            "files": graph.files,
            "functions": len(graph.functions),
            "edges": graph.n_edges(),
            "entry_points": len(graph.entry_points),
        }
        if args.json:
            return _emit_json(summary)
        print(
            f"deepcheck graph: {summary['files']} files, "
            f"{summary['functions']} functions, {summary['edges']} edges, "
            f"{summary['entry_points']} registry entry points"
        )
        return 0
    matches = graph.find(args.pattern)
    if not matches:
        print(f"deepcheck: no function matches {args.pattern!r}", file=sys.stderr)
        return 1
    payload = [
        {
            "node_id": node_id,
            "path": graph.functions[node_id].rel,
            "line": graph.functions[node_id].line,
            "callees": sorted({s.callee for s in graph.callees_of(node_id)}),
            "callers": graph.callers_of(node_id),
        }
        for node_id in matches
    ]
    if args.json:
        return _emit_json(payload)
    for entry in payload:
        print(f"{entry['node_id']}  ({entry['path']}:{entry['line']})")
        for caller in entry["callers"]:
            print(f"  <- {caller}")
        for callee in entry["callees"]:
            print(f"  -> {callee}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Make the Most out of Last Level Cache in "
            "Intel Processors' (EuroSys '19) — run any paper experiment."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="per-slice access latency (Figs. 5/16)")
    p.add_argument("--machine", choices=sorted(MACHINES), default="haswell")
    p.add_argument("--core", type=int, default=0)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit the JSON payload")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("recover-hash", help="reverse-engineer the hash (Fig. 4)")
    p.add_argument("--verify", type=int, default=256, help="verification sweep size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit the JSON payload")
    p.set_defaults(func=_cmd_recover_hash)

    p = sub.add_parser("table", help="print a paper table")
    p.add_argument("number", type=int, choices=(1, 2, 3, 4))
    p.add_argument(
        "--bulk", type=int, default=20_000, help="table 3: bulk packets per arm"
    )
    p.add_argument(
        "--micro", type=int, default=500, help="table 3: microsim packets"
    )
    p.add_argument("--runs", type=int, default=1, help="table 3: runs per arm")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit the JSON payload")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("fig", help="run a paper figure's experiment")
    p.add_argument("number", type=int, choices=(1, 4, 5, 6, 7, 8, 12, 13, 14, 15, 16, 17))
    p.add_argument("--ops", type=int, default=3000, help="ops/packets per run")
    p.add_argument("--runs", type=int, default=2)
    p.add_argument("--warmup", type=int, default=60_000, help="KVS warm-up requests")
    p.add_argument("--offered", type=float, default=100.0, help="offered load (Gbps)")
    p.add_argument("--bulk", type=int, default=150_000, help="bulk packets per run")
    p.add_argument("--micro", type=int, default=2500, help="microsim packets")
    p.add_argument("--verify", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit the JSON payload")
    p.set_defaults(func=_cmd_fig)

    p = sub.add_parser("headroom", help="dynamic headroom distribution (§4.2)")
    p.add_argument("--packets", type=int, default=8000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit the JSON payload")
    p.set_defaults(func=_cmd_headroom)

    p = sub.add_parser("ablation", help="run a design ablation")
    p.add_argument(
        "which",
        choices=(
            "ddio",
            "prefetcher",
            "replacement",
            "migration",
            "value-size",
            "mtu",
            "rx-strategies",
            "multitenant",
        ),
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit the JSON payload")
    p.set_defaults(func=_cmd_ablation)

    p = sub.add_parser(
        "chaos", help="fault-injection experiments (tail/knee/replay)"
    )
    chaos_sub = p.add_subparsers(dest="chaos_command", required=True)

    q = chaos_sub.add_parser("tail", help="tail latency per fault class")
    q.add_argument("--chain", choices=("forwarding", "stateful"), default="forwarding")
    q.add_argument("--classes", nargs="*", default=None, help="fault classes")
    q.add_argument("--offered", type=float, default=100.0, help="offered load (Gbps)")
    q.add_argument("--bulk", type=int, default=60_000, help="bulk packets per run")
    q.add_argument("--micro", type=int, default=1500, help="microsim packets")
    q.add_argument("--runs", type=int, default=2)
    q.add_argument("--intensity", type=float, default=1.0, help="rate multiplier")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--json", action="store_true", help="emit the JSON payload")
    q.set_defaults(func=_cmd_chaos)

    q = chaos_sub.add_parser("knee", help="goodput vs fault intensity")
    q.add_argument("--fault-class", default="mixed", dest="fault_class")
    q.add_argument("--chain", choices=("forwarding", "stateful"), default="stateful")
    q.add_argument("--offered", type=float, default=40.0, help="offered load (Gbps)")
    q.add_argument(
        "--intensities", nargs="*", type=float, default=None, help="sweep grid"
    )
    q.add_argument("--bulk", type=int, default=60_000, help="bulk packets per run")
    q.add_argument("--micro", type=int, default=1500, help="microsim packets")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--json", action="store_true", help="emit the JSON payload")
    q.set_defaults(func=_cmd_chaos)

    q = chaos_sub.add_parser(
        "replay", help="re-run a persisted chaos artifact; verify bit-identity"
    )
    q.add_argument("artifact", help="chaos-tail.json / degradation-knee.json")
    q.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "fleet",
        help=(
            "cluster-scale serving simulation "
            "(scale/failover/availability/durability/replay)"
        ),
    )
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)

    q = fleet_sub.add_parser("scale", help="goodput/tails vs servers × tenants")
    q.add_argument("--servers", nargs="*", type=int, default=None, help="server grid")
    q.add_argument("--tenants", nargs="*", type=int, default=None, help="tenant grid")
    q.add_argument("--requests", type=int, default=20_000, help="requests per cell")
    q.add_argument("--warmup", type=int, default=4_000, help="warmup requests")
    q.add_argument("--keys", type=int, default=1 << 12, help="keys per tenant")
    q.add_argument("--offered", type=float, default=16.0, help="offered load (Mrps)")
    q.add_argument("--epoch", type=int, default=2_000, help="requests per epoch")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--json", action="store_true", help="emit the JSON payload")
    q.set_defaults(func=_cmd_fleet)

    q = fleet_sub.add_parser(
        "failover", help="tail inflation/recovery under server kills"
    )
    q.add_argument(
        "--intensities", nargs="*", type=float, default=None, help="sweep grid"
    )
    q.add_argument("--servers", type=int, default=4, help="fleet size")
    q.add_argument("--tenants", type=int, default=4, help="tenants")
    q.add_argument("--requests", type=int, default=20_000, help="requests per point")
    q.add_argument("--warmup", type=int, default=4_000, help="warmup requests")
    q.add_argument("--keys", type=int, default=1 << 12, help="keys per tenant")
    q.add_argument("--offered", type=float, default=16.0, help="offered load (Mrps)")
    q.add_argument("--epoch", type=int, default=2_000, help="requests per epoch")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--json", action="store_true", help="emit the JSON payload")
    q.set_defaults(func=_cmd_fleet)

    q = fleet_sub.add_parser(
        "availability",
        help="unavailability/recovery under kill+stall chaos (self-healing)",
    )
    q.add_argument(
        "--intensities", nargs="*", type=float, default=None, help="sweep grid"
    )
    q.add_argument("--servers", type=int, default=6, help="fleet size")
    q.add_argument("--tenants", type=int, default=4, help="tenants")
    q.add_argument("--requests", type=int, default=20_000, help="requests per point")
    q.add_argument("--warmup", type=int, default=4_000, help="warmup requests")
    q.add_argument("--keys", type=int, default=1 << 12, help="keys per tenant")
    q.add_argument("--offered", type=float, default=16.0, help="offered load (Mrps)")
    q.add_argument("--epoch", type=int, default=1_000, help="requests per epoch")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--json", action="store_true", help="emit the JSON payload")
    q.set_defaults(func=_cmd_fleet)

    q = fleet_sub.add_parser(
        "durability",
        help="lost keys vs replication factor × permanent-kill intensity",
    )
    q.add_argument(
        "--replications", nargs="*", type=int, default=None, help="R values"
    )
    q.add_argument(
        "--intensities", nargs="*", type=float, default=None, help="sweep grid"
    )
    q.add_argument("--servers", type=int, default=5, help="fleet size")
    q.add_argument("--tenants", type=int, default=2, help="tenants")
    q.add_argument("--requests", type=int, default=20_000, help="requests per point")
    q.add_argument("--warmup", type=int, default=4_000, help="warmup requests")
    q.add_argument("--keys", type=int, default=1 << 12, help="keys per tenant")
    q.add_argument("--offered", type=float, default=16.0, help="offered load (Mrps)")
    q.add_argument("--epoch", type=int, default=2_000, help="requests per epoch")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--json", action="store_true", help="emit the JSON payload")
    q.set_defaults(func=_cmd_fleet)

    q = fleet_sub.add_parser(
        "replay",
        help=(
            "re-run a persisted fleet-failover/availability/durability "
            "artifact; verify bit-identity"
        ),
    )
    q.add_argument("artifact", help="fleet-*.json artifact")
    q.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "check", help="static analysis: the SIM and FLOW rules (simcheck)"
    )
    p.add_argument(
        "paths", nargs="*", help="files or directories (default: the repro package)"
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--github", action="store_true", help="GitHub Actions annotations"
    )
    p.add_argument(
        "--select",
        "--rules",
        dest="select",
        type=_rule_codes,
        default=None,
        help="comma-separated rule codes to run",
    )
    p.add_argument(
        "--exclude-rules",
        dest="exclude_rules",
        type=_rule_codes,
        default=None,
        help="comma-separated rule codes to skip",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("deepcheck", help="query the whole-program call graph")
    deep_sub = p.add_subparsers(dest="deepcheck_command", required=True)
    q = deep_sub.add_parser(
        "graph", help="call-graph stats, or one symbol's edges"
    )
    q.add_argument(
        "paths", nargs="*", help="files or directories (default: the repro package)"
    )
    q.add_argument("--json", action="store_true", help="machine-readable output")
    q.add_argument("--pattern", default=None, help="show edges of matching functions")
    q.set_defaults(func=_cmd_deepcheck_graph)

    from repro.lab.cli import add_lab_parser

    add_lab_parser(sub)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — fine.
        try:
            sys.stdout.close()
        except OSError:
            # Closing a broken pipe may itself fail; nothing to do.
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
