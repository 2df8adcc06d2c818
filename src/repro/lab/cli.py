"""``repro lab`` subcommands: list, run, compare, report."""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List

from repro.lab.compare import (
    compare_runs,
    format_comparison_report,
    load_baseline,
)
from repro.lab.registry import default_registry
from repro.lab.runner import run_matrix
from repro.lab.store import RunStore, load_run


def _cmd_lab_list(args: argparse.Namespace) -> int:
    registry = default_registry()
    names = registry.names(tag=args.tag)
    if args.json:
        payload = []
        for name in names:
            spec = registry.get(name)
            payload.append(
                {
                    "name": spec.name,
                    "title": spec.title,
                    "seeded": spec.seeded,
                    "parallel_split": spec.split is not None,
                    "tags": list(spec.tags),
                    "default_params": dict(spec.default_params),
                    "reduced_params": dict(spec.reduced_params),
                }
            )
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{len(names)} registered experiments:")
    for name in names:
        spec = registry.get(name)
        split = " [split]" if spec.split is not None else ""
        tags = f" ({', '.join(spec.tags)})" if spec.tags else ""
        print(f"  {name:<22} {spec.title}{split}{tags}")
    return 0


def _claim_tally(verdicts: List[Dict[str, str]]) -> str:
    """``held/checked`` for one experiment's claim verdicts."""
    if not verdicts:
        return "-"
    held = sum(v["verdict"] == "held" for v in verdicts)
    return f"{held}/{len(verdicts)}"


def _cmd_lab_run(args: argparse.Namespace) -> int:
    if not args.names and not args.all:
        print("lab run: give experiment names or --all", file=sys.stderr)
        return 2
    names = None if args.all else args.names
    out_dir = args.out or time.strftime("lab-runs/%Y%m%d-%H%M%S")  # simcheck: ignore[SIM001] run-directory name, not a result
    progress = None if args.quiet else (lambda line: print(line, file=sys.stderr))
    report = run_matrix(
        names,
        jobs=args.jobs,
        seed=args.seed,
        scale=args.scale,
        timeout_s=args.timeout,
        retries=args.retries,
        progress=progress,
    )
    manifest_path = RunStore(out_dir).write_report(report)
    print(f"run: seed={report.seed} scale={report.scale} jobs={report.jobs} "
          f"wall={report.wall_clock_s:.1f}s")
    print("experiment             | status | tasks | attempts | seconds | claims")
    for name in sorted(report.experiments):
        e = report.experiments[name]
        print(
            f"{name:<22} | {e.status:<6} | {e.tasks:>5} | {e.attempts:>8} "
            f"| {e.duration_s:>7.1f} | {_claim_tally(e.claims)}"
        )
    verdicts = [v for e in report.experiments.values() for v in e.claims]
    if verdicts:
        print(f"claims: {_claim_tally(verdicts)} held")
    failed = report.failed_names()
    if failed:
        for name in failed:
            print(f"FAILED {name}: {report.experiments[name].error}", file=sys.stderr)
        print(
            f"lab run: {len(failed)} experiment(s) failed: "
            f"{', '.join(failed)} — exiting nonzero",
            file=sys.stderr,
        )
    print(f"wrote {manifest_path}")
    return 0 if report.ok else 1


def _cmd_lab_compare(args: argparse.Namespace) -> int:
    run = load_run(args.run_dir)
    baseline = load_baseline(args.baseline)
    report = compare_runs(
        run,
        baseline,
        rel_tol=args.rel_tol,
        names=args.names or None,
    )
    if args.json:
        payload: Dict[str, Any] = {
            "ok": report.ok,
            "experiments": [
                {
                    "name": e.name,
                    "status": e.status,
                    "compared": e.compared,
                    "violations": [
                        {
                            "metric": v.metric,
                            "run": v.run_value,
                            "baseline": v.baseline_value,
                            "rel_delta": v.rel_delta,
                            "tolerance_kind": v.tolerance_kind,
                            "tolerance": v.tolerance,
                        }
                        for v in e.violations
                    ],
                    "missing_in_run": e.missing_in_run,
                    "missing_in_baseline": e.missing_in_baseline,
                }
                for e in report.experiments
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(format_comparison_report(report, verbose=args.verbose))
    if not report.ok:
        return 1
    if args.strict and any(
        e.status in ("missing-run", "no-overlap") for e in report.experiments
    ):
        return 1
    return 0


def _cmd_lab_report(args: argparse.Namespace) -> int:
    run = load_run(args.run_dir)
    if args.json:
        print(json.dumps(run, indent=2, sort_keys=True))
        return 0
    manifest = run["manifest"]
    env = manifest.get("environment", {})
    print(
        f"lab run {args.run_dir}: seed={manifest.get('seed')} "
        f"scale={manifest.get('scale')} jobs={manifest.get('jobs')} "
        f"wall={manifest.get('wall_clock_s')}s "
        f"ok={manifest.get('ok')}"
    )
    print(
        f"environment: python {env.get('python')} on {env.get('hostname')} "
        f"(git {str(env.get('git_sha'))[:12]})"
    )
    print("experiment             | status | tasks | attempts | seconds | artifact")
    for name, entry in sorted(manifest.get("experiments", {}).items()):
        print(
            f"{name:<22} | {entry.get('status'):<6} | {entry.get('tasks'):>5} "
            f"| {entry.get('attempts'):>8} | {entry.get('duration_s'):>7} "
            f"| {entry.get('artifact') or '-'}"
        )
        if entry.get("status") != "ok":
            print(f"    error: {entry.get('error')}")
        for verdict in entry.get("claims", []):
            print(f"    [{verdict['verdict']}] {verdict['ref']}: {verdict['text']}")
    return 0 if manifest.get("ok") else 1


def add_lab_parser(sub: argparse._SubParsersAction) -> None:
    """Attach the ``lab`` subcommand tree to the main CLI."""
    p = sub.add_parser(
        "lab",
        help="orchestrate the experiment matrix (run/compare/report)",
    )
    lab_sub = p.add_subparsers(dest="lab_command", required=True)

    q = lab_sub.add_parser("list", help="list registered experiments")
    q.add_argument("--tag", default=None, help="filter by tag (sweep, extension)")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_lab_list)

    q = lab_sub.add_parser("run", help="run experiments in parallel")
    q.add_argument("names", nargs="*", help="experiment names (see `lab list`)")
    q.add_argument("--all", action="store_true", help="run the whole registry")
    q.add_argument("--jobs", type=int, default=1, help="worker processes")
    q.add_argument("--seed", type=int, default=0, help="base seed")
    q.add_argument("--scale", choices=("reduced", "full"), default="reduced")
    q.add_argument("--out", default=None, help="run directory (default lab-runs/<ts>)")
    q.add_argument("--timeout", type=float, default=None, help="per-task seconds")
    q.add_argument("--retries", type=int, default=2, help="retries per task")
    q.add_argument("--quiet", action="store_true", help="suppress task progress")
    q.set_defaults(func=_cmd_lab_run)

    q = lab_sub.add_parser("compare", help="diff a run against a baseline")
    q.add_argument("run_dir", help="run directory (with manifest.json)")
    q.add_argument("baseline", help="other run directory or tests/golden/")
    q.add_argument("--names", nargs="*", default=None, help="restrict to experiments")
    q.add_argument("--rel-tol", type=float, default=None, help="override tolerance")
    q.add_argument("--verbose", action="store_true", help="show all violations")
    q.add_argument(
        "--strict",
        action="store_true",
        help="also fail on experiments missing from the run",
    )
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_lab_compare)

    q = lab_sub.add_parser("report", help="summarize a stored run")
    q.add_argument("run_dir", help="run directory (with manifest.json)")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_lab_report)
