"""``repro deepcheck`` subcommands: report, graph."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.analysis.deepcheck.report import DEEP_RULES, analyze, format_report

__all__ = ["add_deepcheck_parser", "main"]


def _paths_and_root(args: argparse.Namespace) -> Tuple[List[Path], Path]:
    if args.paths:
        return [Path(p) for p in args.paths], Path.cwd()
    # Default to the installed repro package itself, so `repro
    # deepcheck` works from any working directory.
    pkg = Path(__file__).resolve().parent.parent.parent
    return [pkg], pkg.parent


def _cmd_report(args: argparse.Namespace) -> int:
    if args.list_rules:
        for code in sorted(DEEP_RULES):
            print(f"{code}  {DEEP_RULES[code]}")
        return 0
    paths, root = _paths_and_root(args)
    result = analyze(paths, root=root)
    mode = "json" if args.json else ("github" if args.github else "text")
    print(format_report(result, mode))
    return 1 if result.active else 0


def _cmd_graph(args: argparse.Namespace) -> int:
    paths, root = _paths_and_root(args)
    result = analyze(paths, root=root)
    graph = result.graph
    if args.pattern:
        matches = graph.find(args.pattern)
        if not matches:
            print(f"deepcheck: no function matches {args.pattern!r}",
                  file=sys.stderr)
            return 1
        payload = []
        for node_id in matches:
            fn = graph.functions[node_id]
            payload.append(
                {
                    "node_id": node_id,
                    "path": fn.rel,
                    "line": fn.line,
                    "callees": sorted(
                        {s.callee for s in graph.callees_of(node_id)}
                    ),
                    "callers": graph.callers_of(node_id),
                }
            )
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        for entry in payload:
            print(f"{entry['node_id']}  ({entry['path']}:{entry['line']})")
            for caller in entry["callers"]:
                print(f"  <- {caller}")
            for callee in entry["callees"]:
                print(f"  -> {callee}")
        return 0
    summary = result.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(
        f"deepcheck graph: {summary['files']} files, "
        f"{summary['functions']} functions, {summary['edges']} edges, "
        f"{summary['entry_points']} registry entry points"
    )
    return 0


def add_deepcheck_parser(sub: argparse._SubParsersAction) -> None:
    """Attach the ``deepcheck`` subcommand tree to the main CLI."""
    p = sub.add_parser(
        "deepcheck",
        help="whole-program seed-flow analysis over the call graph",
    )
    deep_sub = p.add_subparsers(dest="deepcheck_command", required=True)

    q = deep_sub.add_parser("report", help="run the FLOW rules, gate on findings")
    q.add_argument("paths", nargs="*", help="files/dirs (default: src/repro)")
    q.add_argument("--json", action="store_true", help="machine-readable output")
    q.add_argument("--github", action="store_true", help="GitHub annotations")
    q.add_argument("--list-rules", action="store_true", help="list deep rule codes")
    q.set_defaults(func=_cmd_report)

    q = deep_sub.add_parser("graph", help="call-graph stats or one symbol's edges")
    q.add_argument("paths", nargs="*", help="files/dirs (default: src/repro)")
    q.add_argument("--json", action="store_true", help="machine-readable output")
    q.add_argument("--pattern", default=None, help="show edges of matching functions")
    q.set_defaults(func=_cmd_graph)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``python -m repro.analysis.deepcheck.cli``)."""
    parser = argparse.ArgumentParser(
        prog="deepcheck",
        description="Whole-program seed-flow static analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_deepcheck_parser(sub)
    args = parser.parse_args(["deepcheck", *list(argv or sys.argv[1:])])
    return int(args.func(args))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
