"""Compare two sweeps of the benchmark, one verdict per workload x metric.

Usage, from the repository root::

    python3 e2ebench/compare.py BASE.json NEW.json

Each file is what ``e2ebench/sweep.py --out`` writes: per workload, the
result of every run.  For each end-to-end metric in ``BENCHMARK.json``
the verdict compares the two medians against the metric's bound:

* ``better`` / ``worse``: NEW's median moved past the bound;
* ``within``: it moved by no more than the bound;
* ``unresolved``: either side's spread (interquartile range over its
  median) exceeds the bound and the two sets of runs overlap, so the
  runs cannot tell the sides apart.

Exit status: 1 on any ``worse`` verdict or when NEW failed a larger
share of its reps than BASE, 2 on unreadable input, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """``(verdict, change)``; *change* is NEW's median over BASE's, minus 1."""
    base_median = statistics.median(base)
    change = statistics.median(new) / base_median - 1.0 if base_median else 0.0
    worse_by = change if better == "lower" else -change
    overlap = max(base) >= min(new) and max(new) >= min(base)
    if overlap and max(spread(base), spread(new)) > bound:
        return "unresolved", change
    if worse_by > bound:
        return "worse", change
    if worse_by < -bound:
        return "better", change
    return "within", change


def failed_fraction(runs: Sequence[Mapping[str, Any]]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 1.0


def compare(
    base: Mapping[str, Any], new: Mapping[str, Any], benchmark: Mapping[str, Any]
) -> Tuple[List[Dict[str, Any]], bool]:
    """Verdict rows for every shared workload, and whether NEW regressed."""
    rows: List[Dict[str, Any]] = []
    regressed = False
    for workload in (w["name"] for w in benchmark["workloads"]):
        base_runs = base["runs"].get(workload)
        new_runs = new["runs"].get(workload)
        if not base_runs or not new_runs:
            continue
        base_failed, new_failed = failed_fraction(base_runs), failed_fraction(new_runs)
        if new_failed > base_failed:
            regressed = True
        rows.append({
            "workload": workload, "metric": "failed_fraction",
            "base": base_failed, "new": new_failed,
            "verdict": "worse" if new_failed > base_failed else "within", "change": None,
        })
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            base_values = [run["metrics"][name]["value"] for run in base_runs
                           if name in run["metrics"]]
            new_values = [run["metrics"][name]["value"] for run in new_runs
                          if name in run["metrics"]]
            if not base_values or not new_values:
                continue
            result, change = verdict(base_values, new_values, metric["better"], metric["bound"])
            regressed = regressed or result == "worse"
            rows.append({
                "workload": workload, "metric": name,
                "base": statistics.median(base_values), "new": statistics.median(new_values),
                "base_spread": spread(base_values), "new_spread": spread(new_values),
                "bound": metric["bound"], "verdict": result, "change": change,
            })
    return rows, regressed


def format_rows(rows: Sequence[Mapping[str, Any]]) -> str:
    out = [f"{'workload':<12} {'metric':<20} {'base':>12} {'new':>12} "
           f"{'change':>8} {'spreads':>13} {'bound':>6}  verdict"]
    for row in rows:
        change = "" if row["change"] is None else f"{100 * row['change']:+.1f}%"
        spreads = (f"{100 * row['base_spread']:.1f}/{100 * row['new_spread']:.1f}%"
                   if "base_spread" in row else "")
        bound = f"{100 * row['bound']:.0f}%" if "bound" in row else ""
        out.append(f"{row['workload']:<12} {row['metric']:<20} {row['base']:>12.6g} "
                   f"{row['new']:>12.6g} {change:>8} {spreads:>13} {bound:>6}  {row['verdict']}")
    return "\n".join(out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark sweeps.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    try:
        base = json.loads(args.base.read_text())
        new = json.loads(args.new.read_text())
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        rows, regressed = compare(base, new, benchmark)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    print(format_rows(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
