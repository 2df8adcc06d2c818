"""Comparing lab runs: per-metric tolerance diffs and a pass/regress table.

A "baseline" is either another lab run directory (``manifest.json`` +
artifacts) or the repo's ``tests/golden/`` directory, which
:func:`load_baseline` adapts into the same shape.  Comparison flattens
each experiment's result payload into dotted metric paths
(``dpdk.summary.percentiles.p95``), diffs metrics present on *both*
sides against a relative (or absolute) tolerance, and reports metrics
present on only one side as informational — only tolerance violations
on shared metrics regress the run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.lab.registry import default_registry
from repro.lab.store import load_run

Number = Union[int, float]


def flatten_metrics(payload: Any, prefix: str = "") -> Dict[str, Any]:
    """Flatten nested dicts/lists into ``{"a.b.0.c": leaf}`` paths."""
    out: Dict[str, Any] = {}
    if isinstance(payload, Mapping):
        for key in payload:
            sub_prefix = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_metrics(payload[key], sub_prefix))
    elif isinstance(payload, (list, tuple)):
        for i, item in enumerate(payload):
            sub_prefix = f"{prefix}.{i}" if prefix else str(i)
            out.update(flatten_metrics(item, sub_prefix))
    else:
        out[prefix] = payload
    return out


@dataclass
class MetricDiff:
    """One shared metric compared across the two sides."""

    metric: str
    run_value: Any
    baseline_value: Any
    delta: Optional[float]       # absolute difference (numeric metrics)
    rel_delta: Optional[float]   # |a-b| / max(|a|,|b|) (numeric metrics)
    tolerance_kind: str          # "rel" | "abs" | "exact"
    tolerance: Optional[float]
    ok: bool


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _tolerance_for(
    metric: str,
    tolerances: Mapping[str, Mapping[str, float]],
    rel_tol: float,
) -> Tuple[str, float]:
    """Longest matching metric-prefix override, else the default rel."""
    best: Optional[Tuple[str, Mapping[str, float]]] = None
    for prefix, tol in tolerances.items():
        if metric == prefix or metric.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, tol)
    if best is not None:
        tol = best[1]
        if "abs" in tol:
            return "abs", float(tol["abs"])
        if "rel" in tol:
            return "rel", float(tol["rel"])
    return "rel", rel_tol


def _diff_metric(
    metric: str,
    run_value: Any,
    baseline_value: Any,
    tolerances: Mapping[str, Mapping[str, float]],
    rel_tol: float,
) -> MetricDiff:
    if _is_number(run_value) and _is_number(baseline_value):
        a, b = float(run_value), float(baseline_value)
        delta = abs(a - b)
        scale = max(abs(a), abs(b))
        rel_delta = 0.0 if scale == 0.0 else delta / scale
        if math.isnan(a) or math.isnan(b):
            ok = math.isnan(a) and math.isnan(b)
            return MetricDiff(metric, run_value, baseline_value, None, None, "exact", None, ok)
        kind, tol = _tolerance_for(metric, tolerances, rel_tol)
        ok = delta <= tol if kind == "abs" else rel_delta <= tol
        return MetricDiff(metric, run_value, baseline_value, delta, rel_delta, kind, tol, ok)
    # Non-numeric (strings, bools, None): exact match.
    return MetricDiff(
        metric,
        run_value,
        baseline_value,
        None,
        None,
        "exact",
        None,
        run_value == baseline_value,
    )


def compare_payloads(
    run_payload: Any,
    baseline_payload: Any,
    *,
    rel_tol: float = 1e-6,
    tolerances: Optional[Mapping[str, Mapping[str, float]]] = None,
) -> Tuple[List[MetricDiff], List[str], List[str]]:
    """Diff two result payloads.

    Returns ``(diffs, missing_in_run, missing_in_baseline)`` where the
    diffs cover metrics present on both sides and the missing lists
    name metrics present on only one.
    """
    tolerances = tolerances or {}
    run_metrics = flatten_metrics(run_payload)
    baseline_metrics = flatten_metrics(baseline_payload)
    shared = sorted(set(run_metrics) & set(baseline_metrics))
    diffs = [
        _diff_metric(m, run_metrics[m], baseline_metrics[m], tolerances, rel_tol)
        for m in shared
    ]
    missing_in_run = sorted(set(baseline_metrics) - set(run_metrics))
    missing_in_baseline = sorted(set(run_metrics) - set(baseline_metrics))
    return diffs, missing_in_run, missing_in_baseline


@dataclass
class ExperimentComparison:
    """Comparison verdict for one experiment name."""

    name: str
    status: str  # "ok" | "regress" | "missing-run" | "missing-baseline" | "no-overlap"
    compared: int = 0
    violations: List[MetricDiff] = field(default_factory=list)
    missing_in_run: List[str] = field(default_factory=list)
    missing_in_baseline: List[str] = field(default_factory=list)
    rel_tol: float = 1e-6

    @property
    def worst(self) -> Optional[MetricDiff]:
        numeric = [v for v in self.violations if v.rel_delta is not None]
        if numeric:
            return max(numeric, key=lambda v: v.rel_delta)
        return self.violations[0] if self.violations else None


@dataclass
class ComparisonReport:
    """All per-experiment verdicts for one run-vs-baseline comparison."""

    run_label: str
    baseline_label: str
    experiments: List[ExperimentComparison] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(e.status == "regress" for e in self.experiments)


# ----------------------------------------------------------------------
# Baseline loading (lab runs and tests/golden adapters)
# ----------------------------------------------------------------------

#: golden file -> (experiment name, result-field extractor, tolerances)
_GOLDEN_ADAPTERS = {
    "fig05_latency.json": (
        "fig05",
        ("read_cycles", "write_cycles", "fastest_slice", "read_spread"),
    ),
    "fig06_speedup.json": (
        "fig06",
        (
            "read_speedup_pct",
            "write_speedup_pct",
            "normal_read_cycles",
            "normal_write_cycles",
        ),
    ),
    "fig07_ops_sweep.json": (
        "fig07",
        ("sizes", "normal_mops", "slice_mops"),
    ),
    "fig08_kvs.json": (
        "fig08",
        ("tps_millions", "cycles_per_request"),
    ),
    "table3_throughput.json": (
        "table3",
        ("rows",),
    ),
    "table4_preferable_slices.json": (
        "table4",
        ("machine", "preferable"),
    ),
    "fleet_scale.json": (
        "fleet-scale",
        ("server_counts", "tenant_counts", "offered_mrps", "cells"),
    ),
    "fleet_failover.json": (
        "fleet-failover",
        ("intensities", "plans", "points"),
    ),
    "fleet_availability.json": (
        "fleet-availability",
        ("intensities", "healing", "plans", "points"),
    ),
    "fleet_durability.json": (
        "fleet-durability",
        ("replications", "intensities", "healing", "plans", "points"),
    ),
}


def _load_golden_dir(root: Path) -> Dict[str, Any]:
    """Adapt a ``tests/golden/`` directory into the run shape."""
    experiments: Dict[str, Any] = {}
    for filename, (name, fields) in _GOLDEN_ADAPTERS.items():
        path = root / filename
        if not path.is_file():
            continue
        data = json.loads(path.read_text())
        tolerances: Dict[str, Dict[str, float]] = {}
        if "abs_tol_pct" in data:
            # The fig06 golden bounds the speedup percentages by an
            # absolute percentage-point budget.
            for metric in ("read_speedup_pct", "write_speedup_pct"):
                tolerances[metric] = {"abs": float(data["abs_tol_pct"])}
        record: Dict[str, Any] = {
            "name": name,
            "params": data.get("params", {}),
            "result": {key: data[key] for key in fields if key in data},
        }
        if "rel_tol" in data:
            record["rel_tol"] = float(data["rel_tol"])
        if tolerances:
            record["tolerances"] = tolerances
        experiments[name] = record
    if not experiments:
        raise FileNotFoundError(
            f"{root} has neither a manifest.json nor known golden files"
        )
    return {
        "manifest": {"kind": "golden-baseline", "path": str(root)},
        "experiments": experiments,
    }


def load_baseline(path: Union[str, Path]) -> Dict[str, Any]:
    """Load *path* as a lab run, or adapt it as a golden directory."""
    root = Path(path)
    if (root / "manifest.json").is_file():
        return load_run(root)
    return _load_golden_dir(root)


def compare_runs(
    run: Mapping[str, Any],
    baseline: Mapping[str, Any],
    *,
    rel_tol: Optional[float] = None,
    names: Optional[List[str]] = None,
) -> ComparisonReport:
    """Compare a loaded run against a loaded baseline.

    Per-experiment tolerances resolve in priority order: an explicit
    ``rel_tol`` argument, the baseline record's own ``rel_tol``/
    ``tolerances`` (golden files carry these), the registered spec's
    tolerances, then 1e-6.
    """
    registry = default_registry()
    run_experiments = run.get("experiments", {})
    baseline_experiments = baseline.get("experiments", {})
    selected = names or sorted(set(run_experiments) | set(baseline_experiments))
    report = ComparisonReport(
        run_label=str(run.get("manifest", {}).get("kind", "run")),
        baseline_label=str(baseline.get("manifest", {}).get("kind", "baseline")),
    )
    for name in selected:
        in_run = name in run_experiments
        in_baseline = name in baseline_experiments
        if not in_run and not in_baseline:
            continue
        if not in_run:
            report.experiments.append(
                ExperimentComparison(name=name, status="missing-run")
            )
            continue
        if not in_baseline:
            report.experiments.append(
                ExperimentComparison(name=name, status="missing-baseline")
            )
            continue
        run_record = run_experiments[name]
        baseline_record = baseline_experiments[name]

        spec = registry.get(name) if name in registry else None
        effective_rel = 1e-6 if spec is None else spec.rel_tol
        tolerances: Dict[str, Mapping[str, float]] = {}
        if spec is not None:
            tolerances.update(spec.tolerances)
        if "rel_tol" in baseline_record:
            effective_rel = float(baseline_record["rel_tol"])
        if "tolerances" in baseline_record:
            tolerances.update(baseline_record["tolerances"])
        if rel_tol is not None:
            effective_rel = rel_tol

        diffs, missing_in_run, missing_in_baseline = compare_payloads(
            run_record.get("result"),
            baseline_record.get("result"),
            rel_tol=effective_rel,
            tolerances=tolerances,
        )
        violations = [d for d in diffs if not d.ok]
        if not diffs:
            status = "no-overlap"
        elif violations:
            status = "regress"
        else:
            status = "ok"
        report.experiments.append(
            ExperimentComparison(
                name=name,
                status=status,
                compared=len(diffs),
                violations=violations,
                missing_in_run=missing_in_run,
                missing_in_baseline=missing_in_baseline,
                rel_tol=effective_rel,
            )
        )
    return report


def format_comparison_report(report: ComparisonReport, *, verbose: bool = False) -> str:
    """Render the pass/regress table (plus violation details)."""
    out = [f"lab compare — run vs {report.baseline_label}"]
    out.append("experiment           | status           | compared | violations")
    for exp in report.experiments:
        out.append(
            f"{exp.name:<20} | {exp.status:<16} | {exp.compared:>8} "
            f"| {len(exp.violations):>10}"
        )
    for exp in report.experiments:
        if not exp.violations:
            continue
        shown = exp.violations if verbose else exp.violations[:5]
        for v in shown:
            bound = (
                f"|Δ| {v.delta:.6g} > abs {v.tolerance:g}"
                if v.tolerance_kind == "abs"
                else f"relΔ {v.rel_delta:.3e} > rel {v.tolerance:g}"
                if v.tolerance_kind == "rel"
                else "values differ"
            )
            out.append(
                f"  REGRESS {exp.name}.{v.metric}: run={v.run_value!r} "
                f"baseline={v.baseline_value!r} ({bound})"
            )
        if not verbose and len(exp.violations) > len(shown):
            out.append(
                f"  ... {len(exp.violations) - len(shown)} more violations "
                f"in {exp.name} (use --verbose)"
            )
    out.append("RESULT: " + ("PASS" if report.ok else "REGRESS"))
    return "\n".join(out)
