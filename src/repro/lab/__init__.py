"""``repro.lab`` — parallel experiment orchestration with persisted results.

The lab turns the repo's one-figure-at-a-time entry points into a
declarative, runnable evaluation matrix:

* :mod:`repro.lab.spec` — the :class:`ExperimentSpec` declaration, the
  paper :class:`Claim` its payload must show, and the :class:`Registry`
  holding them.
* :mod:`repro.lab.registry` — the default registry covering every
  figure, table, headroom, and ablation entry point, each with its
  paper claims.
* :mod:`repro.lab.runner` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  matrix runner with per-task timeouts, bounded retries, sweep
  splitting, and a live progress reporter.
* :mod:`repro.lab.store` — one JSON artifact per experiment plus a
  run-level ``manifest.json``.
* :mod:`repro.lab.compare` — tolerance-based diffing of two runs (or a
  run against the ``tests/golden/`` baselines).

CLI: ``python -m repro lab list|run|compare|report``.
"""

from repro.lab.compare import (
    ComparisonReport,
    ExperimentComparison,
    MetricDiff,
    compare_payloads,
    compare_runs,
    flatten_metrics,
    format_comparison_report,
    load_baseline,
)
from repro.lab.registry import default_registry
from repro.lab.runner import RunReport, run_matrix
from repro.lab.spec import Claim, ExperimentSpec, Registry, SplitSpec, derive_seed
from repro.lab.store import RunStore, load_run

__all__ = [
    "Claim",
    "ComparisonReport",
    "ExperimentComparison",
    "ExperimentSpec",
    "MetricDiff",
    "Registry",
    "RunReport",
    "RunStore",
    "SplitSpec",
    "compare_payloads",
    "compare_runs",
    "default_registry",
    "derive_seed",
    "flatten_metrics",
    "format_comparison_report",
    "load_baseline",
    "load_run",
    "run_matrix",
]
