"""Percentile and CDF utilities for latency distributions.

The paper reports the 75th/90th/95th/99th percentiles plus the mean
(Figs. 12–14) and full CDFs (Fig. 14a); these helpers compute them the
same way the paper's pos framework does — from raw per-packet samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

#: The percentiles the paper's figures report.
PAPER_PERCENTILES: Tuple[float, ...] = (75.0, 90.0, 95.0, 99.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile (linear interpolation, like numpy)."""
    if len(samples) == 0:
        raise ValueError("no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return float(np.percentile(np.asarray(samples, dtype=float), q))


@dataclass
class LatencySummary:
    """Percentiles + mean of one latency distribution."""

    percentiles: Dict[float, float]
    mean: float
    count: int

    def __getitem__(self, q: float) -> float:
        return self.percentiles[q]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form; percentile keys become ``"p75"``-style."""
        return {
            "percentiles": {f"p{q:g}": v for q, v in self.percentiles.items()},
            "mean": self.mean,
            "count": self.count,
        }

    def improvement_over(self, other: "LatencySummary") -> Dict[str, float]:
        """Absolute and relative improvement of *self* vs *other*.

        Positive numbers mean *self* is faster (as when comparing
        CacheDirector against plain DPDK).
        """
        out: Dict[str, float] = {}
        for q, value in self.percentiles.items():
            base = other.percentiles[q]
            out[f"p{q:g}_abs"] = base - value
            out[f"p{q:g}_rel"] = (base - value) / base if base else 0.0
        out["mean_abs"] = other.mean - self.mean
        out["mean_rel"] = (other.mean - self.mean) / other.mean if other.mean else 0.0
        return out


def summarize_latencies(
    samples: Sequence[float],
    percentiles: Sequence[float] = PAPER_PERCENTILES,
) -> LatencySummary:
    """Summarise raw latency samples into the paper's statistics."""
    array = np.asarray(samples, dtype=float)
    if array.size == 0:
        raise ValueError("no samples")
    # One vectorized percentile call for all quantiles (bit-identical
    # to per-q calls).
    values = np.percentile(array, list(percentiles))
    return LatencySummary(
        percentiles={
            q: float(v) for q, v in zip(percentiles, values)
        },
        mean=float(array.mean()),
        count=int(array.size),
    )


def cdf_points(
    samples: Sequence[float], n_points: int = 200
) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF, downsampled to *n_points* (x, F(x)) pairs."""
    array = np.sort(np.asarray(samples, dtype=float))
    if array.size == 0:
        raise ValueError("no samples")
    quantiles = np.linspace(0.0, 1.0, n_points)
    xs = np.quantile(array, quantiles)
    return xs, quantiles


def median_of_runs(per_run_summaries: Sequence[LatencySummary]) -> LatencySummary:
    """Median across runs of each statistic (the paper's '50 runs,
    values show the median')."""
    if not per_run_summaries:
        raise ValueError("no runs")
    qs = per_run_summaries[0].percentiles.keys()
    return LatencySummary(
        percentiles={
            q: float(np.median([s.percentiles[q] for s in per_run_summaries]))
            for q in qs
        },
        mean=float(np.median([s.mean for s in per_run_summaries])),
        count=sum(s.count for s in per_run_summaries),
    )


def quartiles_of_runs(
    per_run_summaries: Sequence[LatencySummary], q: float
) -> Tuple[float, float, float]:
    """(Q1, median, Q3) of one percentile statistic across runs.

    The paper's figures show medians of 50 runs with "error bars
    represent 1st and 3rd quartiles" — this provides the bars.
    """
    if not per_run_summaries:
        raise ValueError("no runs")
    values = np.array([s.percentiles[q] for s in per_run_summaries])
    return (
        float(np.percentile(values, 25)),
        float(np.percentile(values, 50)),
        float(np.percentile(values, 75)),
    )
