"""Timing benchmark entries: warmup, repeated samples, robust stats.

Wall-clock measurement is the one deliberately nondeterministic layer
in this repository: result payloads stay bit-identical (the golden and
replay suites prove it), and the timings recorded here are *metadata
about* those computations.  Every ``time.perf_counter_ns`` call below
carries the same simcheck annotation the lab runner uses for its
provenance timers.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.bench.suite import BenchEntry

__all__ = [
    "EntryMeasurement",
    "measure_entry",
    "measurements_from_lab_run",
    "percentile_ns",
    "run_suite",
]

ProgressFn = Callable[[str], None]


def percentile_ns(samples: Sequence[int], q: float) -> float:
    """Linear-interpolation percentile of integer ns samples.

    Matches ``numpy.percentile``'s default (``linear``) method but
    stays dependency-free so artifact maths is trivially auditable.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * (q / 100.0)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(ordered[lo])
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def _stats(samples: Sequence[int]) -> Dict[str, float]:
    """The per-entry summary persisted in artifacts (all nanoseconds)."""
    return {
        "median_ns": percentile_ns(samples, 50.0),
        "p10_ns": percentile_ns(samples, 10.0),
        "p90_ns": percentile_ns(samples, 90.0),
        "min_ns": float(min(samples)),
        "max_ns": float(max(samples)),
        "mean_ns": sum(samples) / len(samples),
    }


def _rates(work: Mapping[str, float], median_ns: float) -> Dict[str, float]:
    """Derive throughput rates from work units at the median sample."""
    seconds = median_ns / 1e9
    rates: Dict[str, float] = {}
    if seconds <= 0:
        return rates
    if "ops" in work:
        rates["ops_per_sec"] = work["ops"] / seconds
    if "packets" in work:
        rates["packets_per_sec"] = work["packets"] / seconds
        rates["mpps"] = work["packets"] / seconds / 1e6
    return rates


@dataclass
class EntryMeasurement:
    """One entry's timing record inside an artifact."""

    name: str
    title: str
    kind: str  # "experiment" | "micro" | "lab"
    params: Dict[str, Any]
    seed: Optional[int]
    warmup: int
    samples_ns: List[int]
    work: Dict[str, float] = field(default_factory=dict)
    stats: Dict[str, float] = field(default_factory=dict)
    rates: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)

    def finalize(self) -> "EntryMeasurement":
        """Compute stats/rates from the collected samples."""
        self.stats = _stats(self.samples_ns)
        self.rates = _rates(self.work, self.stats["median_ns"])
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "title": self.title,
            "kind": self.kind,
            "params": dict(self.params),
            "seed": self.seed,
            "warmup": self.warmup,
            "samples_ns": [int(s) for s in self.samples_ns],
            "work": dict(self.work),
            "stats": dict(self.stats),
            "rates": dict(self.rates),
            "metrics": dict(self.metrics),
        }


def _resolve_execution(
    entry: BenchEntry, params: Mapping[str, Any], seed: int
):
    """Bind the timed pass as a closure, plus the recorded seed."""
    if entry.kind == "micro":
        runner = entry.runner
        return (lambda: runner(params, seed)), seed
    from repro.lab.registry import default_registry

    spec = default_registry().get(entry.experiment)
    kwargs = dict(params)
    entry_seed: Optional[int] = None
    if spec.seeded:
        entry_seed = spec.seed_for(seed)
        kwargs.setdefault("seed", entry_seed)

    def execute_experiment() -> Any:
        return spec.serializer(spec.runner(**kwargs))

    return execute_experiment, entry_seed


def measure_entry(
    entry: BenchEntry,
    *,
    scale: str = "smoke",
    warmup: int = 1,
    samples: int = 3,
    seed: int = 0,
) -> EntryMeasurement:
    """Run one entry: ``warmup`` untimed passes, ``samples`` timed ones.

    The payload of the final timed pass feeds the entry's ``metrics``
    extractor; all passes run the same deterministic computation, so
    which pass supplies the payload is immaterial.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    params = entry.params_for(scale)
    execute, entry_seed = _resolve_execution(entry, params, seed)
    for _ in range(warmup):
        execute()
    samples_ns: List[int] = []
    payload: Any = None
    for _ in range(samples):
        # Collect before each timed pass so a sample measures the
        # entry's own work, not the cyclic garbage (mempool <-> mbuf)
        # the *previous* pass left behind — without this, collector
        # pauses land inside whichever entry happens to run next and
        # skew its samples.
        gc.collect()
        start = time.perf_counter_ns()  # simcheck: ignore[SIM001] timing is provenance, not a result
        payload = execute()
        samples_ns.append(time.perf_counter_ns() - start)  # simcheck: ignore[SIM001] provenance only
    measurement = EntryMeasurement(
        name=entry.name,
        title=entry.title,
        kind=entry.kind,
        params=dict(params),
        seed=entry_seed,
        warmup=warmup,
        samples_ns=samples_ns,
        work=dict(entry.work(params)),
    )
    if entry.metrics is not None and payload is not None:
        measurement.metrics = {
            k: float(v) for k, v in entry.metrics(payload).items()
        }
    return measurement.finalize()


def run_suite(
    entries: Sequence[BenchEntry],
    *,
    scale: str = "smoke",
    warmup: int = 1,
    samples: int = 3,
    seed: int = 0,
    progress: Optional[ProgressFn] = None,
) -> List[EntryMeasurement]:
    """Measure every entry in order; returns finalized measurements."""
    out: List[EntryMeasurement] = []
    for i, entry in enumerate(entries):
        measurement = measure_entry(
            entry, scale=scale, warmup=warmup, samples=samples, seed=seed
        )
        out.append(measurement)
        if progress is not None:
            median_ms = measurement.stats["median_ns"] / 1e6
            rate = measurement.rates.get(
                "mpps", measurement.rates.get("ops_per_sec", 0.0) / 1e6
            )
            progress(
                f"[{i + 1}/{len(entries)}] {entry.name}: "
                f"median {median_ms:.1f} ms, {rate:.3f} M units/s "
                f"({samples} samples)"
            )
    return out


def measurements_from_lab_run(
    run_dir: Union[str, Path]
) -> List[EntryMeasurement]:
    """Adapt a persisted lab run into bench measurements.

    Reuses the nanosecond-resolution ``duration_ns`` the lab store
    records per experiment (older artifacts fall back to the rounded
    ``duration_s``), so a lab matrix run can feed the trajectory
    without re-executing anything.  Each experiment becomes one entry
    named ``lab:<experiment>`` with a single sample.
    """
    from repro.lab.store import load_run

    run = load_run(run_dir)
    manifest = run["manifest"]
    out: List[EntryMeasurement] = []
    for name in sorted(run["experiments"]):
        artifact = run["experiments"][name]
        duration_ns = artifact.get("duration_ns")
        if duration_ns is None:
            duration_ns = int(round(float(artifact.get("duration_s", 0.0)) * 1e9))
        if duration_ns <= 0:
            continue
        measurement = EntryMeasurement(
            name=f"lab:{name}",
            title=f"lab experiment {name} ({manifest.get('scale')} scale)",
            kind="lab",
            params=dict(artifact.get("params", {})),
            seed=artifact.get("seed"),
            warmup=0,
            samples_ns=[int(duration_ns)],
        )
        out.append(measurement.finalize())
    return out
