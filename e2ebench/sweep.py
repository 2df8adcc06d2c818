"""Run the benchmark over workloads and seeds, one child process at a time.

Usage, from the repository root::

    python3 e2ebench/sweep.py --seeds 0-9 --out .e2e/base.json

Each run is ``e2ebench/run.py --workload W --seed N`` in a fresh
process, seeds outer and workloads inner, so slow drift of the host
spreads over every workload alike.  The file written is what
``e2ebench/compare.py`` reads.  The summary gives, per workload and
end-to-end metric, the median and the spread (interquartile range over
the median, from ``statistics.quantiles``), flagged when the spread
reaches a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from e2ebench.compare import spread  # noqa: E402

#: A child that runs this long is stopped and counted as failed.
CHILD_TIMEOUT_S = 600


def seed_list(text: str) -> List[int]:
    """``"0-9"`` or ``"0,3,7"`` -> seeds."""
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def run_child(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    """One benchmark run; its result line, or a failed record."""
    command = [
        sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"  {workload} seed {seed}: no result ({exc})", file=sys.stderr)
        return {"seed": seed, "correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if done.returncode != 0:
        print(done.stdout + done.stderr, file=sys.stderr)
    result["seed"] = seed
    return result


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description="Run benchmark sweeps.")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".e2e" / "sweep.json")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")

    runs: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    started = time.time()
    for seed in args.seeds:
        for workload in workloads:
            runs[workload].append(run_child(workload, seed, args.seconds, args.trace))
            print(f"{time.time() - started:7.0f}s  {workload} seed {seed} done", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"seconds": args.seconds, "trace": args.trace,
                                    "runs": runs}, indent=1) + "\n")

    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    print(f"\n{'workload':<12} {'metric':<22} {'median':>12} {'spread':>8} {'bound':>6}")
    ok = True
    for workload, results in runs.items():
        ok = ok and all(r["correct"] for r in results)
        metrics = results[0]["metrics"] if results else {}
        for name in metrics:
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            line = f"{workload:<12} {name:<22} {statistics.median(values):>12.6g}"
            if name in bounds:
                s = spread(values)
                flag = "  <- spread >= bound/3" if s >= bounds[name] / 3 else ""
                line += f" {100 * s:>7.2f}% {100 * bounds[name]:>5.0f}%{flag}"
            print(line)
    print(f"\nwrote {args.out}; every run correct: {ok}; {time.time() - started:.0f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
