"""End-to-end benchmark: run one workload, check its outputs, report metrics.

Run from the repository root::

    python3 e2ebench/run.py --workload nfv-chain --seed 0 --seconds 20 --trace 0

One invocation, one child process at a time (``rep.py``, one rep each,
one thread):

1. timed reps until ``--seconds`` have passed (at least one), with
   only the setup entry points wrapped, so ``setup_s`` and the
   simulated access count can be read;
2. with ``--trace 1``, one traced rep with every boundary entry point
   wrapped (see ``spans.py``).

The host this runs on is shared, and its speed swings by up to 2x in
bursts shorter than a rep.  Each rep therefore times a fixed kernel
every 0.2 s on its own thread and reports its times in seconds at a
reference speed, each stretch converted at the speed measured around
it (``rep.HostSpeed``).  Each timing below is a median over the timed
reps.

Every rep's payload SHA-256 and simulated access count must equal the
pinned values in ``digests.json`` for the seed, or, for unpinned
seeds, the first rep's.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  The
exit code is 0 only when every rep matched.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "e2ebench" / "digests.json"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from e2ebench import rep, workloads  # noqa: E402

#: A rep that runs this long is stopped; the run then fails.
REP_TIMEOUT_S = 120


def run_child(workload: str, seed: int, *extra: str) -> Dict[str, Any]:
    """One rep in a fresh ``rep.py`` process; its result line."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "e2ebench" / "rep.py"),
         "--workload", workload, "--seed", str(seed), *extra],
        capture_output=True, text=True, timeout=REP_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"e2ebench: rep failed\n{done.stdout}{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def pinned_reference(
    workload: str, params: Dict[str, Any], seed: int
) -> Optional[Tuple[str, int]]:
    """The pinned ``(digest, accesses)`` for this seed, if any."""
    pinned = json.loads(DIGESTS.read_text()).get(workload)
    if pinned is None:
        return None
    if pinned["params"] != json.loads(json.dumps(params)):
        raise SystemExit(
            f"e2ebench: {DIGESTS.name} pins {workload} at other params; "
            "regenerate it with e2ebench/regenerate.py"
        )
    entry = pinned["seeds"].get(str(seed))
    if entry is None:
        return None
    return entry["sha256"], entry["accesses"]


def end_to_end(timed: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over the timed reps (times in reference seconds)."""
    return {
        "run_s": statistics.median(r["import_s"] + r["rep_s"] for r in timed),
        "setup_s": statistics.median(r["import_s"] + r["setup_s"] for r in timed),
        "sim_accesses_per_s": statistics.median(
            r["accesses"] / (r["rep_s"] - r["setup_s"]) for r in timed
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed reps run (at least one rep)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds a traced rep and reports the per-layer metrics")
    parser.add_argument("--trace-out", type=Path,
                        help="write the traced rep's spans to this JSON file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.trace_out is not None and not args.trace:
        parser.error("--trace-out needs --trace 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    rep.import_repro()
    workload = workloads.WORKLOADS[args.workload]
    reference = pinned_reference(workload.name, workloads.params_for(workload), args.seed)

    timed: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < args.seconds:
        timed.append(run_child(workload.name, args.seed))
    reference = reference or (timed[0]["digest"], timed[0]["accesses"])
    traced = None
    if args.trace:
        extra = ["--trace-out", str(args.trace_out.resolve())] if args.trace_out else []
        traced = run_child(workload.name, args.seed, "--traced", *extra)

    reps = timed + ([traced] if traced else [])
    failed = sum(1 for r in reps if (r["digest"], r["accesses"]) != reference)
    e2e = end_to_end(timed)
    layers: Dict[str, float] = {}
    if traced:
        untraced_rep_s = statistics.median(r["rep_s"] for r in timed)
        layers = rep.per_layer(traced["layers"], traced["rep_s"], untraced_rep_s)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"workload {workload.name}  seed {args.seed}  experiment {workload.experiment}")
    print(f"reps: {len(timed)} timed (medians below)"
          + (", 1 traced" if traced else "") + ", each in a fresh process")
    speeds = [(r["import_s"] + r["rep_s"]) / r["host_s"] for r in timed]
    print(f"host speed: {min(speeds):.3f} to {max(speeds):.3f} of the reference "
          f"(kernel {1e3 * rep.REFERENCE_SAMPLE_S:.1f} ms), from "
          f"{sum(r['samples'] for r in timed)} samples; host seconds per rep, median "
          f"{statistics.median(r['host_s'] for r in timed):.4f} s")
    print(f"outputs: {len(reps) - failed}/{len(reps)} reps match digest "
          f"{reference[0][:16]} with {reference[1]} simulated accesses")
    for name, value in {**e2e, **layers}.items():
        print(f"  {name:<32} {value:>16.6g} {units[name]}")
    for name, value in timed[0]["model"].items():
        print(f"  model {name:<26} {value:>16.6g} (simulated, checked by the digest)")
    skipped = (traced or timed[0])["skipped"]
    if skipped:
        print("unresolved boundary entries, charged to their callers: " + ", ".join(skipped))

    reported = layers if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in reported.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
