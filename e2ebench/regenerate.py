"""Regenerate the pinned payload digests in ``e2ebench/digests.json``.

Usage, from the repository root::

    python3 e2ebench/regenerate.py            # seeds 0-9

The simulator is deterministic at a fixed seed, so a workload's payload
SHA-256 and simulated access count only move when the *model* changes.
A pure speed-up must leave them alone.  Regenerate deliberately, review
the diff, and say in the commit message why the model changed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from e2ebench import workloads  # noqa: E402
from e2ebench.rep import import_repro, run_rep  # noqa: E402
from e2ebench.run import DIGESTS  # noqa: E402
from e2ebench.sweep import seed_list  # noqa: E402


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate e2ebench/digests.json.")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    args = parser.parse_args(argv)
    import_repro()
    pinned = {}
    for workload in workloads.WORKLOADS.values():
        run = workloads.make_runner(workload)
        seeds = {}
        for seed in args.seeds:
            rep = run_rep(run, seed, traced=False)
            seeds[str(seed)] = {"sha256": rep.digest, "accesses": rep.accesses}
            print(f"{workload.name} seed {seed}: {rep.digest[:16]} {rep.accesses}", flush=True)
        pinned[workload.name] = {"params": workloads.params_for(workload), "seeds": seeds}
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
