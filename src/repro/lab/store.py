"""Persisting lab runs: one JSON artifact per experiment + a manifest.

Run-directory layout::

    <out_dir>/
        manifest.json        # run-level metadata + per-experiment index
        fig05.json           # one artifact per experiment with a payload
        fig13.json
        ...

Each artifact records the parameters, seed, task count and the result
payload, and nothing that varies between two runs of the same code:
attempts and durations live in the manifest only.  So a run directory
is a complete, self-describing record that ``repro lab compare`` can
diff against another run or against ``tests/golden/``, which holds the
reduced-scale, seed-0 artifacts alone (``make golden``).
"""

from __future__ import annotations

import json
import platform
import socket
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.lab.runner import RunReport

MANIFEST_NAME = "manifest.json"
SCHEMA_VERSION = 1


def _git_sha() -> Optional[str]:
    """Best-effort HEAD SHA; ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment_info() -> Dict[str, Any]:
    """Host/toolchain provenance recorded in every manifest."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep elsewhere
        numpy_version = None
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "hostname": socket.gethostname(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
    }


def _jsonable(value: Any) -> Any:
    """Defensive fallback for non-JSON parameter values."""
    try:
        json.dumps(value)
        return value
    except TypeError:
        return str(value)


class RunStore:
    """Writes a :class:`~repro.lab.runner.RunReport` to a run directory."""

    def __init__(self, out_dir: Union[str, Path]):
        self.path = Path(out_dir)
        self.path.mkdir(parents=True, exist_ok=True)

    def artifact_path(self, name: str) -> Path:
        return self.path / f"{name}.json"

    def write_report(self, report: RunReport) -> Path:
        """Persist artifacts + manifest; returns the manifest path."""
        index: Dict[str, Dict[str, Any]] = {}
        for name, outcome in sorted(report.experiments.items()):
            entry: Dict[str, Any] = {
                "title": outcome.title,
                "status": outcome.status,
                "tasks": outcome.tasks,
                "attempts": outcome.attempts,
                # duration_s is a rounded display value; duration_ns is
                # the exact monotonic measurement (an experiment that
                # finishes in well under a millisecond would read 0.0
                # at 3 decimals).
                "duration_s": round(outcome.duration_s, 3),
                "duration_ns": int(outcome.duration_ns),
                "artifact": None,
                "claims": outcome.claims,
            }
            # An experiment that failed only its claims still has a
            # payload, and the artifact shows what the claim saw.
            if outcome.payload is not None:
                artifact = {
                    "schema_version": SCHEMA_VERSION,
                    "name": name,
                    "title": outcome.title,
                    "params": {
                        k: _jsonable(v) for k, v in outcome.params.items()
                    },
                    "seed": outcome.seed,
                    "tasks": outcome.tasks,
                    "result": outcome.payload,
                }
                path = self.artifact_path(name)
                path.write_text(
                    json.dumps(artifact, indent=2, sort_keys=True) + "\n"
                )
                entry["artifact"] = path.name
            if outcome.status != "ok":
                entry["error"] = outcome.error
            index[name] = entry

        manifest = {
            "schema_version": SCHEMA_VERSION,
            "kind": "lab-run",
            "seed": report.seed,
            "scale": report.scale,
            "jobs": report.jobs,
            "timeout_s": report.timeout_s,
            "retries": report.retries,
            "wall_clock_s": round(report.wall_clock_s, 3),
            "ok": report.ok,
            # Explicit failure roll-up so CI and humans can see at a
            # glance which experiments never produced an artifact.
            "failed": report.failed_names(),
            "environment": environment_info(),
            "experiments": index,
        }
        manifest_path = self.path / MANIFEST_NAME
        manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        return manifest_path


def load_run(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a run directory back into memory.

    Returns ``{"manifest": <manifest dict>, "experiments": {name:
    <artifact dict>}}``; experiments that failed before producing a
    payload appear in the manifest but have no artifact entry.
    """
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no {MANIFEST_NAME} under {root}")
    manifest = json.loads(manifest_path.read_text())
    experiments: Dict[str, Any] = {}
    for name, entry in manifest.get("experiments", {}).items():
        artifact = entry.get("artifact")
        if artifact:
            experiments[name] = json.loads((root / artifact).read_text())
    return {"manifest": manifest, "experiments": experiments}
