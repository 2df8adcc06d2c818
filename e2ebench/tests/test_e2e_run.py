"""The command-line contract of ``e2ebench/run.py``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_result_line_follows_the_contract():
    done = _run(ROOT, "--workload", "kvs-getset", "--seed", "0", "--seconds", "0",
                "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 2  # one timed rep, the traced rep
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in BENCH["per_layer"]
    }
    for metric in BENCH["end_to_end"]:
        assert f"  {metric['name']} " in done.stdout  # also printed, by name


def test_fails_without_the_program_sources(tmp_path):
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "--workload", "nfv-chain", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_end_to_end_medians():
    from e2ebench import run

    timed = [
        {"import_s": 0.2, "rep_s": 1.0, "setup_s": 0.4, "accesses": 600, "peak_rss_mb": 90.0},
        {"import_s": 0.2, "rep_s": 1.2, "setup_s": 0.4, "accesses": 600, "peak_rss_mb": 91.0},
        {"import_s": 0.3, "rep_s": 3.0, "setup_s": 0.6, "accesses": 600, "peak_rss_mb": 92.0},
    ]
    e2e = run.end_to_end(timed)
    assert e2e["run_s"] == pytest.approx(1.4)
    assert e2e["setup_s"] == pytest.approx(0.6)
    assert e2e["sim_accesses_per_s"] == pytest.approx(600 / 0.8)
    assert e2e["peak_rss_mb"] == 91.0


def test_reference_seconds_convert_each_stretch_and_skip_sampling():
    from e2ebench.rep import REFERENCE_SAMPLE_S as ref
    from e2ebench.rep import HostSpeed

    speed = HostSpeed()
    with speed:
        assert len(speed.samples) == 1  # one sample on entry
    # Samples at [1, 1.5] and [3, 3.25]: the host ran at the reference
    # speed, then at half of it.
    speed.samples = [(1.0, 1.5, ref), (3.0, 3.25, 2 * ref)]
    assert speed.reference_seconds(0.0, 1.0) == pytest.approx(1.0)
    assert speed.reference_seconds(1.25, 1.5) == 0.0
    assert speed.reference_seconds(1.5, 3.0) == pytest.approx(1.5 / 1.5)
    assert speed.reference_seconds(3.25, 4.25) == pytest.approx(0.5)
    assert speed.reference_seconds(0.5, 3.5) == pytest.approx(0.5 + 1.0 + 0.125)
