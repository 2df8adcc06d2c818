"""Comparison layer: flattening, tolerances, golden adapters, verdicts."""

from pathlib import Path

import pytest

from repro.lab.compare import (
    compare_payloads,
    compare_runs,
    flatten_metrics,
    format_comparison_report,
    load_baseline,
)
from repro.lab.runner import run_matrix
from repro.lab.store import RunStore

GOLDEN_DIR = Path(__file__).parent / "golden"


class TestFlatten:
    def test_nested_dicts_and_lists(self):
        flat = flatten_metrics({"a": {"b": [1.0, 2.0]}, "c": "x"})
        assert flat == {"a.b.0": 1.0, "a.b.1": 2.0, "c": "x"}

    def test_scalar(self):
        assert flatten_metrics(3.5) == {"": 3.5}


class TestComparePayloads:
    def test_within_rel_tolerance(self):
        diffs, missing_run, missing_base = compare_payloads(
            {"x": 100.0}, {"x": 100.0 + 1e-9}, rel_tol=1e-6
        )
        assert [d.ok for d in diffs] == [True]
        assert missing_run == [] and missing_base == []

    def test_rel_violation(self):
        diffs, _, _ = compare_payloads({"x": 100.0}, {"x": 103.0}, rel_tol=1e-2)
        assert not diffs[0].ok
        assert diffs[0].rel_delta == pytest.approx(3.0 / 103.0)

    def test_abs_tolerance_override(self):
        diffs, _, _ = compare_payloads(
            {"pct": 10.4},
            {"pct": 10.0},
            rel_tol=1e-6,
            tolerances={"pct": {"abs": 0.5}},
        )
        assert diffs[0].ok and diffs[0].tolerance_kind == "abs"

    def test_prefix_tolerance_applies_to_children(self):
        diffs, _, _ = compare_payloads(
            {"cdf": [1.0, 2.0]},
            {"cdf": [1.05, 2.0]},
            rel_tol=1e-6,
            tolerances={"cdf": {"rel": 0.1}},
        )
        assert all(d.ok for d in diffs)

    def test_non_numeric_exact(self):
        diffs, _, _ = compare_payloads({"m": "a", "b": True}, {"m": "a", "b": False})
        by_metric = {d.metric: d for d in diffs}
        assert by_metric["m"].ok
        assert not by_metric["b"].ok

    def test_zero_vs_zero(self):
        diffs, _, _ = compare_payloads({"x": 0.0}, {"x": 0}, rel_tol=1e-9)
        assert diffs[0].ok

    def test_missing_metrics_reported(self):
        _, missing_run, missing_base = compare_payloads(
            {"shared": 1.0, "extra": 2.0}, {"shared": 1.0, "gone": 3.0}
        )
        assert missing_run == ["gone"]
        assert missing_base == ["extra"]


def _fake_run(payloads):
    return {
        "manifest": {"kind": "lab-run"},
        "experiments": {
            name: {"name": name, "result": payload}
            for name, payload in payloads.items()
        },
    }


class TestCompareRuns:
    def test_identical_runs_pass(self):
        run = _fake_run({"e1": {"x": 1.0}})
        report = compare_runs(run, run)
        assert report.ok
        assert report.experiments[0].status == "ok"

    def test_regression_detected(self):
        run = _fake_run({"e1": {"x": 1.0}})
        base = _fake_run({"e1": {"x": 2.0}})
        report = compare_runs(run, base)
        assert not report.ok
        exp = report.experiments[0]
        assert exp.status == "regress"
        assert exp.worst.metric == "x"
        text = format_comparison_report(report)
        assert "REGRESS e1.x" in text
        assert "RESULT: REGRESS" in text

    def test_rel_tol_override_loosens(self):
        run = _fake_run({"e1": {"x": 1.0}})
        base = _fake_run({"e1": {"x": 1.05}})
        assert not compare_runs(run, base).ok
        assert compare_runs(run, base, rel_tol=0.1).ok

    def test_missing_sides(self):
        run = _fake_run({"only-run": {"x": 1.0}})
        base = _fake_run({"only-base": {"x": 1.0}})
        report = compare_runs(run, base)
        status = {e.name: e.status for e in report.experiments}
        assert status == {
            "only-run": "missing-baseline",
            "only-base": "missing-run",
        }
        assert report.ok  # informational, not a regression

    def test_names_filter(self):
        run = _fake_run({"e1": {"x": 1.0}, "e2": {"x": 1.0}})
        report = compare_runs(run, run, names=["e1"])
        assert [e.name for e in report.experiments] == ["e1"]


class TestGoldenBaseline:
    def test_adapter_loads_known_files(self):
        baseline = load_baseline(GOLDEN_DIR)
        assert baseline["manifest"]["kind"] == "golden-baseline"
        assert set(baseline["experiments"]) == {
            "fig05", "fig06", "fig07", "fig08", "table3", "table4",
            "fleet-scale", "fleet-failover",
            "fleet-availability", "fleet-durability",
        }
        fig06 = baseline["experiments"]["fig06"]
        assert fig06["tolerances"]["read_speedup_pct"] == {"abs": 0.5}
        assert "read_cycles" in baseline["experiments"]["fig05"]["result"]

    @pytest.mark.slow
    def test_lab_run_matches_golden(self, tmp_path):
        """The end-to-end acceptance path: run → store → compare → PASS."""
        report = run_matrix(
            [
                "fig05", "fig06", "fig07", "fig08", "table3", "table4",
                "fleet-scale", "fleet-failover",
                "fleet-availability", "fleet-durability",
            ],
            jobs=1,
            seed=0,
        )
        RunStore(tmp_path / "run").write_report(report)
        from repro.lab.store import load_run

        comparison = compare_runs(
            load_run(tmp_path / "run"), load_baseline(GOLDEN_DIR)
        )
        assert comparison.ok, format_comparison_report(comparison)
        for exp in comparison.experiments:
            assert exp.status == "ok"
            assert exp.compared > 0

    def test_unknown_dir_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_baseline(tmp_path)
