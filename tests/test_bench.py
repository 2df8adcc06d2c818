"""The bench trajectory layer: suite, measurement, artifacts, gating.

Wall-clock timing is nondeterministic, so these tests pin everything
*around* the timer: schema round-trips, percentile math, scale
handling, the regression gate's decision boundaries, and the CLI exit
codes the CI job relies on.  The one end-to-end measurement test runs
the two cheapest micro entries at tiny sizes.
"""

import json
import math

import pytest

from repro.bench.artifact import (
    FIRST_INDEX,
    BenchArtifactError,
    artifact_filename,
    build_artifact,
    discover_artifacts,
    load_artifact,
    next_index,
    validate_artifact,
    write_artifact,
)
from repro.bench.compare import compare_artifacts, format_bench_comparison
from repro.bench.measure import (
    EntryMeasurement,
    measure_entry,
    measurements_from_lab_run,
    percentile_ns,
)
from repro.bench.report import format_trajectory, load_trajectory
from repro.bench.suite import (
    bench_scale_factor,
    default_suite,
    suite_by_name,
)
from repro.cli import main


def make_measurement(name="fake-entry", samples_ns=(1_000_000, 2_000_000, 3_000_000)):
    return EntryMeasurement(
        name=name,
        title="synthetic entry",
        kind="micro",
        params={"n": 10},
        seed=0,
        warmup=1,
        samples_ns=list(samples_ns),
        work={"ops": 10.0},
    ).finalize()


def make_artifact(index=6, scale="smoke", **overrides):
    artifact = build_artifact(
        [make_measurement()],
        index=index,
        scale=scale,
        seed=0,
        warmup=1,
        samples=3,
    )
    artifact.update(overrides)
    return artifact


class TestPercentile:
    def test_median_odd(self):
        assert percentile_ns([3, 1, 2], 50.0) == 2.0

    def test_median_even_interpolates(self):
        assert percentile_ns([1, 2, 3, 4], 50.0) == 2.5

    def test_extremes(self):
        samples = [5, 1, 9, 3]
        assert percentile_ns(samples, 0.0) == 1.0
        assert percentile_ns(samples, 100.0) == 9.0

    def test_single_sample(self):
        assert percentile_ns([7], 10.0) == 7.0
        assert percentile_ns([7], 90.0) == 7.0

    def test_matches_numpy(self):
        np = pytest.importorskip("numpy")
        samples = [17, 3, 101, 42, 8, 77, 5]
        for q in (10.0, 25.0, 50.0, 90.0, 99.0):
            assert math.isclose(
                percentile_ns(samples, q), float(np.percentile(samples, q))
            )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile_ns([], 50.0)
        with pytest.raises(ValueError):
            percentile_ns([1], 101.0)


class TestSuite:
    def test_default_suite_names_unique(self):
        suite = default_suite()
        names = [e.name for e in suite]
        assert len(names) == len(set(names))
        assert "fig07-ops-sweep" in names
        assert "engine-batch-access" in names

    def test_suite_by_name_subset_and_order(self):
        subset = suite_by_name(["engine-dma-span", "fig08-kvs"])
        assert [e.name for e in subset] == ["engine-dma-span", "fig08-kvs"]

    def test_suite_by_name_unknown(self):
        with pytest.raises(KeyError):
            suite_by_name(["no-such-entry"])

    def test_params_for_scales_declared_ints(self, monkeypatch):
        entry = suite_by_name(["engine-batch-access"])[0]
        smoke = entry.params_for("smoke")
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.0")
        doubled = entry.params_for("smoke")
        for key in entry.scaled:
            assert doubled[key] == max(1, int(smoke[key] * 2.0))
        # Non-scaled params are untouched.
        for key in smoke:
            if key not in entry.scaled:
                assert doubled[key] == smoke[key]

    def test_bench_scale_factor_invalid_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "not-a-float")
        with pytest.warns(UserWarning):
            assert bench_scale_factor() == 1.0
        monkeypatch.setenv("REPRO_BENCH_SCALE", "-3")
        with pytest.warns(UserWarning):
            assert bench_scale_factor() == 1.0

    def test_work_declared_for_every_entry(self):
        for entry in default_suite():
            work = entry.work(entry.params_for("smoke"))
            assert work, entry.name
            assert all(v > 0 for v in work.values()), entry.name

    def test_fig07_work_counts_every_simulated_access(self, monkeypatch):
        from repro.cachesim.hierarchy import CacheHierarchy
        from repro.experiments.fig07_ops_sweep import run_fig07

        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        built = []
        original_init = CacheHierarchy.__init__

        def recording_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(CacheHierarchy, "__init__", recording_init)
        (entry,) = suite_by_name(["fig07-ops-sweep"])
        params = entry.params_for("smoke")
        run_fig07(**params)
        simulated = sum(h.stats.reads + h.stats.writes for h in built)
        assert simulated > 0
        assert entry.work(params) == {"ops": float(simulated)}


class TestMeasure:
    def test_micro_entries_end_to_end(self, monkeypatch):
        # Shrink the cheapest micro entries so the timing loop itself
        # is exercised without multi-second cost.
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.01")
        for name in ("engine-batch-access", "engine-dma-span"):
            entry = suite_by_name([name])[0]
            m = measure_entry(entry, scale="smoke", warmup=0, samples=2, seed=0)
            assert len(m.samples_ns) == 2
            assert all(s > 0 for s in m.samples_ns)
            assert m.stats["median_ns"] > 0
            assert m.stats["p10_ns"] <= m.stats["median_ns"] <= m.stats["p90_ns"]
            assert m.rates  # work units declared => rates derived
            assert m.metrics, name

    def test_rejects_bad_counts(self):
        entry = suite_by_name(["engine-dma-span"])[0]
        with pytest.raises(ValueError):
            measure_entry(entry, samples=0)
        with pytest.raises(ValueError):
            measure_entry(entry, warmup=-1)

    def test_finalize_computes_stats_and_rates(self):
        m = make_measurement(samples_ns=(2_000_000, 1_000_000, 3_000_000))
        assert m.stats["median_ns"] == 2_000_000.0
        assert m.stats["min_ns"] == 1_000_000.0
        assert m.stats["max_ns"] == 3_000_000.0
        # 10 ops over a 2 ms median => 5000 ops/s.
        assert math.isclose(m.rates["ops_per_sec"], 5000.0)


class TestArtifactSchema:
    def test_filename(self):
        assert artifact_filename(6) == "BENCH_0006.json"
        with pytest.raises(ValueError):
            artifact_filename(10_000)

    def test_round_trip(self, tmp_path):
        artifact = make_artifact(index=7)
        path = write_artifact(artifact, tmp_path)
        assert path.name == "BENCH_0007.json"
        loaded = load_artifact(path)
        assert loaded == artifact
        assert loaded["entries"]["fake-entry"]["stats"]["median_ns"] == 2_000_000.0

    def test_provenance_present(self):
        artifact = make_artifact()
        env = artifact["environment"]
        for key in ("python", "platform", "hostname", "numpy", "git_sha"):
            assert key in env
        assert artifact["bench_scale_factor"] == 1.0
        assert artifact["created_unix"] > 0

    @pytest.mark.parametrize(
        "corrupt",
        [
            {"kind": "lab-run"},
            {"schema_version": 0},
            {"schema_version": 99},
            {"index": -1},
            {"scale": "medium"},
            {"environment": None},
            {"bench_scale_factor": 0},
            {"entries": {}},
            {"entries": {"x": {"samples_ns": [], "stats": {}}}},
            {"entries": {"x": {"samples_ns": [0], "stats": {}}}},
            {
                "entries": {
                    "x": {
                        "samples_ns": [1],
                        "stats": {"median_ns": 1.0, "p10_ns": 1.0},
                    }
                }
            },
        ],
    )
    def test_validate_rejects(self, corrupt):
        artifact = make_artifact()
        artifact.update(corrupt)
        with pytest.raises(BenchArtifactError):
            validate_artifact(artifact)

    def test_load_rejects_bad_json(self, tmp_path):
        bad = tmp_path / "BENCH_0006.json"
        bad.write_text("{not json")
        with pytest.raises(BenchArtifactError):
            load_artifact(bad)

    def test_discover_and_next_index(self, tmp_path):
        assert discover_artifacts(tmp_path) == []
        assert next_index(tmp_path) == FIRST_INDEX
        write_artifact(make_artifact(index=6), tmp_path)
        write_artifact(make_artifact(index=9), tmp_path)
        # Non-canonical names are ignored.
        (tmp_path / "BENCH_12.json").write_text("{}")
        found = discover_artifacts(tmp_path)
        assert [i for i, _ in found] == [6, 9]
        assert next_index(tmp_path) == 10


class TestCompareGate:
    def scaled_artifact(self, factor, index=7):
        base = make_artifact(index=index)
        entry = base["entries"]["fake-entry"]
        entry["samples_ns"] = [int(s * factor) for s in entry["samples_ns"]]
        entry["stats"] = {k: v * factor for k, v in entry["stats"].items()}
        return base

    def test_within_threshold_ok(self):
        report = compare_artifacts(
            self.scaled_artifact(1.2), make_artifact(), threshold=0.30
        )
        assert report.ok
        assert report.entries[0].status == "ok"
        assert math.isclose(report.entries[0].pct_change, 20.0)

    def test_regression_past_threshold(self):
        report = compare_artifacts(
            self.scaled_artifact(1.5), make_artifact(), threshold=0.30
        )
        assert not report.ok
        assert report.regressions()[0].name == "fake-entry"
        assert "REGRESS" in format_bench_comparison(report)

    def test_improvement_reported_not_failed(self):
        report = compare_artifacts(
            self.scaled_artifact(0.5), make_artifact(), threshold=0.30
        )
        assert report.ok
        assert report.entries[0].status == "improved"

    def test_scale_mismatch_is_informational(self):
        current = self.scaled_artifact(10.0)
        current["scale"] = "full"
        report = compare_artifacts(current, make_artifact(), threshold=0.30)
        assert report.scale_mismatch
        assert report.ok
        assert "not comparable" in format_bench_comparison(report)

    def test_bench_scale_factor_mismatch_is_informational(self):
        current = self.scaled_artifact(10.0)
        current["bench_scale_factor"] = 0.5
        report = compare_artifacts(current, make_artifact(), threshold=0.30)
        assert report.scale_mismatch
        assert report.ok

    def test_host_mismatch_flagged_but_gates(self):
        current = self.scaled_artifact(1.5)
        current["environment"] = dict(
            current["environment"], hostname="other-host"
        )
        report = compare_artifacts(current, make_artifact(), threshold=0.30)
        assert report.host_mismatch
        assert not report.ok  # still gates: trajectory spans PRs

    def test_new_and_missing_entries(self):
        current = make_artifact()
        current["entries"] = {
            "fresh": current["entries"]["fake-entry"],
        }
        report = compare_artifacts(current, make_artifact(), threshold=0.30)
        statuses = {e.name: e.status for e in report.entries}
        assert statuses == {"fresh": "new", "fake-entry": "missing"}
        assert report.ok

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            compare_artifacts(make_artifact(), make_artifact(), threshold=-0.1)


class TestTrajectoryReport:
    def test_report_orders_and_deltas(self, tmp_path):
        write_artifact(make_artifact(index=6), tmp_path)
        write_artifact(
            TestCompareGate().scaled_artifact(2.0, index=7), tmp_path
        )
        trajectory = load_trajectory(tmp_path)
        assert [i for i, _ in trajectory] == [6, 7]
        text = format_trajectory(trajectory)
        assert "fake-entry" in text
        assert "+100.0%" in text

    def test_empty_directory(self, tmp_path):
        assert load_trajectory(tmp_path) == []
        assert "no BENCH_" in format_trajectory([])


class TestBenchCli:
    def test_compare_exits_nonzero_on_injected_regression(self, tmp_path, capsys):
        """The acceptance criterion: an injected regression past the
        threshold makes `repro bench compare` exit nonzero."""
        write_artifact(make_artifact(index=6), tmp_path)
        write_artifact(
            TestCompareGate().scaled_artifact(2.0, index=7), tmp_path
        )
        rc = main(["bench", "compare", "--dir", str(tmp_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "RESULT: REGRESS" in out
        # Same pair inside the widened threshold passes.
        rc = main(
            ["bench", "compare", "--dir", str(tmp_path), "--threshold", "1.5"]
        )
        assert rc == 0

    def test_compare_needs_two_artifacts(self, tmp_path, capsys):
        write_artifact(make_artifact(index=6), tmp_path)
        rc = main(["bench", "compare", "--dir", str(tmp_path)])
        assert rc == 2
        assert "need two artifacts" in capsys.readouterr().err

    def test_run_micro_writes_artifact(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.01")
        rc = main(
            [
                "bench", "run", "engine-dma-span",
                "--dir", str(tmp_path),
                "--samples", "1", "--warmup", "0", "--quiet",
            ]
        )
        assert rc == 0
        artifact = load_artifact(tmp_path / "BENCH_0006.json")
        assert artifact["index"] == FIRST_INDEX
        assert set(artifact["entries"]) == {"engine-dma-span"}
        assert artifact["bench_scale_factor"] == 0.01

    def test_run_unknown_entry(self, tmp_path, capsys):
        rc = main(["bench", "run", "bogus", "--dir", str(tmp_path)])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_report_json(self, tmp_path, capsys):
        write_artifact(make_artifact(index=6), tmp_path)
        rc = main(["bench", "report", "--dir", str(tmp_path), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["index"] == 6

    def test_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig07-ops-sweep" in out


class TestFromLabRun:
    def test_adapts_duration_ns(self, tmp_path):
        from repro.lab.runner import run_matrix
        from repro.lab.store import RunStore

        report = run_matrix(["table4"], jobs=1, seed=0, scale="reduced")
        RunStore(tmp_path / "run").write_report(report)
        measurements = measurements_from_lab_run(tmp_path / "run")
        assert [m.name for m in measurements] == ["lab:table4"]
        m = measurements[0]
        assert m.kind == "lab"
        assert len(m.samples_ns) == 1
        assert m.samples_ns[0] > 0
        # The ns figure survives even though duration_s rounds to 0.000
        # for sub-millisecond experiments.
        artifact = json.loads(
            (tmp_path / "run" / "table4.json").read_text()
        )
        assert m.samples_ns[0] == artifact["duration_ns"]

    def test_falls_back_to_duration_s(self, tmp_path):
        from repro.lab.runner import run_matrix
        from repro.lab.store import RunStore

        report = run_matrix(["table4"], jobs=1, seed=0, scale="reduced")
        RunStore(tmp_path / "run").write_report(report)
        # Simulate a pre-duration_ns artifact from an older checkout.
        path = tmp_path / "run" / "table4.json"
        artifact = json.loads(path.read_text())
        del artifact["duration_ns"]
        artifact["duration_s"] = 0.25
        path.write_text(json.dumps(artifact))
        measurements = measurements_from_lab_run(tmp_path / "run")
        assert measurements[0].samples_ns == [250_000_000]
