"""Run-directory persistence: artifacts, manifest, reload."""

import json

import pytest

from repro.lab.runner import run_matrix
from repro.lab.store import MANIFEST_NAME, RunStore, environment_info, load_run


@pytest.fixture(scope="module")
def small_report():
    return run_matrix(
        ["fig05", "table1", "table4"], jobs=1, seed=0, scale="reduced"
    )


class TestWriteReport:
    def test_layout(self, tmp_path, small_report):
        manifest_path = RunStore(tmp_path / "run").write_report(small_report)
        assert manifest_path.name == MANIFEST_NAME
        names = {p.name for p in (tmp_path / "run").iterdir()}
        assert names == {MANIFEST_NAME, "fig05.json", "table1.json", "table4.json"}

    def test_manifest_fields(self, tmp_path, small_report):
        RunStore(tmp_path / "run").write_report(small_report)
        manifest = json.loads((tmp_path / "run" / MANIFEST_NAME).read_text())
        assert manifest["kind"] == "lab-run"
        assert manifest["seed"] == 0
        assert manifest["scale"] == "reduced"
        assert manifest["jobs"] == 1
        assert manifest["ok"] is True
        assert manifest["wall_clock_s"] >= 0
        env = manifest["environment"]
        for key in ("python", "platform", "hostname", "numpy", "git_sha"):
            assert key in env
        entry = manifest["experiments"]["fig05"]
        assert entry["status"] == "ok"
        assert entry["artifact"] == "fig05.json"

    def test_artifact_fields(self, tmp_path, small_report):
        RunStore(tmp_path / "run").write_report(small_report)
        artifact = json.loads((tmp_path / "run" / "fig05.json").read_text())
        assert artifact["name"] == "fig05"
        assert artifact["params"] == {"core": 0, "runs": 3}
        assert artifact["seed"] == 0
        assert artifact["result"]["read_cycles"]
        # table4 is unseeded: its seed is recorded as null.
        table4 = json.loads((tmp_path / "run" / "table4.json").read_text())
        assert table4["seed"] is None

    def test_duration_ns_survives_display_rounding(self, tmp_path, small_report):
        """Sub-millisecond experiments keep their exact monotonic
        duration in duration_ns even when duration_s rounds to 0.000."""
        RunStore(tmp_path / "run").write_report(small_report)
        manifest = json.loads((tmp_path / "run" / MANIFEST_NAME).read_text())
        for name in ("fig05", "table1", "table4"):
            entry = manifest["experiments"][name]
            assert isinstance(entry["duration_ns"], int)
            assert entry["duration_ns"] > 0
            assert entry["duration_s"] == round(entry["duration_ns"] / 1e9, 3)
            artifact = json.loads((tmp_path / "run" / f"{name}.json").read_text())
            assert artifact["duration_ns"] == entry["duration_ns"]

    def test_load_run_round_trip(self, tmp_path, small_report):
        RunStore(tmp_path / "run").write_report(small_report)
        loaded = load_run(tmp_path / "run")
        assert set(loaded["experiments"]) == {"fig05", "table1", "table4"}
        assert (
            loaded["experiments"]["fig05"]["result"]
            == small_report.experiments["fig05"].payload
        )

    def test_load_run_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(tmp_path)


class TestEnvironmentInfo:
    def test_shape(self):
        env = environment_info()
        assert env["python"].count(".") >= 1
        assert env["numpy"] is not None
        # In this checkout the SHA should resolve to a 40-char hex string.
        assert env["git_sha"] is None or len(env["git_sha"]) == 40
