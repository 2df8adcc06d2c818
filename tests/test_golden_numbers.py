"""Golden-number regression tests for the headline experiment outputs.

The simulator is deterministic at fixed seeds, so the published-figure
pipelines must keep producing the numbers frozen in ``tests/golden/``.
A failure here means the *model* changed — if that was deliberate, run
``PYTHONPATH=src python tests/golden/regenerate.py`` and review the
diff; the tolerances stored alongside each golden file absorb float
noise only.
"""

import json
import math
from pathlib import Path

import pytest

from repro.cachesim.machines import SKYLAKE_GOLD_6134
from repro.core.profiles import derive_preference_table
from repro.experiments.fig05_access_time import run_fig05
from repro.experiments.fig06_speedup import run_fig06
from repro.experiments.fig07_ops_sweep import fig07_to_dict, run_fig07
from repro.experiments.fig08_kvs import fig08_to_dict, run_fig08
from repro.experiments.fleet import (
    fleet_availability_to_dict,
    fleet_durability_to_dict,
    fleet_failover_to_dict,
    fleet_scale_to_dict,
    run_fleet_availability,
    run_fleet_durability,
    run_fleet_failover,
    run_fleet_scale,
)
from repro.experiments.tables import run_table3, table3_to_dict
from repro.lab.compare import (
    compare_runs,
    format_comparison_report,
    load_baseline,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def load(name: str) -> dict:
    return json.loads((GOLDEN_DIR / name).read_text())


class TestFig05Latency:
    @pytest.fixture(scope="class")
    def golden(self):
        return load("fig05_latency.json")

    @pytest.fixture(scope="class")
    def profile(self, golden):
        return run_fig05(**golden["params"])

    def test_per_slice_cycles(self, golden, profile):
        rel = golden["rel_tol"]
        for got, want in zip(profile.read_cycles, golden["read_cycles"]):
            assert math.isclose(got, want, rel_tol=rel), (got, want)
        for got, want in zip(profile.write_cycles, golden["write_cycles"]):
            assert math.isclose(got, want, rel_tol=rel), (got, want)

    def test_latency_ordering(self, golden, profile):
        """Fig. 5a's shape: from core 0 the even (near-ring) slices are
        strictly cheaper to read than the odd ones, and the fastest
        slice is the frozen one."""
        reads = profile.read_cycles
        assert max(reads[s] for s in range(0, len(reads), 2)) < min(
            reads[s] for s in range(1, len(reads), 2)
        )
        assert profile.fastest_slice() == golden["fastest_slice"]
        assert math.isclose(
            profile.read_spread(), golden["read_spread"],
            rel_tol=golden["rel_tol"],
        )


class TestFig06Speedup:
    @pytest.fixture(scope="class")
    def golden(self):
        return load("fig06_speedup.json")

    @pytest.fixture(scope="class")
    def result(self, golden):
        return run_fig06(**golden["params"])

    def test_per_slice_speedups(self, golden, result):
        tol = golden["abs_tol_pct"]
        for got, want in zip(result.read_speedup_pct, golden["read_speedup_pct"]):
            assert abs(got - want) <= tol, (got, want)
        for got, want in zip(
            result.write_speedup_pct, golden["write_speedup_pct"]
        ):
            assert abs(got - want) <= tol, (got, want)

    def test_baseline_cycles(self, golden, result):
        assert math.isclose(
            result.normal_read_cycles, golden["normal_read_cycles"], rel_tol=1e-6
        )
        assert math.isclose(
            result.normal_write_cycles, golden["normal_write_cycles"], rel_tol=1e-6
        )

    def test_near_slices_beat_far_slices(self, result):
        """Fig. 6's qualitative claim survives any regeneration: the
        best slice-local placement beats the worst by a wide margin."""
        assert max(result.read_speedup_pct) > 0
        assert max(result.read_speedup_pct) - min(result.read_speedup_pct) > 10


class TestFig07OpsSweep:
    @pytest.fixture(scope="class")
    def golden(self):
        return load("fig07_ops_sweep.json")

    @pytest.fixture(scope="class")
    def payload(self, golden):
        return fig07_to_dict(run_fig07(**golden["params"]))

    def test_sizes_pinned(self, golden, payload):
        assert payload["sizes"] == golden["sizes"]

    def test_mops_series(self, golden, payload):
        rel = golden["rel_tol"]
        for placement in ("normal_mops", "slice_mops"):
            for op in ("read", "write"):
                got_series = payload[placement][op]
                want_series = golden[placement][op]
                assert len(got_series) == len(want_series)
                for got, want in zip(got_series, want_series):
                    assert math.isclose(got, want, rel_tol=rel), (
                        placement, op, got, want,
                    )

    def test_slice_aware_wins_between_l2_and_slice(self, payload):
        """Fig. 7's qualitative shape survives regeneration: at sizes
        between L2 (256 kB) and one slice (2.5 MB), slice-aware
        placement beats normal allocation."""
        sizes = payload["sizes"]
        for i, size in enumerate(sizes):
            if 256 * 1024 < size <= 2 << 20:
                assert payload["slice_mops"]["read"][i] > (
                    payload["normal_mops"]["read"][i]
                )


def test_fig08_golden():
    """Fig. 8 at its golden params, diffed by the comparison `repro lab
    compare <run> tests/golden` makes: all 24 cells, at the golden's
    ``rel_tol``."""
    golden = load("fig08_kvs.json")
    payload = fig08_to_dict(run_fig08(**golden["params"]))
    report = compare_runs(
        {"experiments": {"fig08": {"name": "fig08", "result": payload}}},
        load_baseline(GOLDEN_DIR),
        names=["fig08"],
    )
    (comparison,) = report.experiments
    assert comparison.rel_tol == golden["rel_tol"]
    assert comparison.status == "ok", format_comparison_report(report)
    assert comparison.compared == 24


class TestTable3Throughput:
    @pytest.fixture(scope="class")
    def golden(self):
        return load("table3_throughput.json")

    @pytest.fixture(scope="class")
    def payload(self, golden):
        return table3_to_dict(run_table3(**golden["params"]))

    def test_rows_pinned(self, golden, payload):
        rel = golden["rel_tol"]
        assert len(payload["rows"]) == len(golden["rows"])
        for got, want in zip(payload["rows"], golden["rows"]):
            assert got["scenario"] == want["scenario"]
            assert math.isclose(
                got["throughput_gbps"], want["throughput_gbps"], rel_tol=rel
            )
            assert math.isclose(
                got["improvement_mbps"], want["improvement_mbps"], rel_tol=rel
            )

    def test_cachedirector_improves_both_scenarios(self, payload):
        """Table 3's headline: +CD adds throughput in both chains."""
        for row in payload["rows"]:
            assert row["improvement_mbps"] > 0


class TestTable4PreferableSlices:
    def test_exact_match(self):
        golden = load("table4_preferable_slices.json")
        table = derive_preference_table(SKYLAKE_GOLD_6134.interconnect_factory())
        got = {
            str(core): {"primary": primary, "secondary": list(secondary)}
            for core, (primary, secondary) in table.items()
        }
        assert got == golden["preferable"]


@pytest.mark.parametrize(
    "name, filename, run, to_dict",
    [
        pytest.param(name, f"{name.replace('-', '_')}.json", run, to_dict,
                     id=name)
        for name, run, to_dict in (
            ("fleet-scale", run_fleet_scale, fleet_scale_to_dict),
            ("fleet-failover", run_fleet_failover, fleet_failover_to_dict),
            ("fleet-availability", run_fleet_availability,
             fleet_availability_to_dict),
            ("fleet-durability", run_fleet_durability,
             fleet_durability_to_dict),
        )
    ],
)
def test_fleet_golden(name, filename, run, to_dict):
    """Each fleet golden, rerun at its own params and diffed by the same
    comparison `repro lab compare <run> tests/golden` makes (the golden
    file's stored ``rel_tol``; every golden metric must be compared)."""
    golden = load(filename)
    result = {"name": name, "result": to_dict(run(**golden["params"]))}
    report = compare_runs(
        {"experiments": {name: result}},
        load_baseline(GOLDEN_DIR),
        names=[name],
    )
    (comparison,) = report.experiments
    assert comparison.rel_tol == golden["rel_tol"]
    assert comparison.status == "ok", format_comparison_report(report)
    assert not comparison.missing_in_run, comparison.missing_in_run
