"""Golden-number regression tests for the experiment outputs.

``tests/golden/`` holds the reduced-scale, seed-0 artifact of every
registered experiment (``make golden`` writes them; review the diff).
The simulator is deterministic at fixed seeds, so a failure here means
the *model* changed.  These tests rerun the cheaper experiments at
their golden's params and seed, send each result through ``pickle``
as a lab worker sends it back, and diff :func:`to_payload` of it
against the golden at relative tolerance 1e-6, the comparison ``repro
lab compare <run> tests/golden`` makes.  The others are pinned by that
comparison on every lab run.
"""

import json
import math
import pickle
from functools import lru_cache
from pathlib import Path

import pytest

from repro.cachesim.machines import SKYLAKE_GOLD_6134
from repro.core.profiles import derive_preference_table
from repro.lab.compare import (
    compare_runs,
    format_comparison_report,
    load_baseline,
)
from repro.lab.registry import default_registry
from repro.lab.spec import to_payload

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-6

#: The experiments rerun here: the ten the golden numbers first pinned,
#: plus every one whose reduced run takes under 0.3 s.
RERUN = (
    "fig05", "fig06", "fig07", "fig08", "table3", "table4",
    "fleet-scale", "fleet-failover", "fleet-availability", "fleet-durability",
    "fig04", "fig12", "fig13", "fig14", "table1", "table2", "headroom",
    "traffic-classes", "skylake-port", "ablation-mtu",
    "ablation-rx-strategies", "ablation-prefetcher",
)


def load(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


@lru_cache(maxsize=None)
def rerun(name: str):
    """*name*'s result at its golden's params and seed, pickled and
    unpickled as it crosses the lab's process boundary."""
    golden = load(name)
    kwargs = dict(golden["params"])
    if golden["seed"] is not None:
        kwargs["seed"] = golden["seed"]
    result = default_registry().get(name).runner(**kwargs)
    return pickle.loads(pickle.dumps(result))


def compare_with_golden(name: str):
    report = compare_runs(
        {"experiments": {name: {"name": name, "result": to_payload(rerun(name))}}},
        load_baseline(GOLDEN_DIR),
        names=[name],
    )
    (comparison,) = report.experiments
    return comparison, report


def test_golden_covers_the_registry():
    """One golden per registered experiment, at seed 0 (``None`` for an
    unseeded one) and the spec's reduced params, with no attempts or
    durations that would change between two runs."""
    registry = default_registry()
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == registry.names()
    for name in registry.names():
        spec = registry.get(name)
        golden = load(name)
        assert golden["name"] == name
        assert golden["seed"] == (0 if spec.seeded else None), name
        assert golden["params"] == json.loads(
            json.dumps(spec.params_for("reduced"))
        ), name
        assert not {"attempts", "duration_s", "duration_ns"} & set(golden), name


@pytest.mark.parametrize("name", RERUN)
def test_golden_payload(name):
    """Every metric of the golden, and only those, at rel 1e-6."""
    comparison, report = compare_with_golden(name)
    assert comparison.rel_tol == REL_TOL
    assert comparison.status == "ok", format_comparison_report(report)
    assert not comparison.missing_in_run, comparison.missing_in_run
    assert not comparison.missing_in_baseline, comparison.missing_in_baseline


class TestFig05Latency:
    @pytest.fixture(scope="class")
    def golden(self):
        return load("fig05")["result"]

    @pytest.fixture(scope="class")
    def profile(self):
        return rerun("fig05")

    def test_per_slice_cycles(self, golden, profile):
        for got, want in zip(profile.read_cycles, golden["read_cycles"]):
            assert math.isclose(got, want, rel_tol=REL_TOL), (got, want)
        for got, want in zip(profile.write_cycles, golden["write_cycles"]):
            assert math.isclose(got, want, rel_tol=REL_TOL), (got, want)

    def test_latency_ordering(self, golden, profile):
        """Fig. 5a's shape: from core 0 the even (near-ring) slices are
        strictly cheaper to read than the odd ones, and the fastest
        slice is the frozen one."""
        reads = profile.read_cycles
        assert max(reads[s] for s in range(0, len(reads), 2)) < min(
            reads[s] for s in range(1, len(reads), 2)
        )
        assert profile.fastest_slice == golden["fastest_slice"]
        assert math.isclose(
            profile.read_spread, golden["read_spread"], rel_tol=REL_TOL
        )


class TestFig06Speedup:
    @pytest.fixture(scope="class")
    def golden(self):
        return load("fig06")["result"]

    @pytest.fixture(scope="class")
    def result(self):
        return rerun("fig06")

    def test_per_slice_speedups(self, golden, result):
        for got, want in zip(result.read_speedup_pct, golden["read_speedup_pct"]):
            assert math.isclose(got, want, rel_tol=REL_TOL), (got, want)
        for got, want in zip(
            result.write_speedup_pct, golden["write_speedup_pct"]
        ):
            assert math.isclose(got, want, rel_tol=REL_TOL), (got, want)

    def test_baseline_cycles(self, golden, result):
        assert math.isclose(
            result.normal_read_cycles, golden["normal_read_cycles"], rel_tol=REL_TOL
        )
        assert math.isclose(
            result.normal_write_cycles, golden["normal_write_cycles"], rel_tol=REL_TOL
        )

    def test_near_slices_beat_far_slices(self, result):
        """Fig. 6's qualitative claim survives any regeneration: the
        best slice-local placement beats the worst by a wide margin."""
        assert max(result.read_speedup_pct) > 0
        assert max(result.read_speedup_pct) - min(result.read_speedup_pct) > 10


class TestFig07OpsSweep:
    @pytest.fixture(scope="class")
    def golden(self):
        return load("fig07")["result"]

    @pytest.fixture(scope="class")
    def payload(self):
        return to_payload(rerun("fig07"))

    def test_sizes_pinned(self, golden, payload):
        assert payload["sizes"] == golden["sizes"]

    def test_mops_series(self, golden, payload):
        for placement in ("normal_mops", "slice_mops"):
            for op in ("read", "write"):
                got_series = payload[placement][op]
                want_series = golden[placement][op]
                assert len(got_series) == len(want_series)
                for got, want in zip(got_series, want_series):
                    assert math.isclose(got, want, rel_tol=REL_TOL), (
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
    compare <run> tests/golden` makes: all 24 cells, at rel 1e-6."""
    comparison, report = compare_with_golden("fig08")
    assert comparison.rel_tol == REL_TOL
    assert comparison.status == "ok", format_comparison_report(report)
    assert comparison.compared == 24


class TestTable3Throughput:
    @pytest.fixture(scope="class")
    def golden(self):
        return load("table3")["result"]

    @pytest.fixture(scope="class")
    def payload(self):
        return to_payload(rerun("table3"))

    def test_rows_pinned(self, golden, payload):
        assert len(payload["rows"]) == len(golden["rows"])
        for got, want in zip(payload["rows"], golden["rows"]):
            assert got["scenario"] == want["scenario"]
            assert math.isclose(
                got["throughput_gbps"], want["throughput_gbps"], rel_tol=REL_TOL
            )
            assert math.isclose(
                got["improvement_mbps"], want["improvement_mbps"], rel_tol=REL_TOL
            )

    def test_cachedirector_improves_both_scenarios(self, payload):
        """Table 3's headline: +CD adds throughput in both chains."""
        for row in payload["rows"]:
            assert row["improvement_mbps"] > 0


class TestTable4PreferableSlices:
    def test_exact_match(self):
        golden = load("table4")["result"]
        table = derive_preference_table(SKYLAKE_GOLD_6134.interconnect_factory())
        got = {
            str(core): {"primary": primary, "secondary": list(secondary)}
            for core, (primary, secondary) in table.items()
        }
        assert got == golden["preferable"]


@pytest.mark.parametrize(
    "name",
    ["fleet-scale", "fleet-failover", "fleet-availability", "fleet-durability"],
)
def test_fleet_golden(name):
    """Each fleet golden, rerun at its own params and diffed by the same
    comparison `repro lab compare <run> tests/golden` makes (rel 1e-6;
    every golden metric must be compared)."""
    comparison, report = compare_with_golden(name)
    assert comparison.rel_tol == REL_TOL
    assert comparison.status == "ok", format_comparison_report(report)
    assert not comparison.missing_in_run, comparison.missing_in_run
