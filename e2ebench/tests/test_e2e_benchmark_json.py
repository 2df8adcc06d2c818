"""BENCHMARK.json follows the benchmark contract and matches the code."""

import json
import re
from pathlib import Path

from e2ebench import spans, workloads

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def test_top_level_shape():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 1 <= len(BENCH["command"]) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in BENCH["command"])
    assert not any(a.startswith("/") or ".." in a.split("/") for a in BENCH["command"])
    assert 1 <= len(BENCH["paths"]) <= 16
    for path in BENCH["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/") and ".." not in path
        assert (ROOT / path).is_dir()
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60


def test_names_units_and_counts():
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = []
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_setup_s_has_the_largest_bound():
    by_name = {m["name"]: m for m in BENCH["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_workloads_match_the_code():
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]


def test_layer_metrics_cover_every_layer_and_map_to_predictions():
    layer_names = {m["name"] for m in BENCH["per_layer"]}
    for layer in spans.LAYERS[:-1]:
        assert {f"{layer}.calls", f"{layer}.setup_pct", f"{layer}.serve_pct"} <= layer_names
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    mapped = [m for effect in workloads.LAYER_EFFECTS for m in effect.layer_metrics]
    assert sorted(mapped) == sorted(layer_names)
    for effect in workloads.LAYER_EFFECTS:
        assert effect.moves and set(effect.moves) <= e2e
        assert effect.on or effect.flat_on
        assert set(effect.on) | set(effect.flat_on) <= set(workloads.WORKLOADS)
        assert not set(effect.on) & set(effect.flat_on)


def test_boundary_table_layers_are_known():
    entries = spans.boundary_table(traced=True)
    assert len({e.target for e in entries}) == len(entries)
    assert {e.layer for e in entries} == set(spans.LAYERS[:-1])
    assert spans.TRACKED <= {e.target for e in entries}
