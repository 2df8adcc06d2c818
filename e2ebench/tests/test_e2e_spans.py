"""Self-time arithmetic, span export and wrapper restoration."""

import inspect
import sys
import types

import pytest

from e2ebench import spans
from e2ebench.spans import ROOT, Entry

ENTRIES = [
    Entry("repro.cachesim.x:f", "cachesim", False),
    Entry("repro.kvs.y:g", "kvs", False),
    Entry("repro.core.z:S.__init__", "core", True),
]

# root [0, 10]: kvs [1, 5] holds cachesim [2, 3] and [3.5, 4.5]; the
# setup span core [6, 9] holds cachesim [7, 8].  Completion order.
SPANS = [
    (0, 2.0, 3.0, 2, False),
    (0, 3.5, 4.5, 2, False),
    (1, 1.0, 5.0, 1, False),
    (0, 7.0, 8.0, 2, True),
    (2, 6.0, 9.0, 1, False),
    (ROOT, 0.0, 10.0, 0, False),
]


def test_self_times_subtract_direct_children():
    times = spans.layer_times(SPANS, ENTRIES)
    assert times == pytest.approx({
        ("cachesim", "serve"): 2.0,
        ("kvs", "serve"): 2.0,
        ("cachesim", "setup"): 1.0,
        ("core", "setup"): 2.0,
        ("experiments", "serve"): 3.0,
    })
    assert sum(times.values()) == pytest.approx(10.0)


def test_outermost_setup_and_calls():
    assert spans.outer_setup_seconds(SPANS, ENTRIES) == pytest.approx(3.0)
    halved = spans.outer_setup_seconds(SPANS, ENTRIES, lambda start, end: (end - start) / 2)
    assert halved == pytest.approx(1.5)
    assert spans.layer_calls(SPANS, ENTRIES) == {"cachesim": 3, "kvs": 1, "core": 1}


def test_exported_spans_name_their_parents():
    exported = {s["start_s"]: s for s in spans.spans_to_json(SPANS, ENTRIES)}
    root = exported[0.0]
    assert root["parent"] is None and root["name"] == "rep"
    assert exported[1.0]["parent"] == root["id"]
    assert exported[2.0]["parent"] == exported[1.0]["id"]
    assert exported[3.5]["parent"] == exported[1.0]["id"]
    assert exported[7.0]["parent"] == exported[6.0]["id"]
    assert exported[7.0]["phase"] == "setup"


def _bindings():
    """Every (owner, name) -> object a boundary entry could touch."""
    out = {}
    for module_name, module in list(sys.modules.items()):
        if module_name == "repro" or module_name.startswith("repro."):
            for name, value in vars(module).items():
                out[(module_name, name)] = value
                if inspect.isclass(value):
                    for attr, raw in vars(value).items():
                        out[(module_name, name, attr)] = raw
    return out


def test_every_wrapped_attribute_is_restored():
    from repro.lab.registry import default_registry

    default_registry()  # imports every experiment module
    import repro.cachesim.machines as machines
    import repro.core.slice_aware as slice_aware
    import repro.fleet.server as fleet_server
    import repro.experiments.fleet as experiments_fleet
    import repro.fleet.cluster as cluster

    before = _bindings()
    build = machines.build_hierarchy
    tracer = spans.Tracer(spans.boundary_table(traced=True))
    with tracer:
        assert not tracer.skipped
        assert slice_aware.build_hierarchy is not build
        assert fleet_server.build_hierarchy is machines.build_hierarchy
        assert experiments_fleet.run_fleet_cell is cluster.run_fleet_cell
        assert machines.build_hierarchy.__wrapped__ is build
        # A module first imported during a rep binds the wrapper.
        late = types.ModuleType("repro._late_import_probe")
        late.build_hierarchy = machines.build_hierarchy
        sys.modules[late.__name__] = late
    try:
        assert late.build_hierarchy is build
        after = _bindings()
        after.pop(("repro._late_import_probe", "build_hierarchy"))
        changed = [key for key, value in before.items() if after.get(key) is not value]
        assert changed == []
    finally:
        del sys.modules["repro._late_import_probe"]


def test_missing_entry_points_are_skipped():
    tracer = spans.Tracer([Entry("repro.cachesim.machines:no_such_function", "cachesim", False)])
    with tracer:
        pass
    assert tracer.skipped == ["repro.cachesim.machines:no_such_function"]
