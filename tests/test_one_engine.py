"""One cache engine: every hierarchy serves on the fast engine.

A hierarchy builds its ``FastEngine`` on the first access, and the
reference path is reachable only through the differential harness
(``repro.cachesim.diff.reference_engine``).  The guard tests walk the
source tree so the ``engine=`` knob cannot creep back into product
code.
"""

import ast
import dataclasses
import random
from pathlib import Path

import pytest

from repro.cachesim.ddio import DdioEngine
from repro.cachesim.diff import random_trace, reference_engine, state_fingerprint
from repro.cachesim.hierarchy import LatencySpec
from repro.cachesim.machines import HASWELL_E5_2667V3, build_hierarchy

SRC_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"

SMALL_HASWELL = dataclasses.replace(
    HASWELL_E5_2667V3, l1_sets=8, l1_ways=2, l2_sets=16, l2_ways=4,
    llc_sets=32, llc_ways=8,
)

#: The runners that keep an ``engine`` argument, accepting only
#: ``"fast"``: ``e2ebench/digests.json`` pins it in the fig07 and
#: fleet-scale params, and the fleet goldens name it.
PINNED_RUNNERS = {
    ("experiments/fig07_ops_sweep.py", "run_fig07"),
    ("experiments/fleet.py", "run_fleet_scale"),
    ("experiments/fleet.py", "run_fleet_failover"),
    ("experiments/fleet.py", "run_fleet_availability"),
    ("experiments/fleet.py", "run_fleet_durability"),
}
PINNED_EXPERIMENTS = {
    "fig07", "fleet-scale", "fleet-failover", "fleet-availability",
    "fleet-durability",
}


def _sources():
    for path in sorted(SRC_REPRO.rglob("*.py")):
        yield path.relative_to(SRC_REPRO).as_posix(), ast.parse(path.read_text())


# ----------------------------------------------------------------------
# Lazy default engine
# ----------------------------------------------------------------------

def test_engine_is_built_on_the_first_access_only():
    h = build_hierarchy(HASWELL_E5_2667V3)
    assert h.engine_name == "fast"
    assert h._fast_engine is None
    h.read(0, 0x1000)
    assert h._fast_engine is not None
    # read/write now go straight to the engine's bound methods.
    assert h.__dict__["read"].__self__ is h._fast_engine
    assert h.__dict__["write"].__self__ is h._fast_engine


@pytest.mark.parametrize("first", ["batch", "dma"])
def test_batch_and_dma_build_the_engine_too(first):
    h = build_hierarchy(HASWELL_E5_2667V3)
    if first == "batch":
        h.access_batch([0x1000, 0x2000], False, 0)
    else:
        DdioEngine(h).dma_write(0x1000, 256)
    assert h._fast_engine is not None


def test_reference_engine_builds_oracle_hierarchies():
    with reference_engine():
        h = build_hierarchy(HASWELL_E5_2667V3)
    after = build_hierarchy(HASWELL_E5_2667V3)
    assert h.engine_name == "reference"
    assert after.engine_name == "fast"
    h.read(0, 0x1000)
    h.access_batch([0x2000], True, 1)
    DdioEngine(h).dma_write(0x3000, 128)
    DdioEngine(h).dma_read(0x3000, 128)
    assert h._fast_engine is None


def test_reference_engine_restores_the_default_on_error():
    with pytest.raises(RuntimeError):
        with reference_engine():
            raise RuntimeError("boom")
    assert build_hierarchy(HASWELL_E5_2667V3).engine_name == "fast"


def test_set_engine_rejects_unknown_names():
    h = build_hierarchy(HASWELL_E5_2667V3)
    with pytest.raises(ValueError, match="bogus"):
        h.set_engine("bogus")
    assert h.engine_name == "fast"


@pytest.mark.differential
def test_mid_stream_flips_match_a_pure_reference_run():
    """Flipping engines between chunks keeps every access identical to
    ``access_line`` on a hierarchy that never left the reference."""
    spec = SMALL_HASWELL
    trace = random_trace(random.Random(31), 3000, spec.n_cores)
    reference = build_hierarchy(spec)
    flipping = build_hierarchy(spec)
    expected, got = [], []
    for index, (addresses, writes, cores) in enumerate(trace.chunks(250)):
        flipping.set_engine("reference" if index % 2 else "fast")
        for address, write, core in zip(addresses, writes, cores):
            expected.append(reference.access_line(core, address, write).cycles)
            access = flipping.write if write else flipping.read
            got.append(access(core, address))
    assert got == expected
    assert state_fingerprint(flipping) == state_fingerprint(reference)


@pytest.mark.differential
def test_ddio_ways_changed_after_the_engine_is_built():
    """Re-pointing the DDIO ways after the first DMA reaches the
    engine's span path, as it reaches the reference fill."""
    with reference_engine():
        reference = build_hierarchy(SMALL_HASWELL)
    fast = build_hierarchy(SMALL_HASWELL)
    for h in (reference, fast):
        ddio = DdioEngine(h)
        ddio.dma_write(0x10000, 1500)
        h.llc.ddio_way_tuple = tuple(range(h.llc.n_ways - 4, h.llc.n_ways))
        for i in range(64):
            ddio.dma_write(0x20000 + i * 4096, 1500)
    assert fast._fast_engine is not None
    assert state_fingerprint(reference) == state_fingerprint(fast)


# ----------------------------------------------------------------------
# Frozen latency spec
# ----------------------------------------------------------------------

def test_latency_spec_is_frozen():
    spec = LatencySpec()
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.l1_hit = 5  # type: ignore[misc]
    h = build_hierarchy(HASWELL_E5_2667V3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.latency.dram = 100  # type: ignore[misc]


# ----------------------------------------------------------------------
# Guards against the engine knob coming back
# ----------------------------------------------------------------------

def test_set_engine_is_called_only_from_the_diff_harness():
    callers = sorted(
        rel
        for rel, tree in _sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "set_engine"
        and rel != "cachesim/diff.py"
    )
    assert callers == []


def test_only_the_pinned_runners_take_engine():
    takers = set()
    for rel, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [
                    a.arg
                    for a in args.posonlyargs + args.args + args.kwonlyargs
                ]
                if "engine" in names:
                    takers.add((rel, getattr(node, "name", "<lambda>")))
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    target = getattr(stmt, "target", None)
                    if isinstance(stmt, ast.AnnAssign) and getattr(
                        target, "id", None
                    ) == "engine":
                        takers.add((rel, node.name))
    assert takers == PINNED_RUNNERS


def test_no_preset_sets_engine_outside_the_pinned_runners():
    from repro.lab.registry import default_registry

    registry = default_registry()
    setters = {
        spec.name
        for spec in registry.specs()
        for scale in ("full", "reduced")
        if "engine" in spec.params_for(scale)
    }
    assert setters <= PINNED_EXPERIMENTS
    for name in PINNED_EXPERIMENTS:
        for scale in ("full", "reduced"):
            assert registry.get(name).params_for(scale)["engine"] == "fast"


@pytest.mark.parametrize("runner", sorted(name for _, name in PINNED_RUNNERS))
def test_pinned_runners_reject_any_other_engine(runner):
    from repro.experiments import fig07_ops_sweep, fleet

    module = fig07_ops_sweep if runner == "run_fig07" else fleet
    with pytest.raises(ValueError, match="engine must be 'fast'"):
        getattr(module, runner)(engine="reference")
