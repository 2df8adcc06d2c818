"""The whole-program half of `repro check`: call-graph edge cases,
seed-flow taint, the FLOW rule fixtures, the check and `deepcheck
graph` CLIs, and the guarantee that the shipped tree has no FLOW
finding, active or suppressed."""

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.deepcheck.callgraph import build_callgraph
from repro.analysis.deepcheck.dataflow import worker_reachable
from repro.analysis.simcheck import RULES, run_simcheck
from repro.cli import main as repro_main

FIXTURES = Path(__file__).parent / "fixtures" / "deepcheck"
SIM_FIXTURES = Path(__file__).parent / "fixtures" / "simcheck"
REPO = Path(__file__).parent.parent
SRC_REPRO = REPO / "src" / "repro"


def codes(findings):
    return [f.code for f in findings]


def _write_tree(tmp_path, files):
    for rel, body in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
    return tmp_path


def graph_of(tree):
    return run_simcheck([tree], root=tree).graph


# ----------------------------------------------------------------------
# FLOW fixtures: the fig04 dropped-seed regression and worker state
# ----------------------------------------------------------------------

def test_fig04_dropped_seed_regression():
    """The exact bug class fixed in fig04 must keep firing."""
    result = run_simcheck([FIXTURES / "fig04_dropped_seed.py"], root=FIXTURES)
    # Forwarding by keyword, by position and by `**` is clean; the bare
    # call and the call that passes only a seed-derived plan fire.
    assert codes(result.active) == ["FLOW001", "FLOW001"]
    assert codes(result.suppressed) == ["FLOW001"]
    text = (FIXTURES / "fig04_dropped_seed.py").read_text().splitlines()
    for finding in result.active:
        assert "finding: FLOW001" in text[finding.line - 1]
    assert "run_cell" in result.active[1].message


def test_flow_worker_state_and_reseed():
    result = run_simcheck([FIXTURES / "flow_worker_state.py"], root=FIXTURES)
    assert sorted(codes(result.active)) == ["FLOW002", "FLOW003", "SIM002"]
    text = (FIXTURES / "flow_worker_state.py").read_text().splitlines()
    for finding in result.active:
        assert f"finding: {finding.code}" in text[finding.line - 1]


def test_unseeded_rng_is_one_finding():
    """`default_rng()` in a seeded method is SIM002's alone."""
    result = run_simcheck([FIXTURES / "flow_worker_state.py"], root=FIXTURES)
    text = (FIXTURES / "flow_worker_state.py").read_text().splitlines()
    line = next(
        i for i, src in enumerate(text, start=1) if "default_rng()" in src
    )
    assert [f.code for f in result.findings if f.line == line] == ["SIM002"]


def test_flow_columns_are_one_based():
    result = run_simcheck([FIXTURES / "fig04_dropped_seed.py"], root=FIXTURES)
    tree = ast.parse((FIXTURES / "fig04_dropped_seed.py").read_text())
    calls = {
        node.lineno: node.col_offset
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("make_workload", "run_cell")
    }
    assert result.findings
    for finding in result.findings:
        assert finding.col == calls[finding.line] + 1


def test_ignore_flow_codes_inline_and_file_wide(tmp_path):
    tree = _write_tree(
        tmp_path,
        {
            "mod.py": """
            # simcheck: ignore-file[FLOW003] fixture: a deliberate worker log
            LOG = []


            class ExperimentSpec:
                def __init__(self, name, runner):
                    self.runner = runner


            def helper(seed=0):
                return seed


            def run_exp(seed=0):
                LOG.append(seed)
                return helper()  # simcheck: ignore[FLOW001] fixture


            def _build():
                return ExperimentSpec(name="exp", runner=run_exp)
            """
        },
    )
    result = run_simcheck([tree], root=tree)
    assert result.active == []
    assert sorted(codes(result.suppressed)) == ["FLOW001", "FLOW003"]


def test_flow_worker_entry_point_registered():
    result = run_simcheck([FIXTURES / "flow_worker_state.py"], root=FIXTURES)
    assert result.graph.entry_points == {
        "fixture-exp": "flow_worker_state.py::run_exp"
    }


# ----------------------------------------------------------------------
# Call-graph edge cases
# ----------------------------------------------------------------------

def test_callgraph_decorator_edges(tmp_path):
    tree = _write_tree(
        tmp_path,
        {
            "mod.py": """
            def timed(fn):
                return fn


            @timed
            def helper():
                return 1


            def root():
                return helper()
            """
        },
    )
    graph = graph_of(tree)
    calls = graph.callees_of("mod.py::root")
    assert any(
        s.callee == "mod.py::helper" and s.kind == "call" for s in calls
    )
    deco = graph.callees_of("mod.py::helper")
    assert any(
        s.callee == "mod.py::timed" and s.kind == "decorator" for s in deco
    )


def test_callgraph_partial_targets(tmp_path):
    tree = _write_tree(
        tmp_path,
        {
            "mod.py": """
            from functools import partial


            def worker(x):
                return x


            def build():
                return partial(worker, 1)
            """
        },
    )
    graph = graph_of(tree)
    sites = graph.callees_of("mod.py::build")
    assert any(
        s.callee == "mod.py::worker" and s.kind == "partial" for s in sites
    )


def test_callgraph_registry_entry_points(tmp_path):
    tree = _write_tree(
        tmp_path,
        {
            "mod.py": """
            class ExperimentSpec:
                def __init__(self, name, runner):
                    self.name = name
                    self.runner = runner


            def run_fig09(seed=0):
                return seed


            def _build():
                return ExperimentSpec(name="fig09", runner=run_fig09)
            """
        },
    )
    graph = graph_of(tree)
    assert graph.entry_points == {"fig09": "mod.py::run_fig09"}
    # The runner reference is also a real edge (kind "ref").
    sites = graph.callees_of("mod.py::_build")
    assert any(
        s.callee == "mod.py::run_fig09" and s.kind == "ref" for s in sites
    )


def test_callgraph_getattr_constant_resolution(tmp_path):
    tree = _write_tree(
        tmp_path,
        {
            "mod.py": """
            class Engine:
                def access(self, addr):
                    return addr


            def dispatch(engine: Engine, addr):
                return getattr(engine, "access")(addr)
            """
        },
    )
    graph = graph_of(tree)
    sites = graph.callees_of("mod.py::dispatch")
    assert any(
        s.callee == "mod.py::Engine.access" and s.kind == "getattr"
        for s in sites
    )


def test_callgraph_container_element_inference(tmp_path):
    # `for stage in self.stages:` resolves stage.apply via the declared
    # List[Stage] element type — across modules.
    tree = _write_tree(
        tmp_path,
        {
            "stage.py": """
            class Stage:
                def apply(self, item):
                    return item + 1
            """,
            "pipeline.py": """
            from typing import List, Sequence

            from stage import Stage


            class Pipeline:
                def __init__(self, stages: Sequence[Stage]):
                    self.stages: List[Stage] = list(stages)

                def run(self, item):
                    for stage in self.stages:
                        item = stage.apply(item)
                    return item
            """,
        },
    )
    graph = graph_of(tree)
    sites = graph.callees_of("pipeline.py::Pipeline.run")
    apply_sites = [s for s in sites if s.callee == "stage.py::Stage.apply"]
    assert apply_sites
    assert graph.imports["pipeline.py"] == ["stage.py"]


def test_callgraph_cycles_terminate(tmp_path):
    tree = _write_tree(
        tmp_path,
        {
            "mod.py": """
            class ExperimentSpec:
                def __init__(self, name, runner):
                    self.runner = runner


            def ping(n):
                if n <= 0:
                    return 0
                return pong(n - 1)


            def pong(n):
                if n <= 0:
                    return 0
                return ping(n - 1)


            def root(batches):
                for batch in batches:
                    ping(batch)


            def _build():
                return ExperimentSpec(name="cycle", runner=root)
            """
        },
    )
    graph = graph_of(tree)
    assert any(s.callee == "mod.py::pong" for s in graph.callees_of("mod.py::ping"))
    assert any(s.callee == "mod.py::ping" for s in graph.callees_of("mod.py::pong"))
    # The lab-worker reachability walk crosses the cycle and stops.
    reachable = worker_reachable(graph)
    assert {"mod.py::root", "mod.py::ping", "mod.py::pong"} <= set(reachable)
    assert set(reachable.values()) == {"cycle"}
    assert run_simcheck([tree], root=tree).active == []


@pytest.fixture(scope="module")
def order_tree(tmp_path_factory):
    base = tmp_path_factory.mktemp("deepcheck-order")
    return _write_tree(
        base,
        {
            "a.py": """
            from b import helper


            def entry(xs):
                for x in xs:
                    helper(x)
            """,
            "b.py": """
            from c import Leaf


            def helper(x):
                return Leaf().get(x)
            """,
            "c.py": """
            class Leaf:
                def get(self, x):
                    return x


            class Spec:
                def __init__(self, name, runner):
                    self.runner = runner
            """,
            "d.py": """
            from a import entry
            from c import Spec


            def _build():
                return Spec(name="ordered", runner=entry)
            """,
        },
    )


def _graph_of_files(files, root):
    """The graph of *files*, parsed and handed over in their given order."""
    return build_callgraph(
        {f.relative_to(root).as_posix(): ast.parse(f.read_text()) for f in files}
    )


def _graph_snapshot(graph):
    return (
        sorted(graph.functions),
        {
            caller: [(s.callee, s.line, s.col, s.kind) for s in sites]
            for caller, sites in graph.edges.items()
        },
        dict(graph.entry_points),
        dict(graph.imports),
    )


@settings(max_examples=10, deadline=None)
@given(perm=st.permutations([0, 1, 2, 3]))
def test_graph_stable_under_input_order(order_tree, perm):
    """The graph is a pure function of the file *set*, not its order."""
    files = sorted(order_tree.glob("*.py"))
    baseline = _graph_snapshot(_graph_of_files(files, order_tree))
    shuffled = [files[i] for i in perm]
    assert _graph_snapshot(_graph_of_files(shuffled, order_tree)) == baseline


# ----------------------------------------------------------------------
# CLI: `repro check` on the FLOW fixtures, `repro deepcheck graph`
# ----------------------------------------------------------------------

def test_cli_report_exit_codes(capsys):
    rc = repro_main(["check", str(FIXTURES / "fig04_dropped_seed.py")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FLOW001" in out
    assert "2 finding(s), 1 suppressed" in out


def test_cli_report_json(capsys):
    rc = repro_main(["check", "--json", str(FIXTURES)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert {"files", "findings", "suppressed"} <= set(payload)
    assert {f["code"] for f in payload["findings"]} == {
        "FLOW001",
        "FLOW002",
        "FLOW003",
        "SIM002",
    }


def test_cli_report_github_mode(capsys):
    rc = repro_main(
        ["check", "--github", str(FIXTURES / "fig04_dropped_seed.py")]
    )
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    # `    bad = make_workload(64)`: the call starts at 0-based column 10.
    assert lines[0].startswith("::error file=")
    assert ",line=23,col=11,title=FLOW001::" in lines[0]


def test_cli_report_list_rules(capsys):
    rc = repro_main(["check", "--list-rules"])
    assert rc == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines()]
    assert listed == sorted(RULES)
    assert {"FLOW001", "FLOW002", "FLOW003", "SIM001", "SIM401"} <= set(listed)
    assert "SIM101" not in listed


def test_cli_graph_pattern(capsys):
    rc = repro_main(
        [
            "deepcheck",
            "graph",
            "--pattern",
            "run_fig04",
            str(FIXTURES / "fig04_dropped_seed.py"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "run_fig04" in out and "make_workload" in out
    rc = repro_main(
        ["deepcheck", "graph", "--pattern", "no_such_symbol", str(FIXTURES)]
    )
    assert rc == 1


# ----------------------------------------------------------------------
# Shipped tree: no FLOW finding, active or suppressed
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def shipped():
    return run_simcheck([SRC_REPRO], root=SRC_REPRO.parent)


def test_shipped_tree_is_deepcheck_clean(shipped):
    flow = [f for f in shipped.findings if f.code.startswith("FLOW")]
    assert flow == [], "\n".join(f.text() for f in flow)


def test_shipped_graph_covers_tree(shipped):
    graph = shipped.graph
    assert shipped.files == graph.files == len(list(SRC_REPRO.rglob("*.py")))
    assert len(graph.functions) > 800
    assert graph.n_edges() > 1000
    assert len(graph.entry_points) >= 20  # the lab registry's figures


# ----------------------------------------------------------------------
# Satellite: `repro check --rules / --exclude-rules`
# ----------------------------------------------------------------------

def test_simcheck_select_filter():
    result = run_simcheck(
        [SIM_FIXTURES / "sim001_nondet.py"],
        root=SIM_FIXTURES,
        select={"SIM001"},
    )
    assert set(codes(result.active)) == {"SIM001"}
    result = run_simcheck(
        [SIM_FIXTURES / "sim001_nondet.py"],
        root=SIM_FIXTURES,
        select={"SIM002"},
    )
    assert result.active == []


def test_simcheck_exclude_filter():
    unfiltered = run_simcheck(
        [SIM_FIXTURES / "sim001_nondet.py"], root=SIM_FIXTURES
    )
    assert "SIM001" in codes(unfiltered.active)
    excluded = run_simcheck(
        [SIM_FIXTURES / "sim001_nondet.py"],
        root=SIM_FIXTURES,
        exclude={"SIM001"},
    )
    assert "SIM001" not in codes(excluded.active)
    assert excluded.suppressed == []  # filtered before partitioning


def test_repro_check_rule_filtering_cli():
    env = {"PYTHONPATH": str(SRC_REPRO.parent), "PATH": "/usr/bin:/bin"}
    base = [sys.executable, "-m", "repro", "check"]
    picked = subprocess.run(
        base + ["--rules", "SIM002", str(SIM_FIXTURES / "sim001_nondet.py")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert picked.returncode == 0, picked.stdout + picked.stderr
    dropped = subprocess.run(
        base
        + ["--exclude-rules", "SIM001", str(SIM_FIXTURES / "sim001_nondet.py")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert dropped.returncode == 0, dropped.stdout + dropped.stderr


# ----------------------------------------------------------------------
# `repro deepcheck graph` wired into the main CLI; `report` is gone
# ----------------------------------------------------------------------

def test_repro_deepcheck_subcommand():
    env = {"PYTHONPATH": str(SRC_REPRO.parent), "PATH": "/usr/bin:/bin"}
    base = [sys.executable, "-m", "repro", "deepcheck"]
    proc = subprocess.run(
        base + ["graph"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "deepcheck graph:" in proc.stdout
    gone = subprocess.run(
        base + ["report"], capture_output=True, text=True, env=env
    )
    assert gone.returncode == 2
