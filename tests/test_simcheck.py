"""simcheck linter: per-rule fixtures, suppressions, outputs, and the
guarantee that the shipped tree itself is clean."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.simcheck import (
    RULES,
    collect_files,
    format_result,
    run_simcheck,
)

FIXTURES = Path(__file__).parent / "fixtures" / "simcheck"
SRC_REPRO = Path(__file__).parent.parent / "src" / "repro"


def check_fixture(name):
    result = run_simcheck([FIXTURES / name], root=FIXTURES)
    return result


def codes(findings):
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# Per-rule fixtures: each must fire, and each suppression must hold
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "fixture, code, active_count",
    [
        ("sim001_nondet.py", "SIM001", 4),
        ("sim002_unseeded.py", "SIM002", 2),
        ("sim003_set_iter.py", "SIM003", 2),
        ("sim101_seed_thread.py", "SIM101", 1),
        ("sim102_typing_lie.py", "SIM102", 2),
        ("sim401_fault_rng.py", "SIM401", 2),
    ],
)
def test_rule_fires_on_fixture(fixture, code, active_count):
    result = check_fixture(fixture)
    active = [f for f in result.active if f.code == code]
    assert len(active) == active_count, format_result(result)
    # Every fixture also carries exactly one suppressed occurrence.
    assert codes(result.suppressed) == [code]
    # Nothing *else* fires on the fixture.
    assert set(codes(result.active)) == {code}


def test_finding_locations_are_real():
    result = check_fixture("sim001_nondet.py")
    text = (FIXTURES / "sim001_nondet.py").read_text().splitlines()
    for finding in result.active:
        assert "finding:" in text[finding.line - 1]


# ----------------------------------------------------------------------
# SIM201 — engine parity (tmp tree)
# ----------------------------------------------------------------------

def _write_tree(tmp_path, files):
    for rel, body in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
    return tmp_path


PARITY_OK = {
    "cachesim/hierarchy.py": """
        class CacheHierarchy:
            def read(self, core, address):
                pass

            def write(self, core, address):
                pass

            def access_batch(self, core, addresses, writes):
                pass
        """,
    "cachesim/engine.py": """
        class FastEngine:
            def read(self, core, address):
                pass

            def write(self, core, address):
                pass

            def access_batch(self, core, addresses, writes):
                pass
        """,
}


def test_sim201_clean_on_matching_surfaces(tmp_path):
    _write_tree(tmp_path, PARITY_OK)
    result = run_simcheck([tmp_path], root=tmp_path)
    assert codes(result.active) == []


def test_sim201_flags_missing_method(tmp_path):
    files = dict(PARITY_OK)
    files["cachesim/engine.py"] = """
        class FastEngine:
            def read(self, core, address):
                pass

            def access_batch(self, core, addresses, writes):
                pass
        """
    _write_tree(tmp_path, files)
    result = run_simcheck([tmp_path], root=tmp_path)
    assert codes(result.active) == ["SIM201"]
    assert "write" in result.active[0].message


def test_sim201_flags_kwarg_drift(tmp_path):
    files = dict(PARITY_OK)
    files["cachesim/engine.py"] = """
        class FastEngine:
            def read(self, core, address, prefetch=False):
                pass

            def write(self, core, address):
                pass

            def access_batch(self, core, addresses, writes):
                pass
        """
    _write_tree(tmp_path, files)
    result = run_simcheck([tmp_path], root=tmp_path)
    assert codes(result.active) == ["SIM201"]
    assert "prefetch" in result.active[0].message


def test_sim201_flags_hierarchy_only_engine_kwarg(tmp_path):
    # No kwarg is exempt: a per-call engine override on the hierarchy
    # side only is drift like any other.
    files = dict(PARITY_OK)
    files["cachesim/hierarchy.py"] = """
        class CacheHierarchy:
            def read(self, core, address):
                pass

            def write(self, core, address):
                pass

            def access_batch(self, core, addresses, writes, engine=None):
                pass
        """
    _write_tree(tmp_path, files)
    result = run_simcheck([tmp_path], root=tmp_path)
    assert codes(result.active) == ["SIM201"]
    assert "engine" in result.active[0].message


def test_sim201_clean_on_the_real_tree():
    result = run_simcheck([SRC_REPRO / "cachesim"], root=SRC_REPRO)
    assert [f for f in result.active if f.code == "SIM201"] == []


# ----------------------------------------------------------------------
# SIM301 / SIM302 — experiment hygiene (tmp tree)
# ----------------------------------------------------------------------

HYGIENE_OK = {
    "experiments/fig99.py": """
        def run_fig99(seed=0):
            return {"seed": seed}

        def fig99_to_dict(result):
            return dict(result)
        """,
    "lab/registry.py": """
        from repro.experiments.fig99 import fig99_to_dict, run_fig99
        """,
}


def test_experiment_hygiene_clean(tmp_path):
    _write_tree(tmp_path, HYGIENE_OK)
    result = run_simcheck([tmp_path], root=tmp_path)
    assert codes(result.active) == []


def test_sim301_flags_unregistered_module(tmp_path):
    files = dict(HYGIENE_OK)
    files["experiments/fig98.py"] = """
        def run_fig98(seed=0):
            return {}

        def fig98_to_dict(result):
            return dict(result)
        """
    _write_tree(tmp_path, files)
    result = run_simcheck([tmp_path], root=tmp_path)
    assert codes(result.active) == ["SIM301"]
    assert "fig98" in result.active[0].message


def test_sim302_flags_missing_serializer(tmp_path):
    files = dict(HYGIENE_OK)
    files["experiments/fig99.py"] = """
        def run_fig99(seed=0):
            return {"seed": seed}
        """
    _write_tree(tmp_path, files)
    result = run_simcheck([tmp_path], root=tmp_path)
    assert codes(result.active) == ["SIM302"]


def test_support_module_marker_opts_out(tmp_path):
    files = dict(HYGIENE_OK)
    files["experiments/common.py"] = """
        # simcheck: support-module
        def helper():
            return 1
        """
    _write_tree(tmp_path, files)
    result = run_simcheck([tmp_path], root=tmp_path)
    assert codes(result.active) == []


def test_ignore_file_suppresses_file_scope_findings(tmp_path):
    files = dict(HYGIENE_OK)
    files["experiments/fig97.py"] = """
        # simcheck: ignore-file[SIM301, SIM302] justification here
        def run_fig97(seed=0):
            return {}
        """
    _write_tree(tmp_path, files)
    result = run_simcheck([tmp_path], root=tmp_path)
    assert codes(result.active) == []
    assert sorted(codes(result.suppressed)) == ["SIM301", "SIM302"]


# ----------------------------------------------------------------------
# SIM401 — fault modules (tmp tree; the fixture covers the name heuristic)
# ----------------------------------------------------------------------

def test_sim401_flags_rng_in_faults_module(tmp_path):
    files = {
        "faults/hooks.py": """
            import numpy as np

            def maybe_drop(seed):
                return np.random.default_rng(seed).random() < 0.5
            """,
    }
    _write_tree(tmp_path, files)
    result = run_simcheck([tmp_path], root=tmp_path)
    assert codes(result.active) == ["SIM401"]
    assert "hooks.py" in result.active[0].path


def test_sim401_exempts_the_plan_stream_factory(tmp_path):
    files = {
        "faults/plan.py": """
            import numpy as np

            class FaultClock:
                def stream(self, site, seed):
                    return np.random.default_rng([seed, 12345])
            """,
    }
    _write_tree(tmp_path, files)
    result = run_simcheck([tmp_path], root=tmp_path)
    assert codes(result.active) == []


# ----------------------------------------------------------------------
# Output modes, select, CLI plumbing
# ----------------------------------------------------------------------

def test_select_restricts_rules():
    result = run_simcheck(
        [FIXTURES / "sim001_nondet.py"], root=FIXTURES, select={"SIM002"}
    )
    assert result.findings == []


def test_json_output_is_parseable():
    result = check_fixture("sim002_unseeded.py")
    payload = json.loads(format_result(result, "json"))
    assert payload["files"] == 1
    assert {f["code"] for f in payload["findings"]} == {"SIM002"}
    assert len(payload["suppressed"]) == 1


def test_github_output_format():
    result = check_fixture("sim003_set_iter.py")
    lines = format_result(result, "github").splitlines()
    assert lines[0].startswith("::error file=")
    assert "title=SIM003" in lines[0]


def test_collect_files_expands_directories():
    files = collect_files([FIXTURES])
    assert (FIXTURES / "sim001_nondet.py") in files
    assert all(f.suffix == ".py" for f in files)


def test_every_emitted_code_is_catalogued():
    for name in FIXTURES.glob("*.py"):
        for finding in run_simcheck([name], root=FIXTURES).findings:
            assert finding.code in RULES


def test_cli_exit_codes():
    env_src = str(SRC_REPRO.parent)
    base = [sys.executable, "-m", "repro", "check"]
    dirty = subprocess.run(
        base + [str(FIXTURES / "sim001_nondet.py")],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert dirty.returncode == 1
    assert "SIM001" in dirty.stdout


def test_shipped_tree_is_clean():
    """The repo's own sources pass `repro check` (acceptance gate)."""
    result = run_simcheck([SRC_REPRO], root=SRC_REPRO.parent)
    assert result.active == [], format_result(result)
    # The suppressions that do exist are all justified lab/bench
    # wall-clock-provenance or shared-serializer cases — keep the
    # count pinned so new ones are conscious decisions.
    assert len(result.suppressed) == 12
