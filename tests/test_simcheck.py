"""simcheck (`repro check`): per-rule fixtures, suppressions, outputs,
one parse per file, and the guarantee that the shipped tree itself is
clean under every rule."""

import ast
import json
import re
import shutil
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
FLOW_FIXTURES = Path(__file__).parent / "fixtures" / "deepcheck"
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
        """,
    "lab/registry.py": """
        from repro.experiments.fig99 import run_fig99
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
        """
    _write_tree(tmp_path, files)
    result = run_simcheck([tmp_path], root=tmp_path)
    assert codes(result.active) == ["SIM301"]
    assert "fig98" in result.active[0].message


def test_sim302_flags_missing_serializer(tmp_path):
    """The serializer contract's one checked half: a ``run_*`` entry
    point, whose result ``to_payload`` serializes."""
    files = dict(HYGIENE_OK)
    files["experiments/fig99.py"] = """
        def fig99(seed=0):
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
        def fig97(seed=0):
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
    # The suppressions that do exist are all justified lab
    # wall-clock-provenance cases, or defs kept on purpose (SIM501) —
    # keep the counts pinned so new ones are conscious decisions.
    kept = [f for f in result.suppressed if f.code == "SIM501"]
    others = [f for f in result.suppressed if f.code != "SIM501"]
    assert len(others) == 7
    assert {f.code for f in others} == {"SIM001"}
    assert len(kept) == 43


def test_every_rule_runs_on_one_parse_per_file(tmp_path, monkeypatch):
    """One `run_simcheck` parses each file once and fires every rule."""
    # A whole `repro` package, so the package-wide SIM501 runs too.
    tmp_path = tmp_path / "repro"
    tmp_path.mkdir()
    (tmp_path / "__init__.py").write_text("")
    for fixture in sorted(FIXTURES.glob("*.py")) + sorted(
        FLOW_FIXTURES.glob("*.py")
    ):
        shutil.copy(fixture, tmp_path / fixture.name)
    files = dict(PARITY_OK)
    files["cachesim/engine.py"] = """
        class FastEngine:
            def read(self, core, address):
                pass

            def write(self, core, address):
                pass
        """
    files.update(HYGIENE_OK)
    files["experiments/fig98.py"] = """
        def fig98(seed=0):
            return {}
        """
    _write_tree(tmp_path, files)
    parsed = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(Path(filename).relative_to(tmp_path).as_posix())
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    result = run_simcheck([tmp_path], root=tmp_path)
    assert sorted(parsed) == sorted(
        p.relative_to(tmp_path).as_posix() for p in collect_files([tmp_path])
    )
    assert result.files == len(parsed)
    assert {f.code for f in result.findings} == set(RULES)


def test_analysers_stay_off_the_product_import_path():
    probe = (
        "import sys, repro.cachesim.hierarchy; "
        "print(*sorted(m for m in sys.modules if m.startswith('repro.analysis')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC_REPRO.parent), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    # The sanitizer is the product's one analysis import.
    assert proc.stdout.split() == ["repro.analysis", "repro.analysis.sanitizer"]


def test_python_m_repro_analysis_is_repro_check():
    """Both spellings are one command, defaulting to the installed
    package from any working directory."""
    env = {"PYTHONPATH": str(SRC_REPRO.parent), "PATH": "/usr/bin:/bin"}
    outputs = [
        subprocess.run(
            [sys.executable, "-m", *prefix],
            capture_output=True,
            text=True,
            env=env,
            cwd="/",
        )
        for prefix in (["repro.analysis"], ["repro", "check"])
    ]
    assert [p.returncode for p in outputs] == [0, 0], outputs[0].stderr
    assert outputs[0].stdout == outputs[1].stdout
    assert "0 finding(s), 50 suppressed" in outputs[0].stdout


# ----------------------------------------------------------------------
# SIM501 — public defs that nothing in the package references
# ----------------------------------------------------------------------

#: The five reasons a def may be kept with ``ignore[SIM501]``.
SIM501_REASONS = ("oracle", "e2ebench", "paper claim", "example", "probe")

DEAD_SURFACE = {
    "repro/__init__.py": """
        from repro.util import exported_only

        __all__ = ["exported_only", "listed_only"]
        """,
    "repro/util.py": """
        def used_by_name():
            return 1

        def dead_function():
            return used_by_name()

        def _private_helper():
            return 2

        def dispatched():
            return 3

        def exported_only():
            return 4

        def listed_only():
            return 5

        def recursive_only(n):
            return recursive_only(n - 1) if n else 0

        def kept():  # simcheck: ignore[SIM501] oracle for used_by_name
            return 6

        def imported_as():
            return 7

        if hasattr(int, "bit_count"):
            def hidden_in_a_branch(value):
                return value.bit_count()

        class Widget:
            def used_method(self):
                return 8

            def dead_method(self):
                return self.used_method()

            def __repr__(self):
                return "Widget()"

            def visit_Name(self, node):
                return node
        """,
    "repro/cli.py": """
        import repro.util as util
        from repro.util import imported_as as alias

        def main():
            run = getattr(util, "dispatched")
            return run() + alias() + util.Widget().used_method()
        """,
    "repro/__main__.py": """
        from repro.cli import main

        main()
        """,
}


def _dead_defs(findings):
    return sorted(f.message.split("`")[1] for f in findings if f.code == "SIM501")


def test_sim501_flags_unused_public_defs(tmp_path):
    _write_tree(tmp_path, DEAD_SURFACE)
    result = run_simcheck([tmp_path / "repro"], root=tmp_path)
    # `__all__` entries and `__init__` re-exports are declarations, and
    # a def naming only itself is not used.
    assert _dead_defs(result.active) == [
        "Widget.dead_method",
        "dead_function",
        "exported_only",
        "hidden_in_a_branch",
        "listed_only",
        "recursive_only",
    ]
    assert {f.path for f in result.active} == {"repro/util.py"}


def test_sim501_spares_private_dispatched_and_kept_defs(tmp_path):
    _write_tree(tmp_path, DEAD_SURFACE)
    result = run_simcheck([tmp_path / "repro"], root=tmp_path)
    flagged = _dead_defs(result.active)
    for spared in ("_private_helper", "dispatched", "imported_as", "kept"):
        assert spared not in flagged
    assert not any("__repr__" in name or "visit_" in name for name in flagged)
    assert _dead_defs(result.suppressed) == ["kept"]


def test_sim501_needs_a_whole_package_scan(tmp_path):
    _write_tree(tmp_path, DEAD_SURFACE)
    for paths in ([tmp_path], [tmp_path / "repro" / "util.py"]):
        result = run_simcheck(paths, root=tmp_path)
        assert _dead_defs(result.findings) == []
    partial = run_simcheck([SRC_REPRO / "cachesim"], root=SRC_REPRO)
    assert _dead_defs(partial.findings) == []


def test_sim501_catches_a_new_unused_function(tmp_path):
    package = tmp_path / "repro"
    shutil.copytree(SRC_REPRO, package, ignore=shutil.ignore_patterns("__pycache__"))
    with (package / "mem" / "address.py").open("a") as fh:
        fh.write("\n\ndef brand_new_helper(address):\n    return address\n")
    result = run_simcheck([package], root=tmp_path)
    assert _dead_defs(result.active) == ["brand_new_helper"]


def test_sim501_suppressions_name_a_reason():
    """Every def kept on purpose says why, from the closed set."""
    pattern = re.compile(r"simcheck:\s*ignore(?:-file)?\[[^\]]*SIM501[^\]]*\](.*)")
    seen = 0
    for path in sorted(SRC_REPRO.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            match = pattern.search(line)
            if match is None:
                continue
            seen += 1
            reason = match.group(1).strip()
            where = f"{path.relative_to(SRC_REPRO)}:{lineno}"
            assert reason, f"{where}: SIM501 suppression without a reason"
            assert reason.startswith(SIM501_REASONS), f"{where}: {reason!r}"
    assert seen > 0
