"""Paper claims as lab invariants: checking, scale filtering, failure paths."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.lab.compare import load_baseline
from repro.lab.registry import default_registry
from repro.lab.runner import check_claims, run_matrix
from repro.lab.spec import Claim, ExperimentSpec
from repro.lab.store import RunStore, load_run

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_EXPERIMENTS = ("fig05", "fig06", "fig07", "table3", "table4")


def _value_runner(value=1, seed=0):
    return {"value": value}


def _identity(result):
    return result


def _raising_serializer(result):
    raise RuntimeError("cannot serialize")


def _raising_check(payload):
    return payload["missing"] > 0


@pytest.fixture
def inject():
    """Register throwaway specs into the default registry, then clean up."""
    registry = default_registry()
    added = []

    def _add(**kwargs):
        kwargs.setdefault("title", kwargs["name"])
        kwargs.setdefault("runner", _value_runner)
        kwargs.setdefault("serializer", _identity)
        kwargs.setdefault("default_params", {"value": 3})
        spec = ExperimentSpec(**kwargs)
        registry.register(spec)
        added.append(spec.name)
        return spec

    yield _add
    for name in added:
        registry._specs.pop(name, None)


class TestClaimChecking:
    def test_violated_claim_fails_run_and_is_named(self, inject, tmp_path):
        inject(
            name="lab-test-claims",
            claims=(
                Claim("Fig. 0", "value is positive", lambda p: p["value"] > 0),
                Claim("Fig. 0", "value exceeds ten", lambda p: p["value"] > 10),
            ),
        )
        report = run_matrix(["lab-test-claims"], jobs=1, retries=3)
        outcome = report.experiments["lab-test-claims"]
        assert outcome.status == "failed"
        assert outcome.attempts == 1  # a deterministic violation is not retried
        assert "Fig. 0: value exceeds ten (violated)" in outcome.error
        assert "value is positive" not in outcome.error
        assert [v["verdict"] for v in outcome.claims] == ["held", "violated"]

        RunStore(tmp_path / "run").write_report(report)
        loaded = load_run(tmp_path / "run")
        entry = loaded["manifest"]["experiments"]["lab-test-claims"]
        assert entry["status"] == "failed"
        assert "value exceeds ten" in entry["error"]
        assert entry["claims"] == outcome.claims
        assert loaded["manifest"]["failed"] == ["lab-test-claims"]
        # The payload the claim judged is kept for inspection.
        assert loaded["experiments"]["lab-test-claims"]["result"] == {"value": 3}

    def test_cli_exits_nonzero_and_report_prints_verdicts(self, inject, tmp_path, capsys):
        inject(
            name="lab-test-claims",
            claims=(Claim("Fig. 0", "value exceeds ten", lambda p: p["value"] > 10),),
        )
        out_dir = str(tmp_path / "run")
        assert main(["lab", "run", "lab-test-claims", "--out", out_dir, "--quiet"]) == 1
        assert "value exceeds ten" in capsys.readouterr().err
        assert main(["lab", "report", out_dir]) == 1
        assert "[violated] Fig. 0: value exceeds ten" in capsys.readouterr().out

    def test_override_run_checks_no_claims(self, inject):
        inject(
            name="lab-test-claims",
            claims=(Claim("Fig. 0", "value exceeds ten", lambda p: p["value"] > 10),),
        )
        report = run_matrix(
            ["lab-test-claims"], params_override={"lab-test-claims": {"value": 2}}
        )
        outcome = report.experiments["lab-test-claims"]
        assert outcome.status == "ok"
        assert outcome.claims == []

    def test_scale_filters_claims(self, inject):
        inject(
            name="lab-test-claims",
            reduced_params={"value": 1},
            claims=(
                Claim("Fig. 0", "both", lambda p: True),
                Claim("Fig. 0", "reduced only", lambda p: True, scales=("reduced",)),
                Claim("Fig. 0", "full only", lambda p: True, scales=("full",)),
            ),
        )
        for scale, expected in (
            ("reduced", ["both", "reduced only"]),
            ("full", ["both", "full only"]),
        ):
            report = run_matrix(["lab-test-claims"], scale=scale)
            assert [v["text"] for v in report.experiments["lab-test-claims"].claims] == (
                expected
            )

    def test_raising_check_fails_its_claim(self, inject):
        inject(
            name="lab-test-claims",
            claims=(Claim("Fig. 0", "reads a missing key", _raising_check),),
        )
        outcome = run_matrix(["lab-test-claims"]).experiments["lab-test-claims"]
        assert outcome.status == "failed"
        assert outcome.claims[0]["verdict"] == "check raised KeyError: 'missing'"
        assert "reads a missing key" in outcome.error

    def test_raising_serializer_still_writes_manifest(self, inject, tmp_path):
        inject(name="lab-test-badser", serializer=_raising_serializer)
        inject(name="lab-test-fine")
        out_dir = tmp_path / "run"
        code = main(
            ["lab", "run", "lab-test-badser", "lab-test-fine", "--out", str(out_dir), "--quiet"]
        )
        assert code == 1
        manifest = load_run(out_dir)["manifest"]
        entry = manifest["experiments"]["lab-test-badser"]
        assert entry["status"] == "failed"
        assert entry["error"] == "RuntimeError: cannot serialize"
        assert manifest["experiments"]["lab-test-fine"]["status"] == "ok"
        assert manifest["failed"] == ["lab-test-badser"]


class TestRegisteredClaims:
    def test_every_claim_names_a_known_scale(self):
        for spec in default_registry().specs():
            for claim in spec.claims:
                assert claim.scales and set(claim.scales) <= {"reduced", "full"}, claim

    @pytest.mark.parametrize("name", GOLDEN_EXPERIMENTS)
    def test_reduced_claims_hold_on_golden_payloads(self, name):
        """The goldens pin the reduced preset, so its claims must hold there."""
        spec = default_registry().get(name)
        record = load_baseline(GOLDEN_DIR)["experiments"][name]
        golden_params = {k: v for k, v in record["params"].items() if k != "seed"}
        if golden_params:
            assert golden_params == spec.params_for("reduced")
        verdicts = check_claims(spec, "reduced", record["result"])
        assert verdicts, f"{name} declares no reduced claims"
        assert all(v["verdict"] == "held" for v in verdicts), verdicts
