"""Runner behaviour: parallel identity, retries, timeouts, crashes."""

import json
import os
import time
from pathlib import Path

import pytest

from repro.lab.registry import default_registry
from repro.lab.runner import TaskTimeout, build_tasks, run_matrix
from repro.lab.spec import ExperimentSpec, SplitSpec
from repro.lab.store import RunStore, load_run

# ----------------------------------------------------------------------
# Module-level runners so forked workers can execute them.
# ----------------------------------------------------------------------

def _ok_runner(value=1, seed=0):
    return {"value": value, "seed": seed, "pid": os.getpid()}


def _flaky_runner(counter_path="", fail_times=1, seed=0):
    """Fails the first ``fail_times`` invocations (counted on disk)."""
    path = Path(counter_path)
    n = int(path.read_text()) if path.exists() else 0
    path.write_text(str(n + 1))
    if n < fail_times:
        raise RuntimeError(f"transient failure #{n + 1}")
    return {"succeeded_on_attempt": n + 1}


def _always_failing_runner(seed=0):
    raise ValueError("boom")


def _escaped_fault_runner(counter_path="", seed=0):
    """Simulates a resilience bug: an InjectedFault escapes the run."""
    from repro.faults.plan import KvsRequestFault

    path = Path(counter_path)
    n = int(path.read_text()) if path.exists() else 0
    path.write_text(str(n + 1))
    raise KvsRequestFault("escaped the resilience layer")


def _sleeper_runner(duration=5.0, seed=0):
    time.sleep(duration)
    return {"slept": duration}


def _crashing_runner(counter_path="", crash_times=1, delay=0.0, seed=0):
    """Kills the worker process outright, after ``delay`` seconds, for
    the first ``crash_times`` calls."""
    path = Path(counter_path)
    n = int(path.read_text()) if path.exists() else 0
    path.write_text(str(n + 1))
    if n < crash_times:
        time.sleep(delay)
        os._exit(137)
    return {"survived": True}


def _identity_payload(result):
    return result


@pytest.fixture
def inject():
    """Register throwaway specs into the default registry, then clean up."""
    registry = default_registry()
    added = []

    def _add(**kwargs):
        kwargs.setdefault("serializer", _identity_payload)
        spec = ExperimentSpec(**kwargs)
        registry.register(spec)
        added.append(spec.name)
        return spec

    yield _add
    for name in added:
        registry._specs.pop(name, None)


class TestParallelIdentity:
    """--jobs N must produce bit-identical payloads to --jobs 1."""

    NAMES = ["fig07", "fig13", "fig14", "fig15"]
    TINY = {
        "fig07": {"n_ops": 200, "sizes": [131072, 262144]},
        "fig13": {"n_bulk_packets": 3000, "micro_packets": 200, "runs": 1},
        "fig14": {"n_bulk_packets": 3000, "micro_packets": 200, "runs": 1},
        "fig15": {"n_bulk_packets": 3000, "micro_packets": 150},
    }

    @pytest.mark.slow
    def test_split_sweeps_bit_identical(self):
        serial = run_matrix(self.NAMES, jobs=1, seed=0, params_override=self.TINY)
        parallel = run_matrix(self.NAMES, jobs=2, seed=0, params_override=self.TINY)
        assert serial.ok and parallel.ok
        for name in self.NAMES:
            a = serial.experiments[name].payload
            b = parallel.experiments[name].payload
            assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True), name

    def test_split_matches_monolithic_runner(self):
        """The split+merge path (one task per arm) equals calling the
        figure runner directly (both arms over one offered traffic)."""
        from repro.experiments.fig13_forwarding import run_fig13
        from repro.experiments.fig14_service_chain import run_fig14
        from repro.experiments.nfv_common import comparison_to_dict

        runners = {"fig13": run_fig13, "fig14": run_fig14}
        tiny = {name: self.TINY[name] for name in runners}
        report = run_matrix(list(runners), jobs=2, seed=0, params_override=tiny)
        for name, runner in runners.items():
            direct = comparison_to_dict(
                runner(seed=0, offered_gbps=100.0, **self.TINY[name])
            )
            assert json.dumps(report.experiments[name].payload, sort_keys=True) == (
                json.dumps(direct, sort_keys=True)
            ), name

    def test_seed_changes_results(self):
        tiny = {"fig13": self.TINY["fig13"]}
        a = run_matrix(["fig13"], jobs=1, seed=0, params_override=tiny)
        b = run_matrix(["fig13"], jobs=1, seed=1, params_override=tiny)
        assert a.experiments["fig13"].payload != b.experiments["fig13"].payload


class TestRetries:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_failure_retried(self, inject, tmp_path, jobs):
        inject(
            name="lab-test-flaky",
            title="flaky",
            runner=_flaky_runner,
            default_params={
                "counter_path": str(tmp_path / f"flaky-{jobs}"),
                "fail_times": 1,
            },
        )
        report = run_matrix(["lab-test-flaky"], jobs=jobs, retries=2)
        outcome = report.experiments["lab-test-flaky"]
        assert outcome.status == "ok"
        assert outcome.attempts == 2
        assert outcome.payload["succeeded_on_attempt"] == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_persistent_failure_reported_not_raised(self, inject, tmp_path, jobs):
        inject(
            name="lab-test-broken",
            title="broken",
            runner=_always_failing_runner,
        )
        inject(
            name="lab-test-fine",
            title="fine",
            runner=_ok_runner,
            default_params={"value": 7},
        )
        report = run_matrix(
            ["lab-test-broken", "lab-test-fine"], jobs=jobs, retries=1
        )
        broken = report.experiments["lab-test-broken"]
        assert broken.status == "failed"
        assert broken.attempts == 2  # initial try + 1 retry
        assert "ValueError: boom" in broken.error
        # The rest of the matrix still completes.
        assert report.experiments["lab-test-fine"].status == "ok"
        assert not report.ok
        assert report.failed_names() == ["lab-test-broken"]

    def test_failed_experiment_lands_in_manifest(self, inject, tmp_path):
        inject(name="lab-test-broken", title="broken", runner=_always_failing_runner)
        report = run_matrix(["lab-test-broken"], jobs=1, retries=0)
        RunStore(tmp_path / "run").write_report(report)
        loaded = load_run(tmp_path / "run")
        entry = loaded["manifest"]["experiments"]["lab-test-broken"]
        assert entry["status"] == "failed"
        assert "ValueError: boom" in entry["error"]
        assert entry["artifact"] is None
        assert loaded["manifest"]["ok"] is False
        assert loaded["manifest"]["failed"] == ["lab-test-broken"]
        assert "lab-test-broken" not in loaded["experiments"]


class TestEscapedInjectedFaults:
    """An InjectedFault reaching the runner is a resilience bug: no retry."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_escaped_fault_fails_without_retry(self, inject, tmp_path, jobs):
        counter = tmp_path / f"escape-{jobs}"
        inject(
            name="lab-test-escape",
            title="escape",
            runner=_escaped_fault_runner,
            default_params={"counter_path": str(counter)},
        )
        report = run_matrix(["lab-test-escape"], jobs=jobs, retries=3)
        outcome = report.experiments["lab-test-escape"]
        assert outcome.status == "failed"
        assert outcome.attempts == 1  # fatal on first sight, despite retries=3
        assert int(counter.read_text()) == 1  # the runner really ran once
        assert "KvsRequestFault" in outcome.error

    def test_ordinary_failure_still_retries_alongside(self, inject, tmp_path):
        """Sanity: the no-retry rule is specific to InjectedFault."""
        inject(
            name="lab-test-escape2",
            title="escape",
            runner=_escaped_fault_runner,
            default_params={"counter_path": str(tmp_path / "escape2")},
        )
        inject(
            name="lab-test-transient",
            title="transient",
            runner=_flaky_runner,
            default_params={
                "counter_path": str(tmp_path / "transient"),
                "fail_times": 1,
            },
        )
        report = run_matrix(
            ["lab-test-escape2", "lab-test-transient"], jobs=1, retries=2
        )
        assert report.experiments["lab-test-escape2"].attempts == 1
        assert report.experiments["lab-test-transient"].status == "ok"
        assert report.experiments["lab-test-transient"].attempts == 2
        assert report.failed_names() == ["lab-test-escape2"]


class TestTimeouts:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_slow_task_times_out(self, inject, jobs):
        inject(
            name="lab-test-sleeper",
            title="sleeper",
            runner=_sleeper_runner,
            default_params={"duration": 30.0},
        )
        start = time.perf_counter()
        report = run_matrix(
            ["lab-test-sleeper"], jobs=jobs, timeout_s=0.3, retries=0
        )
        elapsed = time.perf_counter() - start
        outcome = report.experiments["lab-test-sleeper"]
        assert outcome.status == "failed"
        assert "TaskTimeout" in outcome.error
        assert elapsed < 15.0  # did not wait out the 30s sleep

    def test_timeout_cleared_after_task(self, inject):
        """A fast task under a timeout leaves no pending alarm behind."""
        inject(
            name="lab-test-quick",
            title="quick",
            runner=_sleeper_runner,
            default_params={"duration": 0.01},
        )
        report = run_matrix(["lab-test-quick"], jobs=1, timeout_s=5.0)
        assert report.experiments["lab-test-quick"].status == "ok"
        time.sleep(0.05)  # an alarm left armed would fire here


class TestWorkerCrash:
    def test_crash_retried_on_fresh_pool(self, inject, tmp_path):
        inject(
            name="lab-test-crasher",
            title="crasher",
            runner=_crashing_runner,
            default_params={
                "counter_path": str(tmp_path / "crash"),
                "crash_times": 1,
            },
        )
        report = run_matrix(["lab-test-crasher"], jobs=2, retries=2)
        outcome = report.experiments["lab-test-crasher"]
        assert outcome.status == "ok"
        assert outcome.payload == {"survived": True}
        assert outcome.attempts >= 2

    def test_persistent_crash_marked_failed(self, inject, tmp_path):
        inject(
            name="lab-test-dier",
            title="dier",
            runner=_crashing_runner,
            default_params={
                "counter_path": str(tmp_path / "die"),
                "crash_times": 99,
                "delay": 0.2,
            },
        )
        # Still sleeping when the dier crashes.
        inject(
            name="lab-test-bystander",
            title="bystander",
            runner=_sleeper_runner,
            default_params={"duration": 1.0},
        )
        report = run_matrix(
            ["lab-test-dier", "lab-test-bystander"], jobs=2, retries=1
        )
        dier = report.experiments["lab-test-dier"]
        assert dier.status == "failed"
        assert "BrokenProcessPool" in dier.error
        assert dier.attempts == 2
        # The bystander spends no attempt on the dier's crash.
        bystander = report.experiments["lab-test-bystander"]
        assert bystander.status == "ok"
        assert bystander.attempts == 1


class TestParallelOverlap:
    @pytest.mark.slow
    def test_pool_overlaps_independent_tasks(self, inject):
        """Four sleep-bound tasks overlap under --jobs 4.

        Uses sleeps rather than real experiments so the assertion holds
        on single-core CI hosts too: overlap is a property of the
        scheduler, compute speedup additionally needs free cores.
        """
        for i in range(4):
            inject(
                name=f"lab-test-nap{i}",
                title="nap",
                runner=_sleeper_runner,
                default_params={"duration": 0.5},
            )
        names = [f"lab-test-nap{i}" for i in range(4)]
        start = time.perf_counter()
        serial = run_matrix(names, jobs=1)
        serial_wall = time.perf_counter() - start
        start = time.perf_counter()
        parallel = run_matrix(names, jobs=4)
        parallel_wall = time.perf_counter() - start
        assert serial.ok and parallel.ok
        assert serial_wall >= 1.9  # 4 × 0.5s back to back
        assert parallel_wall < serial_wall / 1.5


class TestTaskBuilding:
    def test_unsplit_spec_single_task(self):
        spec = default_registry().get("fig05")
        tasks = build_tasks(spec, spec.params_for("reduced"), base_seed=0)
        assert len(tasks) == 1
        assert tasks[0].label == "fig05"
        assert tasks[0].seed == 0

    def test_split_spec_task_per_point(self):
        spec = default_registry().get("fig15")
        params = spec.params_for("reduced")
        tasks = build_tasks(spec, params, base_seed=0)
        assert len(tasks) == 2 * len(params["loads_gbps"])
        assert tasks[0].label.startswith("fig15[1/")

    def test_timeout_exception_is_picklable(self):
        import pickle

        exc = TaskTimeout("fig13[0] exceeded 5s")
        assert str(pickle.loads(pickle.dumps(exc))) == str(exc)
