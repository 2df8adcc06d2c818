"""Parallel matrix runner: fan experiments out across worker processes.

Execution model:

* every experiment contributes one task — or several, when its spec
  declares a :class:`~repro.lab.spec.SplitSpec` (the Fig. 7/13/14/15
  sweeps split into independent size/arm/load points);
* tasks run on up to ``--jobs`` one-worker
  :class:`~concurrent.futures.ProcessPoolExecutor` pools, one task per
  pool at a time (``--jobs 1`` runs inline, same code path for
  computing results);
* each task gets a per-task timeout enforced *inside* the worker via
  ``SIGALRM`` — a stuck task raises instead of wedging the pool;
* failures (exceptions, timeouts, worker crashes) are retried a
  bounded number of times; a persistently failing experiment is
  recorded as ``failed`` in the manifest and the rest of the matrix
  still completes;
* a worker crash breaks only the pool of the task that crashed, so
  only a task's own crash or exception spends one of its attempts;
* task seeds derive deterministically from the run's base seed, so
  results are bit-identical regardless of ``--jobs``;
* after merging and serializing, an experiment that ran at exactly
  its preset's parameters has its paper claims checked; a violated
  claim fails the experiment without a retry (the result is
  deterministic, so a rerun would violate it again).
"""

from __future__ import annotations

import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.faults.plan import InjectedFault
from repro.lab.registry import default_registry
from repro.lab.spec import ExperimentSpec


class TaskTimeout(Exception):
    """A task exceeded its per-task wall-clock budget."""


TaskKey = Tuple[str, int]
ProgressFn = Callable[[str], None]


@dataclass(frozen=True)
class LabTask:
    """One schedulable unit: an experiment or one of its sub-tasks."""

    experiment: str
    index: int
    total: int
    params: Mapping[str, Any]
    seed: Optional[int]

    @property
    def key(self) -> TaskKey:
        return (self.experiment, self.index)

    @property
    def label(self) -> str:
        if self.total == 1:
            return self.experiment
        return f"{self.experiment}[{self.index + 1}/{self.total}]"


@dataclass
class TaskOutcome:
    """Terminal state of one task after all its attempts."""

    task: LabTask
    status: str  # "ok" | "failed"
    attempts: int
    duration_s: float
    error: Optional[str] = None
    result: Any = None
    #: Monotonic nanosecond duration of the successful attempt.  The
    #: float ``duration_s`` mirror exists for display; sub-millisecond
    #: work (engine microbenches) must use this field — the store's
    #: rounded seconds lose all precision there.
    duration_ns: int = 0


@dataclass
class ExperimentOutcome:
    """Merged, serialized state of one experiment in the run."""

    name: str
    title: str
    status: str  # "ok" | "failed"
    params: Dict[str, Any]
    seed: Optional[int]
    tasks: int
    attempts: int
    duration_s: float
    error: Optional[str] = None
    result: Any = None          # merged result object (in-process use)
    payload: Any = None         # JSON-ready serialized result
    duration_ns: int = 0        # summed ns-resolution task durations
    #: One ``{"ref", "text", "verdict"}`` record per checked claim;
    #: ``verdict`` is ``"held"``, ``"violated"`` or the error a check
    #: raised.  Empty when the run's parameters were overridden.
    claims: List[Dict[str, str]] = field(default_factory=list)


@dataclass
class RunReport:
    """Everything one ``run_matrix`` invocation produced."""

    seed: int
    scale: str
    jobs: int
    timeout_s: Optional[float]
    retries: int
    wall_clock_s: float
    experiments: Dict[str, ExperimentOutcome] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(e.status == "ok" for e in self.experiments.values())

    def failed_names(self) -> List[str]:
        return sorted(
            name for name, e in self.experiments.items() if e.status != "ok"
        )


def _execute_task(
    experiment: str,
    index: int,
    params: Mapping[str, Any],
    seed: Optional[int],
    timeout_s: Optional[float],
) -> Tuple[Any, int]:
    """Run one task to completion; worker-side (and inline) entry point.

    Resolves the experiment from the process-local default registry —
    forked workers inherit the parent's registrations.  The timeout is
    an in-worker ``SIGALRM`` so an overrunning task raises
    :class:`TaskTimeout` instead of blocking the pool.
    """
    spec = default_registry().get(experiment)
    runner = spec.split.task_runner if spec.split is not None else spec.runner
    kwargs = dict(params)
    if spec.seeded and seed is not None:
        kwargs.setdefault("seed", seed)
    use_alarm = (
        timeout_s is not None
        and timeout_s > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    start = time.perf_counter_ns()  # simcheck: ignore[SIM001] wall-clock duration is provenance, not a result
    if use_alarm:
        def _on_alarm(signum, frame):
            raise TaskTimeout(
                f"{experiment}[{index}] exceeded {timeout_s:g}s"
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        result = runner(**kwargs)
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    return result, time.perf_counter_ns() - start  # simcheck: ignore[SIM001] provenance only


def _describe_error(exc: BaseException) -> str:
    name = type(exc).__name__
    text = str(exc) or "worker process died (likely crash or OOM kill)"
    return f"{name}: {text}"


def _pool_context():
    """Prefer fork so workers share the parent's registry state."""
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def _run_tasks_inline(
    tasks: Sequence[LabTask],
    timeout_s: Optional[float],
    retries: int,
    note: Callable[[LabTask, TaskOutcome], None],
) -> Dict[TaskKey, TaskOutcome]:
    outcomes: Dict[TaskKey, TaskOutcome] = {}
    for task in tasks:
        attempts = 0
        while True:
            attempts += 1
            start = time.perf_counter_ns()  # simcheck: ignore[SIM001] provenance only
            try:
                result, duration_ns = _execute_task(
                    task.experiment, task.index, task.params, task.seed, timeout_s
                )
                outcomes[task.key] = TaskOutcome(
                    task,
                    "ok",
                    attempts,
                    duration_ns / 1e9,
                    result=result,
                    duration_ns=duration_ns,
                )
                break
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                # An escaped InjectedFault means a resilience layer
                # failed to absorb its own chaos — a determinism bug a
                # retry would only mask.  Fail immediately.
                if not isinstance(exc, InjectedFault) and attempts <= retries:
                    continue
                failed_ns = time.perf_counter_ns() - start  # simcheck: ignore[SIM001] provenance only
                outcomes[task.key] = TaskOutcome(
                    task,
                    "failed",
                    attempts,
                    failed_ns / 1e9,
                    error=_describe_error(exc),
                    duration_ns=failed_ns,
                )
                break
        note(task, outcomes[task.key])
    return outcomes


def _run_tasks_pooled(
    tasks: Sequence[LabTask],
    jobs: int,
    timeout_s: Optional[float],
    retries: int,
    note: Callable[[LabTask, TaskOutcome], None],
    retry_note: Callable[[LabTask, int, str], None],
) -> Dict[TaskKey, TaskOutcome]:
    outcomes: Dict[TaskKey, TaskOutcome] = {}
    attempts: Dict[TaskKey, int] = {t.key: 0 for t in tasks}
    context = _pool_context()
    pending = deque(tasks)
    # Up to ``jobs`` one-worker pools, each holding one task at a time:
    # a worker crash breaks only the pool of the task that crashed, so
    # no other task is lost with it.  A pool is reused until it breaks.
    idle: List[ProcessPoolExecutor] = []
    running: Dict[Future, Tuple[LabTask, ProcessPoolExecutor]] = {}
    try:
        while pending or running:
            while pending and len(running) < jobs:
                task = pending.popleft()
                pool = (
                    idle.pop()
                    if idle
                    else ProcessPoolExecutor(max_workers=1, mp_context=context)
                )
                future = pool.submit(
                    _execute_task,
                    task.experiment,
                    task.index,
                    task.params,
                    task.seed,
                    timeout_s,
                )
                running[future] = (task, pool)
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                task, pool = running.pop(future)
                attempts[task.key] += 1
                try:
                    result, duration_ns = future.result()
                except Exception as exc:  # noqa: BLE001 - includes BrokenProcessPool
                    if isinstance(exc, BrokenProcessPool):
                        pool.shutdown(wait=True)
                    else:
                        idle.append(pool)
                    error = _describe_error(exc)
                    # Escaped injected faults are fatal (see inline runner).
                    if (
                        not isinstance(exc, InjectedFault)
                        and attempts[task.key] <= retries
                    ):
                        pending.append(task)
                        retry_note(task, attempts[task.key], error)
                    else:
                        outcomes[task.key] = TaskOutcome(
                            task, "failed", attempts[task.key], 0.0, error=error
                        )
                        note(task, outcomes[task.key])
                    continue
                idle.append(pool)
                outcomes[task.key] = TaskOutcome(
                    task,
                    "ok",
                    attempts[task.key],
                    duration_ns / 1e9,
                    result=result,
                    duration_ns=duration_ns,
                )
                note(task, outcomes[task.key])
    finally:
        for pool in idle + [pool for _, pool in running.values()]:
            pool.shutdown(wait=True)
    return outcomes


def check_claims(
    spec: ExperimentSpec, scale: str, payload: Any
) -> List[Dict[str, str]]:
    """Check every claim *spec* declares at *scale* against *payload*."""
    verdicts = []
    for claim in spec.claims:
        if scale not in claim.scales:
            continue
        try:
            verdict = "held" if claim.check(payload) else "violated"
        except Exception as exc:  # noqa: BLE001 - a broken check fails its claim
            verdict = f"check raised {_describe_error(exc)}"
        verdicts.append({"ref": claim.ref, "text": claim.text, "verdict": verdict})
    return verdicts


def build_tasks(
    spec: ExperimentSpec, params: Mapping[str, Any], base_seed: int
) -> List[LabTask]:
    """The task list one experiment contributes to the matrix."""
    exp_seed = spec.seed_for(base_seed) if spec.seeded else None
    if spec.split is None:
        return [LabTask(spec.name, 0, 1, dict(params), exp_seed)]
    subtasks = list(spec.split.make_tasks(params))
    return [
        LabTask(spec.name, i, len(subtasks), dict(sub), exp_seed)
        for i, sub in enumerate(subtasks)
    ]


def run_matrix(
    names: Optional[Sequence[str]] = None,
    *,
    jobs: int = 1,
    seed: int = 0,
    scale: str = "reduced",
    timeout_s: Optional[float] = None,
    retries: int = 2,
    params_override: Optional[Mapping[str, Mapping[str, Any]]] = None,
    progress: Optional[ProgressFn] = None,
) -> RunReport:
    """Run a set of registered experiments, optionally in parallel.

    Args:
        names: experiments to run (default: the whole registry).
        jobs: worker processes; ``1`` executes inline.
        seed: base seed every experiment's seed derives from.
        scale: ``"reduced"`` (smoke-sized) or ``"full"`` parameters.
        timeout_s: per-task wall-clock budget (``None`` = unlimited).
        retries: extra attempts after a task fails/crashes/times out.
        params_override: per-experiment parameter overrides, e.g.
            ``{"fig13": {"n_bulk_packets": 4000}}``; an experiment that
            no longer runs at its preset's parameters checks no claims.
        progress: callable receiving one line per task completion.

    Returns:
        A :class:`RunReport`; persist it with
        :meth:`repro.lab.store.RunStore.write_report`.
    """
    registry = default_registry()
    selected = list(names) if names else registry.names()
    specs = [registry.get(name) for name in selected]

    tasks: List[LabTask] = []
    exp_params: Dict[str, Dict[str, Any]] = {}
    for spec in specs:
        params = spec.params_for(scale)
        if params_override and spec.name in params_override:
            params.update(params_override[spec.name])
        exp_params[spec.name] = params
        tasks.extend(build_tasks(spec, params, seed))

    total = len(tasks)
    done = [0]

    def note(task: LabTask, outcome: TaskOutcome) -> None:
        done[0] += 1
        if progress is not None:
            mark = "ok" if outcome.status == "ok" else f"FAILED ({outcome.error})"
            progress(
                f"[{done[0]}/{total}] {task.label}: {mark} "
                f"({outcome.duration_s:.1f}s, attempt {outcome.attempts})"
            )

    def retry_note(task: LabTask, attempt: int, error: str) -> None:
        if progress is not None:
            progress(f"[retry] {task.label}: attempt {attempt} failed — {error}")

    started = time.perf_counter()  # simcheck: ignore[SIM001] provenance only
    if jobs <= 1:
        outcomes = _run_tasks_inline(tasks, timeout_s, retries, note)
    else:
        outcomes = _run_tasks_pooled(
            tasks, jobs, timeout_s, retries, note, retry_note
        )
    wall_clock_s = time.perf_counter() - started  # simcheck: ignore[SIM001] provenance only

    report = RunReport(
        seed=seed,
        scale=scale,
        jobs=jobs,
        timeout_s=timeout_s,
        retries=retries,
        wall_clock_s=wall_clock_s,
    )
    for spec in specs:
        spec_tasks = [t for t in tasks if t.experiment == spec.name]
        spec_outcomes = [outcomes[t.key] for t in spec_tasks]
        total_attempts = sum(o.attempts for o in spec_outcomes)
        total_duration_ns = sum(o.duration_ns for o in spec_outcomes)
        failures = [o for o in spec_outcomes if o.status != "ok"]
        outcome = ExperimentOutcome(
            name=spec.name,
            title=spec.title,
            status="failed" if failures else "ok",
            params=exp_params[spec.name],
            seed=spec.seed_for(seed) if spec.seeded else None,
            tasks=len(spec_tasks),
            attempts=total_attempts,
            duration_s=total_duration_ns / 1e9,
            duration_ns=total_duration_ns,
        )
        if failures:
            outcome.error = "; ".join(
                f"{o.task.label}: {o.error}" for o in failures
            )
        else:
            try:
                results = [o.result for o in spec_outcomes]
                merged = (
                    spec.split.merge(exp_params[spec.name], results)
                    if spec.split is not None
                    else results[0]
                )
                outcome.result = merged
                outcome.payload = spec.serializer(merged)
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                outcome.status = "failed"
                outcome.error = _describe_error(exc)
            else:
                if exp_params[spec.name] == spec.params_for(scale):
                    outcome.claims = check_claims(spec, scale, outcome.payload)
                broken = [
                    f"{v['ref']}: {v['text']} ({v['verdict']})"
                    for v in outcome.claims
                    if v["verdict"] != "held"
                ]
                if broken:
                    outcome.status = "failed"
                    outcome.error = "claim not held: " + "; ".join(broken)
        report.experiments[spec.name] = outcome
    return report
