"""Experiment declarations for the lab: specs, splits, and the registry.

An :class:`ExperimentSpec` is the declarative contract one experiment
offers the orchestrator: how to run it, at which default/reduced
parameters, how to serialize its result to JSON, (optionally) how to
split it into independent sub-tasks that workers can execute in
parallel and merge back bit-identically, and which of the paper's
qualitative results (:class:`Claim`) its payload must show.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: Seeds stay in numpy's legal range.
_SEED_MODULUS = 2**31


def derive_seed(base: int, name: str, index: int = 0) -> int:
    """Deterministically derive a task seed from the run's base seed.

    The default registry pins every experiment's ``seed_offset`` to 0
    so lab runs at base seed 0 stay comparable with direct
    ``run_*(seed=0)`` calls and the golden baselines; the derivation
    exists for registrants that *want* decorrelated seeds (offset by
    a name/index hash) and for the runner's internal bookkeeping.
    """
    if index == 0:
        return base % _SEED_MODULUS
    return (base + zlib.crc32(f"{name}#{index}".encode())) % _SEED_MODULUS


@dataclass(frozen=True)
class SplitSpec:
    """How to decompose one experiment into independent sub-tasks.

    ``make_tasks(params)`` returns one kwargs dict per sub-task;
    ``task_runner(**kwargs)`` computes a sub-result in a worker;
    ``merge(params, results)`` reassembles the full result in the
    parent, with ``results`` ordered like ``make_tasks`` emitted them.
    The decomposition must be bit-identical to the monolithic runner —
    that is what makes ``--jobs N`` results equal to ``--jobs 1``.
    """

    task_runner: Callable[..., Any]
    make_tasks: Callable[[Mapping[str, Any]], Sequence[Dict[str, Any]]]
    merge: Callable[[Mapping[str, Any], Sequence[Any]], Any]


#: The parameter presets every spec declares.
SCALES = ("reduced", "full")


@dataclass(frozen=True)
class Claim:
    """One qualitative paper result, checked against a serialized payload.

    ``check(payload)`` returns whether the claim holds.  ``scales``
    names the presets whose parameters are large enough for it to
    hold; the runner checks a claim only when the experiment ran at
    exactly one of those presets' parameters.
    """

    ref: str
    text: str
    check: Callable[[Any], bool]
    scales: Tuple[str, ...] = SCALES


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment/ablation.

    Args:
        name: registry key (``fig13``, ``ablation-ddio``, ...).
        title: the paper artefact this reproduces (``Fig. 13``, ...).
        runner: module-level callable computing the result object.
        serializer: converts the result object to JSON-ready data.
        default_params: full-scale keyword arguments.
        reduced_params: cheap keyword arguments for smoke/CI runs.
        seeded: whether ``runner`` accepts a ``seed`` keyword.
        seed_offset: added to the run's base seed for this experiment.
        split: optional parallel decomposition (see :class:`SplitSpec`).
        rel_tol: default relative tolerance when comparing runs.
        tolerances: per-metric-prefix overrides, each entry either
            ``{"rel": x}`` or ``{"abs": y}``.
        tags: free-form labels (``"sweep"``, ``"extension"``, ...).
        claims: the paper results the payload must show (see
            :class:`Claim`).
    """

    name: str
    title: str
    runner: Callable[..., Any]
    serializer: Callable[[Any], Any]
    default_params: Mapping[str, Any] = field(default_factory=dict)
    reduced_params: Mapping[str, Any] = field(default_factory=dict)
    seeded: bool = True
    seed_offset: int = 0
    split: Optional[SplitSpec] = None
    rel_tol: float = 1e-6
    tolerances: Mapping[str, Dict[str, float]] = field(default_factory=dict)
    tags: Tuple[str, ...] = ()
    claims: Tuple[Claim, ...] = ()

    def params_for(self, scale: str) -> Dict[str, Any]:
        """The parameter set for ``"full"`` or ``"reduced"`` scale."""
        if scale == "full":
            return dict(self.default_params)
        if scale == "reduced":
            merged = dict(self.default_params)
            merged.update(self.reduced_params)
            return merged
        raise ValueError(f"unknown scale {scale!r} (use 'full' or 'reduced')")

    def seed_for(self, base_seed: int) -> int:
        """This experiment's seed under the run's base seed."""
        return (base_seed + self.seed_offset) % _SEED_MODULUS


#: Builds the specs one experiment module backs (see :meth:`Registry.declare`).
SpecFactory = Callable[[], Sequence[ExperimentSpec]]


class Registry:
    """Name-keyed collection of :class:`ExperimentSpec` objects.

    Every spec is declared with the factory that builds it
    (:meth:`register` wraps a built spec in one).  A factory runs on
    the first lookup of any name it declares, so a process pays for
    importing only the experiments it looks up; :meth:`names` and
    :meth:`specs` build every spec.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, ExperimentSpec] = {}
        self._factories: Dict[str, SpecFactory] = {}

    def register(self, spec: ExperimentSpec) -> ExperimentSpec:
        """Add an already built *spec*; duplicate names are an error."""
        self.declare((spec.name,), lambda: (spec,))
        return self.get(spec.name)

    def declare(self, names: Sequence[str], factory: SpecFactory) -> None:
        """Declare *names* without building them: the first lookup of
        any of them calls *factory*, which must return exactly their
        specs."""
        for name in names:
            if name in self:
                raise ValueError(f"experiment {name!r} already registered")
        for name in names:
            self._factories[name] = factory

    def _run_factory(self, factory: SpecFactory) -> None:
        declared = sorted(n for n, f in self._factories.items() if f is factory)
        specs = list(factory())
        built = sorted(spec.name for spec in specs)
        if built != declared:
            raise ValueError(f"factory declared {declared} but built {built}")
        for spec in specs:
            del self._factories[spec.name]
            self._specs[spec.name] = spec

    def get(self, name: str) -> ExperimentSpec:
        """Look up one spec; unknown names list the alternatives."""
        if name in self._factories:
            self._run_factory(self._factories[name])
        try:
            return self._specs[name]
        except KeyError:
            known = ", ".join(sorted({*self._specs, *self._factories}))
            raise KeyError(f"unknown experiment {name!r}; registered: {known}")

    def __contains__(self, name: str) -> bool:
        return name in self._specs or name in self._factories

    def names(self, tag: Optional[str] = None) -> List[str]:
        """All registered names (optionally filtered by tag), sorted."""
        while self._factories:
            self._run_factory(next(iter(self._factories.values())))
        return sorted(
            name
            for name, spec in self._specs.items()
            if tag is None or tag in spec.tags
        )

    def specs(self) -> List[ExperimentSpec]:
        """All specs in name order."""
        return [self._specs[name] for name in self.names()]
