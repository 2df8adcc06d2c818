"""deepcheck: whole-program seed-flow analysis for the reproduction.

Where :mod:`repro.analysis.simcheck` lints one file at a time against
the repo's determinism conventions, deepcheck builds a *whole-program*
view — a module import graph and a call graph that resolves methods,
decorators, ``functools.partial`` targets and the lab registry's
string-named entry points
(:mod:`~repro.analysis.deepcheck.callgraph`) — and runs an
interprocedural seed/RNG taint pass on top of it
(:mod:`~repro.analysis.deepcheck.dataflow`): the ``FLOW0xx`` rules for
dropped seeds (the fig04 class of bug), RNG streams re-seeded from
constants, and module-level state mutated in code that runs inside lab
worker processes.

Performance is not modelled here: host time is measured per layer by
the end-to-end benchmark (``e2ebench/``).

Run it as ``repro deepcheck report|graph``; see ``docs/CHECKS.md``
("Deep checks") for the rule catalogue and inline suppressions.
"""

from repro.analysis.deepcheck.callgraph import (
    CallGraph,
    CallSite,
    FuncNode,
    build_callgraph,
)
from repro.analysis.deepcheck.report import (
    DEEP_RULES,
    DeepcheckResult,
    analyze,
)

__all__ = [
    "CallGraph",
    "CallSite",
    "DEEP_RULES",
    "DeepcheckResult",
    "FuncNode",
    "analyze",
    "build_callgraph",
]
