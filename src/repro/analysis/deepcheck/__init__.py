"""The whole-program half of ``repro check``.

:mod:`~repro.analysis.deepcheck.callgraph` builds a module import
graph and a call graph from the trees ``repro check`` parsed, resolving
methods, decorators, ``functools.partial`` targets and the lab
registry's string-named entry points.
:mod:`~repro.analysis.deepcheck.dataflow` runs the interprocedural
seed/RNG taint pass over it: the ``FLOW0xx`` rules for dropped seeds
(the fig04 class of bug), RNG streams re-seeded from constants, and
module-level state mutated in code that runs inside lab worker
processes.  ``repro check`` reports their findings with the ``SIM``
rules', under one suppression syntax.

``repro deepcheck graph`` queries the call graph.  Performance is not
modelled here: host time is measured per layer by the end-to-end
benchmark (``e2ebench/``).
"""
