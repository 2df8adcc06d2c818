"""Static and dynamic checkers guarding the simulation's invariants.

Two complementary layers (see ``docs/CHECKS.md``):

* :mod:`repro.analysis.simcheck` — the static analyser run as
  ``repro check``: per-file determinism rules (``SIMxxx``) and, over a
  whole-program call graph (:mod:`repro.analysis.deepcheck`), the
  seed-flow rules (``FLOWxxx``).
* :mod:`repro.analysis.sanitizer` — opt-in runtime instrumentation
  (``RF_SANITIZE=1`` or ``sanitize=True``) catching memory-model and
  cache-coherence violations as structured ``SanitizerError``\\ s.

The package re-exports nothing: the cache and mempool import the
sanitizer on every product run, and must not compile the static
analyser along with it.
"""
