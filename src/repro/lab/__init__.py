"""``repro.lab`` — parallel experiment orchestration with persisted results.

The lab turns the repo's one-figure-at-a-time entry points into a
declarative, runnable evaluation matrix:

* :mod:`repro.lab.spec` — the :class:`~repro.lab.spec.ExperimentSpec`
  declaration, the paper :class:`~repro.lab.spec.Claim` its payload
  must show, the :class:`~repro.lab.spec.Registry` holding them, and
  :func:`~repro.lab.spec.to_payload`, the one serializer of results.
* :mod:`repro.lab.registry` — the default registry covering every
  figure, table, headroom, and ablation entry point, each with its
  paper claims.  A lookup imports only the looked-up experiment's
  module.
* :mod:`repro.lab.runner` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  matrix runner with per-task timeouts, bounded retries, sweep
  splitting, and a live progress reporter.
* :mod:`repro.lab.store` — one JSON artifact per experiment plus a
  run-level ``manifest.json``.
* :mod:`repro.lab.compare` — tolerance-based diffing of two runs (or a
  run against the ``tests/golden/`` artifacts).

The package re-exports nothing: import from the submodule, so that
``repro.lab.spec`` (which :mod:`repro.fleet.cluster` uses for
:func:`~repro.lab.spec.derive_seed`) does not pull in the runner.

CLI: ``python -m repro lab list|run|compare|report``.
"""
