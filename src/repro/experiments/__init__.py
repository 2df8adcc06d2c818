"""Experiment drivers: one module per paper figure/table.

Every module exposes a ``run_*`` function returning a structured
result plus a ``format_*`` helper that prints the same rows/series the
paper reports.  The lab registry (``repro lab run``) calls these and
checks each one's paper claims; so can users, directly:

>>> from repro.experiments.fig05_access_time import run_fig05
>>> profile = run_fig05(runs=3)

Scale parameters default to CI-friendly sizes; pass larger values to
approach the paper's sample counts (see EXPERIMENTS.md).
"""


def require_fast_engine(value: str) -> None:
    """Check the ``engine`` argument the pinned runners still take.

    ``run_fig07`` and the four fleet sweeps keep it only because the
    benchmark's pinned params (``e2ebench/digests.json``) and the fleet
    goldens name it.  Every hierarchy serves on the fast engine, so
    ``"fast"`` is the one value accepted.
    """
    if value != "fast":
        raise ValueError(f"engine must be 'fast', got {value!r}")
