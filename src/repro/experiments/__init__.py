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
