"""Regression fixture: the fig04 dropped-seed bug class (FLOW001).

The fig04 runner once called a helper that *accepts* a seed — with a
silent default — without forwarding it, so the experiment's RNG stream
was decoupled from ``--seed``.  The interprocedural pass must keep
catching it.  A seed counts as forwarded only when it binds one of the
callee's seed parameters: by keyword, by position or through ``**``.
"""

import numpy as np


def make_workload(count, seed=None):
    rng = np.random.default_rng(seed)
    return rng.random(count)


def run_fig04(seed=0):
    good = make_workload(64, seed=seed)
    positional = make_workload(64, seed + 1)
    derived = make_workload(64, seed=seed + 1)
    splat = make_workload(64, **{"seed": seed})
    bad = make_workload(64)  # finding: FLOW001 (seed dropped on the floor)
    quiet = make_workload(64)  # simcheck: ignore[FLOW001] fixture
    return good, positional, derived, splat, bad, quiet


def make_plan(seed=0):
    return {"seed": seed}


def run_cell(count, seed=0, plan=None):
    return make_workload(count, seed=seed), plan


def run_faulted_cell(seed=0):
    # The chaos/fleet shape: the plan is derived from the seed, but the
    # cell's own seed still takes its default.
    plan = make_plan(seed=seed)
    return run_cell(8, plan=plan)  # finding: FLOW001 (plan is not the seed)
