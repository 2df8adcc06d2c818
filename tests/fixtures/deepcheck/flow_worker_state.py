"""Fixture: worker-reachable module state (FLOW003) and re-seeds (FLOW002).

``_build`` registers ``run_exp`` as a string-named entry point (the lab
registry idiom), which makes it worker-reachable; mutating module
globals from there breaks process-pool determinism.  ``_reset`` shows
the exempt idiom — rebinding a declared ``global`` cache wholesale.
"""

import numpy as np

RESULTS = []
_CACHE = None


class ExperimentSpec:
    def __init__(self, name, runner):
        self.name = name
        self.runner = runner


class SeededSampler:
    def __init__(self, seed):
        self.seed = seed
        self.rng = np.random.default_rng([seed, 101])

    def draw(self):
        fresh = np.random.default_rng(42)  # finding: FLOW002
        derived = np.random.default_rng([self.seed, 7])
        unseeded = np.random.default_rng()  # finding: SIM002, not FLOW002 too
        return fresh.random() + derived.random() + unseeded.random()


def run_exp(seed=0):
    sampler = SeededSampler(seed)
    RESULTS.append(sampler.draw())  # finding: FLOW003
    _reset()
    return list(RESULTS)


def _reset():
    global _CACHE
    _CACHE = {}


def _build():
    return ExperimentSpec(name="fixture-exp", runner=run_exp)
