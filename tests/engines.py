"""Helpers for tests that compare the fast engine with its oracle.

Every hierarchy serves on the fast engine unless it is built inside
:func:`repro.cachesim.diff.reference_engine`.  :func:`run_oracle` runs a
callable that way and checks that it really was the oracle: the
reference ``access_line`` ran and no fast engine was ever built.
"""

from repro.cachesim.diff import reference_engine
from repro.cachesim.engine import FastEngine
from repro.cachesim.hierarchy import CacheHierarchy

ENGINES = ("reference", "fast")


def run_oracle(fn, *args, **kwargs):
    """Call ``fn(*args, **kwargs)`` on the reference engine and return
    its result, asserting ``access_line`` served it and no
    ``FastEngine`` was constructed."""
    calls = {"access_line": 0, "fast_engines": 0}
    access_line = CacheHierarchy.access_line
    engine_init = FastEngine.__init__

    def counted_access_line(self, *a, **k):
        calls["access_line"] += 1
        return access_line(self, *a, **k)

    def counted_engine_init(self, *a, **k):
        calls["fast_engines"] += 1
        engine_init(self, *a, **k)

    CacheHierarchy.access_line = counted_access_line
    FastEngine.__init__ = counted_engine_init
    try:
        with reference_engine():
            result = fn(*args, **kwargs)
    finally:
        CacheHierarchy.access_line = access_line
        FastEngine.__init__ = engine_init
    assert calls["access_line"] > 0, "the oracle never ran access_line"
    assert calls["fast_engines"] == 0, "the oracle built a fast engine"
    return result


def run_on(engine, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` on *engine*: the oracle for
    ``"reference"`` (see :func:`run_oracle`), the default otherwise."""
    if engine == "reference":
        return run_oracle(fn, *args, **kwargs)
    assert engine == "fast", engine
    return fn(*args, **kwargs)


def start_on(engine, build, *args, **kwargs):
    """``build(*args, **kwargs)`` with every hierarchy it builds
    starting on *engine* (no check of what it then runs)."""
    if engine == "reference":
        with reference_engine():
            return build(*args, **kwargs)
    assert engine == "fast", engine
    return build(*args, **kwargs)
