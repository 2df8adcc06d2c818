"""Differential tests for the callers that serve one access at a time.

The migration monitor, the §2.2 line search, Fig. 4's counter polling,
the multi-tenant and Fig. 17 isolation runs and the §8 ablations call
``hierarchy.read``/``write`` access by access, so they serve on the
fast engine's scalar path.  Each test runs one small workload on that
path and as the oracle (``tests.engines.run_oracle``: every hierarchy
on ``access_line``, no fast engine built) and requires identical
results.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.cachesim.hierarchy import CacheHierarchy
from repro.cachesim.machines import HASWELL_E5_2667V3, SKYLAKE_GOLD_6134
from repro.core.monitor import AccessMonitor, MigratingObjectStore
from repro.core.profiles import measure_slice_latencies
from repro.core.slice_aware import SliceAwareContext

from tests.engines import ENGINES, run_on

pytestmark = pytest.mark.differential


def _both(fn, *args, **kwargs):
    """``{engine: fn(*args, **kwargs)}`` for the oracle and the default."""
    return {engine: run_on(engine, fn, *args, **kwargs) for engine in ENGINES}


def _counters(hierarchy):
    return [dict(s.counts) for s in hierarchy.llc.counters.slices]


def test_migration_decisions_and_cycles():
    """Per-access cycles, every rebalance's promotions and the promoted
    set after it, and the copy cycles, on a drifting hot band."""

    def run():
        context = SliceAwareContext(HASWELL_E5_2667V3, seed=4)
        store = MigratingObjectStore(
            context, core=0, n_keys=1 << 12, fast_lines=256,
            monitor=AccessMonitor(decay=0.5, epoch_accesses=600),
        )
        for key in range(256):
            store.promote(key)
        rng = np.random.default_rng(8)
        log = []
        for phase in range(3):
            band = rng.integers(phase * 700, phase * 700 + 256, size=1200)
            cold = rng.integers(0, 1 << 12, size=1200)
            keys = np.where(rng.random(1200) < 0.9, band, cold)
            writes = rng.random(1200) < 0.2
            for index, (key, write) in enumerate(zip(keys, writes)):
                log.append(store.access(int(key), bool(write)))
                if (index + 1) % 600 == 0:
                    promoted = store.rebalance(budget=128, min_count=2.0)
                    log.append(("rebalance", promoted, sorted(store._promoted)))
        return log, dataclasses.asdict(store.stats), _counters(context.hierarchy)

    runs = _both(run)
    assert runs["fast"] == runs["reference"]
    assert runs["fast"][1]["promotions"] > 256  # the drift was followed


@pytest.mark.parametrize(
    "spec, core",
    [(HASWELL_E5_2667V3, 3), (SKYLAKE_GOLD_6134, 5)],
    ids=["haswell", "skylake"],
)
def test_profiles_line_search(spec, core):
    """The §2.2 line search and timed probes (the Skylake victim LLC
    adds the L2 conflict stream)."""

    def run():
        context = SliceAwareContext(spec, seed=1)
        profile = measure_slice_latencies(
            context.hierarchy, context.hugepage, context.address_space.pagemap,
            core=core, runs=2,
        )
        return dataclasses.asdict(profile), _counters(context.hierarchy)

    runs = _both(run)
    assert runs["fast"] == runs["reference"]


def test_fig04_counters_after_every_poll(monkeypatch):
    """Fig. 4 recovers the hash from CBo lookup counters: the uncore
    counters must read the same before every flush+load poll and after
    every polled address, not only yield the same recovered hash."""
    from repro.core import reverse_engineering
    from repro.experiments.fig04_hash_recovery import fig04_to_dict, run_fig04

    log = []
    clflush = CacheHierarchy.clflush
    oracle_call = reverse_engineering.PollingOracle.__call__

    def logged_clflush(self, *args, **kwargs):
        log.append(_counters(self))
        return clflush(self, *args, **kwargs)

    def logged_call(self, phys_address):
        slice_index = oracle_call(self, phys_address)
        log.append((slice_index, _counters(self.hierarchy)))
        return slice_index

    monkeypatch.setattr(CacheHierarchy, "clflush", logged_clflush)
    monkeypatch.setattr(reverse_engineering.PollingOracle, "__call__", logged_call)

    def run():
        log.clear()
        payload = fig04_to_dict(run_fig04(n_bases=2, verify_addresses=32))
        return payload, list(log)

    runs = _both(run)
    assert runs["fast"][0]["ground_truth_match"]
    assert len(runs["fast"][1]) > 100
    assert runs["fast"] == runs["reference"]


def test_multitenant():
    from repro.experiments.multitenant import (
        multitenant_to_dict,
        run_multitenant_experiment,
    )

    runs = _both(
        lambda: json.dumps(
            multitenant_to_dict(
                run_multitenant_experiment(
                    n_tenants=2, working_set_bytes=1 << 18, n_ops=300
                )
            ),
            sort_keys=True,
        )
    )
    assert runs["fast"] == runs["reference"]


def test_fig17():
    from repro.experiments.fig17_isolation import fig17_to_dict, run_fig17

    runs = _both(
        lambda: json.dumps(
            fig17_to_dict(
                run_fig17(
                    working_set_bytes=1 << 18, neighbour_bytes=4 << 20, n_ops=300
                )
            ),
            sort_keys=True,
        )
    )
    assert runs["fast"] == runs["reference"]


def test_replacement_ablation():
    from repro.experiments.ablations import run_replacement_ablation

    runs = _both(
        run_replacement_ablation,
        policies=("lru", "srrip", "brrip"),
        hot_lines=2048,
        scan_lines=1 << 13,
        rounds=2,
    )
    assert runs["fast"] == runs["reference"]


def test_prefetcher_ablation():
    from repro.experiments.ablations import (
        prefetcher_ablation_to_dict,
        run_prefetcher_ablation,
    )

    runs = _both(
        lambda: prefetcher_ablation_to_dict(
            run_prefetcher_ablation(n_lines=1024, n_ops=400)
        )
    )
    assert runs["fast"] == runs["reference"]


@pytest.mark.parametrize("packet_size", [64, 1500])
def test_mtu_eviction(packet_size):
    from repro.experiments.ablations import run_mtu_eviction_experiment

    runs = _both(
        run_mtu_eviction_experiment, queue_depth=192, packet_size=packet_size
    )
    assert runs["fast"] == runs["reference"]
