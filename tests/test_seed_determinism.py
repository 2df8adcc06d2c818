"""Same seed, same machine, same numbers — twice.

The experiment pipelines promise full determinism at a fixed seed: two
back-to-back runs must agree to the last bit, or figure regeneration
and the golden tests become a lottery.  These tests run the smallest
end-to-end slices of the queueing harness and the KVS workload twice
and require byte-identical outputs.
"""

import dataclasses

import numpy as np

from repro.experiments.nfv_common import measure_service_times
from repro.kvs.workload import GetSetMix, UniformKeys, ZipfKeys
from repro.net.chain import simple_forwarding_chain
from repro.net.harness import simulate_queueing_latency
from repro.net.trace import CampusTraceGenerator

from tests.engines import run_on


def _service_times(engine: str) -> np.ndarray:
    return run_on(
        engine,
        measure_service_times,
        simple_forwarding_chain,
        cache_director=False,
        steering_kind="rss",
        generator=CampusTraceGenerator(seed=3),
        micro_packets=400,
        seed=3,
    )


def _queueing_summary():
    rng = np.random.default_rng(11)
    n = 3000
    arrivals = np.cumsum(rng.exponential(500.0, size=n))
    sizes = rng.choice([64, 256, 1500], size=n).astype(np.int64)
    queues = rng.integers(0, 8, size=n)
    service = rng.lognormal(6.0, 0.4, size=n)
    return simulate_queueing_latency(
        arrivals, sizes, queues, service, n_queues=8
    ).summary


class TestHarnessDeterminism:
    def test_service_times_byte_identical(self):
        first = _service_times("fast")
        second = _service_times("fast")
        assert first.tobytes() == second.tobytes()

    def test_fast_engine_matches_reference_service_times(self):
        assert (
            _service_times("fast").tobytes()
            == _service_times("reference").tobytes()
        )

    def test_latency_summary_byte_identical(self):
        first = _queueing_summary()
        second = _queueing_summary()
        assert dataclasses.asdict(first) == dataclasses.asdict(second)
        assert repr(first) == repr(second)


class TestKvsWorkloadDeterminism:
    def test_zipf_keys_byte_identical(self):
        first = ZipfKeys(n_keys=10_000, theta=0.99, seed=5).keys(5000)
        second = ZipfKeys(n_keys=10_000, theta=0.99, seed=5).keys(5000)
        assert first.tobytes() == second.tobytes()

    def test_uniform_keys_byte_identical(self):
        first = UniformKeys(n_keys=4096, seed=9).keys(2000)
        second = UniformKeys(n_keys=4096, seed=9).keys(2000)
        assert first.tobytes() == second.tobytes()

    def test_get_set_mix_byte_identical(self):
        mix = GetSetMix(0.95)
        first = mix.operations(3000, np.random.default_rng(13))
        second = mix.operations(3000, np.random.default_rng(13))
        assert first.tobytes() == second.tobytes()
