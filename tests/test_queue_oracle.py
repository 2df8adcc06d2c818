"""Oracle properties for the RX-ring queueing model.

``finite_queue_sim`` computes a finite-buffer FIFO queue a block of
admissions per numpy pass (docs/MODEL.md, "Queueing model").  Its
oracle is the per-packet event loop kept here, ``reference_queue``:
the two must agree bit for bit, NaN waits of dropped packets included.
``simulate_queueing_latency`` partitions packets by queue with one
stable sort; its oracle is the boolean-mask loop over queue ids,
``reference_latencies``.
"""

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.harness import NicModel, finite_queue_sim, simulate_queueing_latency

pytestmark = pytest.mark.differential


def reference_queue(
    arrivals_ns: np.ndarray, services_ns: np.ndarray, capacity: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One packet at a time: drop on a full ring, else wait in FIFO order."""
    arrivals = np.asarray(arrivals_ns, dtype=float)
    services = np.asarray(services_ns, dtype=float)
    n = arrivals.size
    waits = np.full(n, np.nan)
    dropped = np.zeros(n, dtype=bool)
    # Departure times of admitted packets; head index marks the oldest
    # packet that may still be in the system.
    departures: List[float] = []
    head = 0
    last_departure = 0.0
    for i in range(n):
        t = arrivals[i]
        while head < len(departures) and departures[head] <= t:
            head += 1
        if len(departures) - head >= capacity:
            dropped[i] = True
            continue
        start = t if t > last_departure else last_departure
        waits[i] = start - t
        last_departure = start + services[i]
        departures.append(last_departure)
    return waits, dropped


def reference_latencies(
    arrivals: np.ndarray,
    sizes: np.ndarray,
    queues: np.ndarray,
    service: np.ndarray,
    n_queues: int,
    nic: NicModel,
    ring_capacity: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-packet latency (ns) and drop flags, one boolean mask per queue."""
    effective = np.maximum(service, nic.floor_ns(sizes))
    latencies = np.full(arrivals.shape, np.nan)
    dropped = np.zeros(arrivals.shape, dtype=bool)
    for queue in range(n_queues):
        mask = queues == queue
        if not mask.any():
            continue
        qs = effective[mask]
        waits, q_dropped = reference_queue(arrivals[mask], qs, ring_capacity)
        dropped[mask] = q_dropped
        latencies[mask] = waits + qs + nic.fixed_latency_ns
    return latencies, dropped


def assert_same_queue(arrivals, services, capacity):
    waits, dropped = finite_queue_sim(arrivals, services, capacity)
    ref_waits, ref_dropped = reference_queue(arrivals, services, capacity)
    assert np.array_equal(dropped, ref_dropped)
    assert np.array_equal(waits, ref_waits, equal_nan=True)


@st.composite
def queue_inputs(draw, signed_services=False):
    """Arrivals, services and a ring capacity for one queue.

    Arrival gaps are exponential or whole nanoseconds (many ties), a
    share of services is zero, and the offered load spans light
    (0.3x) to heavy (5x) overload of the mean service time.
    """
    n = draw(st.integers(0, 3000))
    capacity = draw(
        st.one_of(st.integers(1, 2048), st.sampled_from([10**6, 10**9]))
    )
    load = draw(st.floats(0.3, 5.0))
    zero_share = draw(st.sampled_from([0.0, 0.1, 0.9]))
    integral = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mean_service = 100.0
    gaps = rng.exponential(mean_service / load, n)
    if integral:
        gaps = np.floor(gaps)
    arrivals = np.cumsum(gaps) + draw(st.sampled_from([0.0, 0.0, 1e6]))
    services = rng.exponential(mean_service, n)
    services[rng.random(n) < zero_share] = 0.0
    if signed_services:
        services -= rng.exponential(mean_service / 2, n)
    return arrivals, services, capacity


@settings(max_examples=120, deadline=None)
@given(inputs=queue_inputs())
def test_block_queue_equals_event_loop(inputs):
    assert_same_queue(*inputs)


@settings(max_examples=40, deadline=None)
@given(inputs=queue_inputs(signed_services=True))
def test_block_queue_equals_event_loop_with_negative_services(inputs):
    """Out-of-order departures: admission still tests one departure."""
    assert_same_queue(*inputs)


@pytest.mark.parametrize("capacity", [1, 2, 7, 1024, 10**9])
def test_simultaneous_burst_and_zero_services(capacity):
    arrivals = np.repeat([0.0, 5.0, 5.0, 40.0, 1e4], 600)
    services = np.tile([0.0, 3.0, 0.0, 12.5], 750)
    assert_same_queue(arrivals, services, capacity)


def test_nan_service_stalls_the_ring_like_the_event_loop():
    arrivals = np.arange(50, dtype=float)
    services = np.full(50, 2.0)
    services[10] = np.nan
    for capacity in (1, 4, 64):
        assert_same_queue(arrivals, services, capacity)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 2000),
    n_queues=st.one_of(st.integers(1, 8), st.just(300)),
    used=st.data(),
    ring_capacity=st.sampled_from([1, 8, 64, 1024]),
    load=st.floats(0.3, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_stable_partition_equals_mask_loop(
    n, n_queues, used, ring_capacity, load, seed
):
    """Same per-queue order and results as one boolean mask per queue,
    with some queues left empty, over 8- and 16-bit queue ids."""
    live = used.draw(
        st.lists(st.integers(0, n_queues - 1), min_size=1, unique=True)
    )
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(100.0 / (load * n_queues), n))
    sizes = rng.choice([64.0, 512.0, 1500.0], n)
    queues = rng.choice(np.array(live), n)
    service = rng.exponential(100.0, n)
    nic = NicModel(overhead_ns=20.0, fixed_latency_ns=500.0)
    result = simulate_queueing_latency(
        arrivals, sizes, queues, service, n_queues=n_queues, nic=nic,
        ring_capacity=ring_capacity,
    )
    latencies, dropped = reference_latencies(
        arrivals, sizes, queues, service, n_queues, nic, ring_capacity
    )
    assert np.array_equal(result.latencies_us, latencies[~dropped] / 1e3)
    assert result.drop_fraction == float(dropped.mean())


@pytest.mark.parametrize("n_queues", [8, 300])
def test_partition_equals_mask_loop_at_8_and_300_queues(n_queues):
    """Every queue in use, at a size each id width sorts."""
    rng = np.random.default_rng(n_queues)
    n = 20 * n_queues
    arrivals = np.cumsum(rng.exponential(100.0 / (2.0 * n_queues), n))
    sizes = rng.choice([64.0, 512.0, 1500.0], n)
    queues = rng.integers(0, n_queues, n)
    service = rng.exponential(100.0, n)
    nic = NicModel(overhead_ns=20.0, fixed_latency_ns=500.0)
    result = simulate_queueing_latency(
        arrivals, sizes, queues, service, n_queues=n_queues, nic=nic,
        ring_capacity=8,
    )
    latencies, dropped = reference_latencies(
        arrivals, sizes, queues, service, n_queues, nic, 8
    )
    assert dropped.any()
    assert np.array_equal(result.latencies_us, latencies[~dropped] / 1e3)
    assert result.drop_fraction == float(dropped.mean())
