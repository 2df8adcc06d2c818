"""The LoadGen/DuT measurement harness (§5, Fig. 11).

The paper measures end-to-end latency black-box style: the LoadGen
timestamps packets, the DuT processes them, and the measured latency
decomposes into *loopback* (link + LoadGen overhead, measured
separately and subtracted), *queueing at the DuT*, and *service time
at the DuT*.  CacheDirector only changes the last two.

The harness reproduces that decomposition:

1. **Microsimulation** — a sample of packets runs through the full
   DuT (:class:`~repro.net.chain.DutEnvironment`): NIC DMA via DDIO,
   PMD, service chain — on the cache simulator, yielding per-packet
   service cycles.
2. **Queueing** — each RX queue is an exact FIFO single server with a
   finite ring (:func:`finite_queue_sim`): an arrival that finds the
   ring full is dropped from the tail, and admitted packets wait for
   every packet ahead of them.  It is computed in blocks of up to one
   ring of admissions per numpy pass.  The NIC's per-packet floor
   (wire + PCIe/DDIO overhead — the cause of the ~76 Gbps ceiling the
   paper attributes to the Mellanox NIC, PCIe and DDIO) bounds each
   queue's drain rate.  :func:`lindley_waits` is the infinite-buffer
   Lindley recursion; with an unbounded ring the two agree.
3. **Composition** — latency = loopback + wait + service; summaries
   use the paper's percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.net.chain import DutEnvironment
from repro.net.packet import Packet
from repro.stats.percentiles import LatencySummary, summarize_latencies

#: Loopback latency floor the paper measured for the 100 Gbps runs.
LOOPBACK_100G_US = 495.0

#: Loopback latency floor for the low-rate runs (Fig. 12).
LOOPBACK_LOW_RATE_US = 9.0


@dataclass
class NicModel:
    """Per-packet floor and fixed latency of the NIC/PCIe path.

    ``overhead_ns`` models one RX queue's share of the per-packet
    PCIe/DDIO transaction cost that caps packet rates on the testbed's
    ConnectX-4 ("the ~76 Gbps limit … due to the Mellanox NIC's
    limitation for packets smaller than 512 B and other architectural
    limitations such as PCIe and DDIO", §5.1.2); the wire term is the
    100 Gbps serialisation time.  ``fixed_latency_ns`` is the NIC
    hardware pipeline latency (DMA engines, doorbells) every packet
    pays regardless of load.
    """

    link_gbps: float = 100.0
    overhead_ns: float = 490.0
    fixed_latency_ns: float = 4000.0

    def floor_ns(self, sizes_bytes: np.ndarray) -> np.ndarray:
        """Minimum per-packet occupancy of one RX queue, in ns."""
        return sizes_bytes * 8.0 / self.link_gbps + self.overhead_ns


def lindley_waits(  # simcheck: ignore[SIM501] oracle for finite_queue_sim
    arrivals_ns: np.ndarray,
    services_ns: np.ndarray,
    cap_ns: Optional[float] = None,
) -> np.ndarray:
    """FIFO waiting times for one queue via the Lindley recursion.

    ``W[0] = 0; W[i] = max(0, W[i-1] + S[i-1] - (A[i] - A[i-1]))``,
    computed in O(n) with prefix sums: with
    ``X[i] = S[i-1] - (A[i]-A[i-1])`` and ``C = cumsum(X)``,
    ``W[i] = C[i] - min(0, min_{j<=i} C[j])`` *restarted* at every
    point where the queue empties — which the prefix-min formulation
    handles automatically.

    Args:
        arrivals_ns: non-decreasing arrival times.
        services_ns: per-packet service durations.
        cap_ns: optional cap on waiting time (finite buffer): waits are
            clipped, modelling drop-from-tail once the ring is full.
    """
    arrivals = np.asarray(arrivals_ns, dtype=float)
    services = np.asarray(services_ns, dtype=float)
    if arrivals.shape != services.shape:
        raise ValueError("arrivals and services must have equal length")
    n = arrivals.size
    if n == 0:
        return np.zeros(0)
    if np.any(np.diff(arrivals) < 0):
        raise ValueError("arrival times must be non-decreasing")
    x = services[:-1] - np.diff(arrivals)
    c = np.concatenate(([0.0], np.cumsum(x)))
    running_min = np.minimum.accumulate(np.minimum(c, 0.0))
    waits = c - running_min
    if cap_ns is not None:
        np.clip(waits, 0.0, cap_ns, out=waits)
    return waits


def finite_queue_sim(
    arrivals_ns: np.ndarray,
    services_ns: np.ndarray,
    capacity: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact FIFO single-server queue with a finite buffer.

    An arrival finding *capacity* packets in the system (in service +
    waiting) is dropped — the RX ring is full and the NIC overwrites
    nothing.  Returns ``(waits_ns, dropped)`` where waits of dropped
    packets are NaN.

    This is the overload-regime model: unlike a wait-clipped Lindley
    recursion it yields the correct ~``1 - capacity_ratio`` drop
    fraction and keeps the delivered packets' latency at the ring-full
    plateau the paper's 100 Gbps runs sit on.

    Computed a block of up to *capacity* admissions at a time (see
    docs/MODEL.md, "Queueing model"): with ``k`` packets admitted so
    far, arrival ``t`` is admitted iff ``k < capacity`` or the
    ``(k - capacity)``-th admitted packet has departed by ``t``.  So
    the next *capacity* admissions depend only on departures already
    known, and a ``searchsorted`` finds them.  Their departures are a
    running sum while the server stays busy, and a scalar loop from
    the first arrival that finds it idle.  The result is bit-identical
    to the per-packet simulation.
    """
    arrivals = np.asarray(arrivals_ns, dtype=float)
    services = np.asarray(services_ns, dtype=float)
    if arrivals.shape != services.shape:
        raise ValueError("arrivals and services must have equal length")
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    if np.any(np.diff(arrivals) < 0):
        raise ValueError("arrival times must be non-decreasing")
    n = arrivals.size
    waits = np.full(n, np.nan)
    dropped = np.ones(n, dtype=bool)
    block = min(capacity, n)
    steps = np.arange(block)
    # Departure time of each admitted packet, in admission order.
    departed = np.empty(n)
    admitted = 0
    next_arrival = 0
    last_departure = 0.0
    while next_arrival < n:
        if admitted < capacity:
            # The first *capacity* arrivals always find room.
            idx = steps
        else:
            free_at = np.searchsorted(
                arrivals, departed[admitted - capacity : admitted - capacity + block]
            )
            idx = steps + np.maximum.accumulate(
                np.maximum(free_at - steps, next_arrival)
            )
            idx = idx[: np.searchsorted(idx, n)]
            if idx.size == 0:
                break
        t = arrivals[idx]
        s = services[idx]
        # While every packet finds the server busy, each starts when the
        # one before departs; add.accumulate sums left to right, rounding
        # exactly as ``start + service`` does one packet at a time.
        ends = np.add.accumulate(np.concatenate(([last_departure], s)))
        starts = ends[:-1]
        departures = ends[1:]
        idle = np.flatnonzero(t > starts)
        if idle.size:
            first = idle[0]
            cur = float(starts[first])
            tail = []
            for arrival, service in zip(t[first:].tolist(), s[first:].tolist()):
                cur = arrival if arrival > cur else cur
                tail.append(cur)
                cur = cur + service
            starts = np.concatenate((starts[:first], tail))
            departures = starts + s
        waits[idx] = starts - t
        dropped[idx] = False
        departed[admitted : admitted + idx.size] = departures
        admitted += idx.size
        next_arrival = int(idx[-1]) + 1
        last_departure = float(departures[-1])
    return waits, dropped


@dataclass
class LatencyRunResult:
    """One run of the latency experiment."""

    latencies_us: np.ndarray
    summary: LatencySummary
    achieved_gbps: float
    offered_gbps: float
    drop_fraction: float
    #: Useful-bit throughput: like :attr:`achieved_gbps` but excluding
    #: packets the fault layer marked non-goodput (duplicates, frames
    #: with injected corruption).  Equal to ``achieved_gbps`` in
    #: fault-free runs.
    goodput_gbps: float = 0.0


def _narrow_queue_ids(queue_ids: np.ndarray, n_queues: int) -> np.ndarray:
    """*queue_ids* as the narrowest unsigned integers that hold them.

    Raises ``ValueError`` unless every id is an integer in
    ``[0, n_queues)``; the check comes first, since a bare cast would
    fold an id of 1.5 into queue 1 and wrap -1 to the top queue.
    """
    if queue_ids.size and not (
        queue_ids.min() >= 0
        and queue_ids.max() < n_queues
        and (
            queue_ids.dtype.kind in "biu"
            or np.array_equal(queue_ids, np.floor(queue_ids))
        )
    ):
        raise ValueError(f"queue ids must be integers in [0, {n_queues})")
    if n_queues <= 1 << 8:
        return queue_ids.astype(np.uint8)
    if n_queues <= 1 << 16:
        return queue_ids.astype(np.uint16)
    return queue_ids.astype(np.int64)


def _queue_waits(
    arrivals_ns: np.ndarray,
    services_ns: np.ndarray,
    queue_ids: np.ndarray,
    n_queues: int,
    capacity: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`finite_queue_sim` per RX queue of a steered stream.

    Returns per-packet ``(waits_ns, dropped)`` in stream order.  Raises
    ``ValueError`` unless every queue id is an integer in
    ``[0, n_queues)``.
    """
    narrow = _narrow_queue_ids(queue_ids, n_queues)
    # Partition packets by queue once; a stable sort keeps each queue's
    # packets in arrival order.  Over 8- or 16-bit ids numpy's stable
    # sort is a radix sort, and its order is the same as over the
    # original ids.
    order = np.argsort(narrow, kind="stable")
    counts = np.bincount(narrow, minlength=n_queues)
    hi = np.cumsum(counts)
    lo = hi - counts
    waits = np.empty(queue_ids.shape)
    dropped = np.empty(queue_ids.shape, dtype=bool)
    for start, stop in zip(lo.tolist(), hi.tolist()):
        members = order[start:stop]
        waits[members], dropped[members] = finite_queue_sim(
            arrivals_ns[members], services_ns[members], capacity
        )
    return waits, dropped


def simulate_queueing_latency(
    arrivals_ns: np.ndarray,
    sizes_bytes: np.ndarray,
    queue_ids: np.ndarray,
    service_ns: np.ndarray,
    n_queues: int,
    nic: Optional[NicModel] = None,
    ring_capacity: int = 1024,
    loopback_us: float = LOOPBACK_100G_US,
    subtract_loopback: bool = True,
    goodput: Optional[np.ndarray] = None,
) -> LatencyRunResult:
    """End-to-end latency for a steered packet stream.

    Args:
        arrivals_ns: packet arrival times at the DuT.
        sizes_bytes: frame sizes.
        queue_ids: RX queue per packet (from RSS / FlowDirector), an
            integer in ``[0, n_queues)``; any other id raises
            ``ValueError``.
        service_ns: per-packet core service times (microsim samples).
        n_queues: number of RX queues / cores.
        nic: per-packet NIC floor model; effective service is the max
            of core time and NIC floor.
        ring_capacity: RX ring depth — bounds the queueing delay; the
            excess arrival mass is counted as drops.
        loopback_us: loopback latency added to every packet.
        subtract_loopback: report latencies with the loopback *minimum*
            removed, as most paper figures do.
        goodput: optional per-packet boolean mask from the fault layer;
            ``False`` packets (duplicates, corrupted frames) still
            occupy the queue but are excluded from the goodput
            throughput figure.  ``None`` means every delivered packet
            is goodput.
    """
    nic = nic if nic is not None else NicModel()
    arrivals = np.asarray(arrivals_ns, dtype=float)
    sizes = np.asarray(sizes_bytes, dtype=float)
    queues = np.asarray(queue_ids)
    service = np.asarray(service_ns, dtype=float)
    if not (arrivals.shape == sizes.shape == queues.shape == service.shape):
        raise ValueError("all per-packet arrays must have equal length")
    effective = np.maximum(service, nic.floor_ns(sizes))
    latencies, dropped = _queue_waits(
        arrivals, effective, queues, n_queues, capacity=ring_capacity
    )
    # Waits become latencies in place: one fewer packet-sized array at
    # the peak.
    latencies += effective
    latencies += nic.fixed_latency_ns
    kept = ~dropped
    duration_s = (arrivals.max() - arrivals.min()) / 1e9 if arrivals.size > 1 else 1.0
    achieved_gbps = float(sizes[kept].sum() * 8 / max(duration_s, 1e-12) / 1e9)
    offered_gbps = float(sizes.sum() * 8 / max(duration_s, 1e-12) / 1e9)
    if goodput is None:
        goodput_gbps = achieved_gbps
    else:
        good = np.asarray(goodput, dtype=bool)
        if good.shape != arrivals.shape:
            raise ValueError("goodput mask must match the per-packet arrays")
        goodput_gbps = float(
            sizes[kept & good].sum() * 8 / max(duration_s, 1e-12) / 1e9
        )
    latencies_us = latencies[kept] / 1e3
    if not subtract_loopback:
        latencies_us = latencies_us + loopback_us
    summary = summarize_latencies(latencies_us)
    return LatencyRunResult(
        latencies_us=latencies_us,
        summary=summary,
        achieved_gbps=achieved_gbps,
        offered_gbps=offered_gbps,
        drop_fraction=float(dropped.mean()),
        goodput_gbps=goodput_gbps,
    )


def sample_service_distribution(
    env: DutEnvironment,
    packets: Sequence[Packet],
    queues: Sequence[int],
) -> np.ndarray:
    """Microsimulate *packets* and return service times in ns.

    Dropped packets (pool exhaustion — rare in microsim, where the
    packets run synchronously) are excluded.
    """
    freq_ghz = env.config.spec.freq_ghz
    cycles = env.service_cycles(list(packets), list(queues))
    return np.array([c / freq_ghz for c in cycles if c is not None])


def bootstrap_service_ns(
    samples_ns: np.ndarray,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Resample a measured service-time distribution to *count* draws."""
    if samples_ns.size == 0:
        raise ValueError("no service-time samples")
    return rng.choice(samples_ns, size=count, replace=True)
