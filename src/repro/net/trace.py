"""Synthetic traffic: the campus-trace mix and fixed-size streams.

The paper's campus trace is characterised only by its frame-size mix —
"26.9 % of frames are smaller than 100 B; 11.8 % are between 100 &
500 B; and the remaining frames are more than 500 B" (§5) — and by
having enough flows for RSS/FlowDirector steering to matter.
:class:`CampusTraceGenerator` synthesises traffic with exactly that
mix over a heavy-tailed flow population (a handful of elephants over
many mice, as campus traffic shows).

:class:`FixedSizeTraffic` covers the Table 2 classes: 64/512/1024/1500 B
at the low (1000 pps) and high (~4 Mpps) rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.net.packet import FiveTuple, Packet, PROTO_TCP, PROTO_UDP


@dataclass(frozen=True)
class TrafficClass:
    """One Table 2 traffic class."""

    packet_size: int
    rate_pps: float
    label: str
    #: Offered load in Gbit/s (frame bytes on the wire).
    rate_gbps: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "rate_gbps", self.rate_pps * self.packet_size * 8 / 1e9
        )


#: Table 2 — low rate is 1000 pps, high rate ~4 Mpps.
LOW_RATE_PPS = 1_000.0
HIGH_RATE_PPS = 4_000_000.0

TABLE2_CLASSES: Tuple[TrafficClass, ...] = tuple(
    TrafficClass(packet_size=size, rate_pps=rate, label=f"{size}B-{name}")
    for size in (64, 512, 1024, 1500)
    for rate, name in ((LOW_RATE_PPS, "L"), (HIGH_RATE_PPS, "H"))
)

#: The campus-trace size mix (§5): (fraction, low, high) size buckets.
CAMPUS_MIX: Tuple[Tuple[float, int, int], ...] = (
    (0.269, 64, 99),
    (0.118, 100, 500),
    (0.613, 501, 1500),
)


class CampusTraceGenerator:
    """Campus-like traffic: paper's size mix over heavy-tailed flows.

    Args:
        n_flows: flow population size.
        elephant_fraction: fraction of flows that are elephants.
        elephant_weight: share of packets carried by elephants.
        seed: RNG seed (generation is fully deterministic).
    """

    def __init__(
        self,
        n_flows: int = 4096,
        elephant_fraction: float = 0.05,
        elephant_weight: float = 0.5,
        seed: int = 0,
    ) -> None:
        if n_flows <= 1:
            raise ValueError(f"n_flows must be > 1, got {n_flows}")
        if not 0 < elephant_fraction < 1:
            raise ValueError("elephant_fraction must be in (0, 1)")
        if not 0 <= elephant_weight < 1:
            raise ValueError("elephant_weight must be in [0, 1)")
        self.n_flows = n_flows
        self.seed = seed
        rng = np.random.default_rng(seed)
        random, integers = rng.random, rng.integers
        # Flow identities.  Indexing the port list with one bounded
        # integer draws exactly what ``rng.choice(ports)`` would, at a
        # quarter of the cost.
        ports = (80, 443, 53, 8080, 5201)
        self._flows: List[FiveTuple] = []
        for _ in range(n_flows):
            proto = PROTO_TCP if random() < 0.8 else PROTO_UDP
            self._flows.append(
                FiveTuple(
                    src_ip=int(integers(0x0A00_0000, 0x0AFF_FFFF)),
                    dst_ip=int(integers(0xC0A8_0000, 0xC0A8_FFFF)),
                    src_port=int(integers(1024, 65535)),
                    dst_port=ports[int(integers(0, 5))],
                    proto=proto,
                )
            )
        # Flow popularity: elephants share elephant_weight of traffic.
        n_elephants = max(1, int(n_flows * elephant_fraction))
        weights = np.full(n_flows, (1 - elephant_weight) / (n_flows - n_elephants))
        weights[:n_elephants] = elephant_weight / n_elephants
        self._weights = weights / weights.sum()

    @property
    def flows(self) -> List[FiveTuple]:
        """The flow population."""
        return list(self._flows)

    def sizes(self, n_packets: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw *n_packets* frame sizes with the campus mix."""
        if n_packets <= 0:
            raise ValueError(f"n_packets must be positive, got {n_packets}")
        rng = rng if rng is not None else np.random.default_rng(self.seed + 1)
        fractions = np.array([f for f, _, _ in CAMPUS_MIX])
        bucket = rng.choice(len(CAMPUS_MIX), size=n_packets, p=fractions / fractions.sum())
        lows = np.array([lo for _, lo, _ in CAMPUS_MIX])
        highs = np.array([hi for _, _, hi in CAMPUS_MIX])
        return rng.integers(lows[bucket], highs[bucket] + 1)

    def flow_indices(
        self, n_packets: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Draw *n_packets* flow indices with elephant skew."""
        rng = rng if rng is not None else np.random.default_rng(self.seed + 2)
        return rng.choice(self.n_flows, size=n_packets, p=self._weights)

    def generate(
        self,
        n_packets: int,
        rate_pps: float,
        seed_offset: int = 0,
    ) -> List[Packet]:
        """Generate a packet list with Poisson arrivals at *rate_pps*."""
        if rate_pps <= 0:
            raise ValueError(f"rate_pps must be positive, got {rate_pps}")
        rng = np.random.default_rng(self.seed + 17 + seed_offset)
        sizes = self.sizes(n_packets, rng)
        flows = self.flow_indices(n_packets, rng)
        gaps_ns = rng.exponential(1e9 / rate_pps, size=n_packets)
        arrivals = np.cumsum(gaps_ns)
        return [
            Packet(
                size=int(sizes[i]),
                flow=self._flows[int(flows[i])],
                arrival_ns=float(arrivals[i]),
                packet_id=i,
            )
            for i in range(n_packets)
        ]

    def generate_arrays(
        self,
        n_packets: int,
        rate_gbps: float,
        seed_offset: int = 0,
        burstiness: float = 0.7,
        burst_block: int = 4096,
        burst_rho: float = 0.5,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bulk form: ``(sizes_bytes, flow_indices, arrival_times_ns)``.

        The arrival process is Poisson with mean *bit* rate
        ``rate_gbps``, modulated by a slowly varying log-AR(1) factor
        (real campus traffic is bursty on millisecond scales; without
        modulation every latency percentile collapses onto the same
        queue state).

        Args:
            n_packets: stream length.
            rate_gbps: mean offered load.
            seed_offset: decorrelates repeated runs.
            burstiness: standard deviation of the log-rate modulation
                (0 disables it).
            burst_block: packets sharing one modulation value.
            burst_rho: AR(1) coefficient between consecutive blocks.
        """
        if burstiness < 0:
            raise ValueError(f"burstiness must be non-negative, got {burstiness}")
        if not 0 <= burst_rho < 1:
            raise ValueError(f"burst_rho must be in [0, 1), got {burst_rho}")
        rng = np.random.default_rng(self.seed + 23 + seed_offset)
        sizes = self.sizes(n_packets, rng)
        flows = self.flow_indices(n_packets, rng)
        mean_bits = float(sizes.mean()) * 8
        rate_pps = rate_gbps * 1e9 / mean_bits
        gaps_ns = rng.exponential(1e9 / rate_pps, size=n_packets)
        if burstiness > 0:
            n_blocks = (n_packets + burst_block - 1) // burst_block
            log_factor = np.empty(n_blocks)
            log_factor[0] = rng.normal(0, burstiness)
            noise = rng.normal(
                0, burstiness * np.sqrt(1 - burst_rho * burst_rho), size=n_blocks
            )
            for b in range(1, n_blocks):
                log_factor[b] = burst_rho * log_factor[b - 1] + noise[b]
            factor = np.exp(log_factor - burstiness * burstiness / 2)
            # Normalise the sampled factors so the *realised* mean rate
            # matches the requested one (with a few dozen correlated
            # blocks the sample mean otherwise drifts by 10-30 %).
            factor /= factor.mean()
            gaps_ns *= np.repeat(factor, burst_block)[:n_packets]
        return sizes, flows, np.cumsum(gaps_ns)


class FixedSizeTraffic:
    """Single-size traffic at a fixed rate (Table 2 classes).

    A small flow population keeps steering meaningful even for
    single-size streams.
    """

    def __init__(self, traffic_class: TrafficClass, n_flows: int = 256, seed: int = 0) -> None:
        self.traffic_class = traffic_class
        self._campus = CampusTraceGenerator(n_flows=n_flows, seed=seed)

    def generate(self, n_packets: int, seed_offset: int = 0) -> List[Packet]:
        """Generate *n_packets* at the class size and rate."""
        rng = np.random.default_rng(self._campus.seed + 31 + seed_offset)
        flows = self._campus.flow_indices(n_packets, rng)
        gaps_ns = rng.exponential(1e9 / self.traffic_class.rate_pps, size=n_packets)
        arrivals = np.cumsum(gaps_ns)
        return [
            Packet(
                size=self.traffic_class.packet_size,
                flow=self._campus.flows[int(flows[i])],
                arrival_ns=float(arrivals[i]),
                packet_id=i,
            )
            for i in range(n_packets)
        ]
