"""Fleet traffic: Zipf request streams from millions of simulated clients.

One generator produces the whole fleet's arrival stream: per-request
tenant ids, Zipf-skewed keys (each tenant draws from its **own**
:class:`~repro.kvs.workload.ZipfKeys` sampler, seeded independently,
so tenants have uncorrelated hot sets), GET/SET flags, and Poisson
arrival times at a configured offered rate.

Determinism contract: every random quantity comes from its own
``np.random.default_rng([seed, purpose])`` stream, so the stream is a
pure function of the seed regardless of how many tenants or requests
are drawn — and per-tenant key sequences do not shift when the GET
fraction or the arrival rate changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kvs.workload import ZipfKeys

#: Reference core frequency used to convert the offered rate into
#: cycles between arrivals (both testbed machines clock 3.2 GHz).
REFERENCE_FREQ_GHZ = 3.2


@dataclass
class TrafficBatch:
    """One contiguous slice of the fleet's arrival stream."""

    tenants: np.ndarray        # int64 tenant id per request
    keys: np.ndarray           # int64 key per request (tenant-local)
    is_get: np.ndarray         # bool per request
    arrivals_cycles: np.ndarray  # float64, non-decreasing

    def __len__(self) -> int:
        return int(self.tenants.size)

    def slice(self, start: int, stop: int) -> "TrafficBatch":
        """A view of requests ``[start, stop)`` (no copies)."""
        return TrafficBatch(
            tenants=self.tenants[start:stop],
            keys=self.keys[start:stop],
            is_get=self.is_get[start:stop],
            arrivals_cycles=self.arrivals_cycles[start:stop],
        )


class FleetTrafficGenerator:
    """Zipf fleet traffic at a configured offered rate.

    Args:
        n_tenants: how many tenants share the fleet.
        n_keys: per-tenant key-space size.
        theta: Zipf skew (paper: 0.99).
        get_fraction: GET share of the op mix.
        offered_mrps: offered load, million requests/second fleet-wide
            (sets the mean of the exponential interarrival gap).
        seed: RNG seed; all streams derive from it.
    """

    def __init__(
        self,
        n_tenants: int,
        n_keys: int,
        theta: float = 0.99,
        get_fraction: float = 0.95,
        offered_mrps: float = 2.0,
        seed: int = 0,
    ) -> None:
        if n_tenants <= 0:
            raise ValueError(f"n_tenants must be positive, got {n_tenants}")
        if offered_mrps <= 0:
            raise ValueError(
                f"offered_mrps must be positive, got {offered_mrps}"
            )
        if not 0.0 <= get_fraction <= 1.0:
            raise ValueError(
                f"get_fraction must be in [0, 1], got {get_fraction}"
            )
        self.n_tenants = n_tenants
        self.n_keys = n_keys
        self.theta = theta
        self.get_fraction = get_fraction
        self.offered_mrps = offered_mrps
        self.seed = seed
        self._samplers = [
            ZipfKeys(n_keys, theta, seed=seed) for _ in range(n_tenants)
        ]
        #: Mean cycles between arrivals at the reference clock.
        self.mean_gap_cycles = REFERENCE_FREQ_GHZ * 1e9 / (offered_mrps * 1e6)

    def generate(self, count: int) -> TrafficBatch:
        """Draw the first *count* requests of the stream.

        The same generator always yields the same stream prefix: a
        longer draw extends, never reshuffles, a shorter one.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        tenant_rng = np.random.default_rng([self.seed, 101])
        ops_rng = np.random.default_rng([self.seed, 103])
        arrival_rng = np.random.default_rng([self.seed, 105])
        tenants = tenant_rng.integers(0, self.n_tenants, size=count)
        keys = np.zeros(count, dtype=np.int64)
        for tenant in range(self.n_tenants):
            mask = tenants == tenant
            n = int(mask.sum())
            if n == 0:
                continue
            key_rng = np.random.default_rng([self.seed, 107, tenant])
            keys[mask] = self._samplers[tenant].keys(n, key_rng)
        is_get = ops_rng.random(count) < self.get_fraction
        gaps = arrival_rng.exponential(self.mean_gap_cycles, size=count)
        arrivals = np.cumsum(gaps)
        return TrafficBatch(
            tenants=tenants.astype(np.int64),
            keys=keys,
            is_get=is_get,
            arrivals_cycles=arrivals,
        )
