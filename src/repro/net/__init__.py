"""Packets, traffic generation and network functions (the NFV layer).

* :mod:`repro.net.packet` — the flow 5-tuple and the lightweight
  :class:`Packet` record used in bulk simulation.
* :mod:`repro.net.trace` — synthetic workload generators: the campus
  trace's size mix (§5, Table 2) and fixed-size streams.
* :mod:`repro.net.nf` — network functions: MAC-swap forwarding, LPM
  router, NAPT, round-robin load balancer.
* :mod:`repro.net.chain` — service chains executing NFs' memory
  accesses against the cache simulator.
* :mod:`repro.net.harness` — the LoadGen/DuT measurement harness:
  service-time microsimulation plus vectorised queueing, yielding the
  end-to-end latency distributions of §5.
"""

from repro.net.packet import (
    FiveTuple,
    Packet,
)
from repro.net.trace import (
    CAMPUS_MIX,
    CampusTraceGenerator,
    FixedSizeTraffic,
    TrafficClass,
)

__all__ = [
    "CAMPUS_MIX",
    "CampusTraceGenerator",
    "FiveTuple",
    "FixedSizeTraffic",
    "Packet",
    "TrafficClass",
]
