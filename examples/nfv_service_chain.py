#!/usr/bin/env python3
"""CacheDirector on an NFV service chain (the paper's §5.2 scenario).

Builds the Router→NAPT→LB chain on the simulated DuT, runs campus-mix
traffic at a configurable offered load through both plain DPDK and
DPDK+CacheDirector, and prints the latency percentiles and throughput
— a miniature of the paper's Figs. 1/14 and Table 3.

Run:  python examples/nfv_service_chain.py [offered_gbps]
"""

import sys

from repro.experiments.nfv_common import compare_cache_director, format_comparison
from repro.net.chain import router_napt_lb_chain


def main() -> None:
    offered = float(sys.argv[1]) if len(sys.argv) > 1 else 100.0
    print(
        f"running Router-NAPT-LB at {offered:g} Gbps offered "
        "(campus size mix, 8 cores, FlowDirector steering)...\n"
    )
    results = compare_cache_director(
        lambda: router_napt_lb_chain(hw_offload=True),
        steering_kind="flow-director",
        offered_gbps=offered,
        n_bulk_packets=150_000,
        micro_packets=2500,
        runs=2,
    )
    print(
        format_comparison(
            results,
            f"Router-NAPT-LB @ {offered:g} Gbps — DuT latency without loopback",
        )
    )
    cd = results.cachedirector
    base = results.dpdk
    print(
        f"\nper-packet service time: {base.mean_service_ns:.0f} ns -> "
        f"{cd.mean_service_ns:.0f} ns "
        f"({(base.mean_service_ns - cd.mean_service_ns) * 3.2:.0f} cycles saved "
        "by placing each header in the polling core's slice)"
    )


if __name__ == "__main__":
    main()
