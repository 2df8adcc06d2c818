"""Tables 1–4 of the paper.

* Table 1 — the Haswell cache geometry (validated against the machine
  model).
* Table 2 — the traffic classes used in the evaluation.
* Table 3 — throughput + average improvement at 100 Gbps (computed
  from the Fig. 13/14 runs).
* Table 4 — preferable slices per core on the Skylake part (derived
  from the NUCA latency model, as the paper derived it from
  measurements).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.cachesim.machines import (
    HASWELL_E5_2667V3,
    SKYLAKE_GOLD_6134,
    MachineSpec,
)
from repro.core.profiles import derive_preference_table
from repro.net.trace import TABLE2_CLASSES, TrafficClass

if TYPE_CHECKING:
    from repro.experiments.nfv_common import NfvComparison


@dataclass
class CacheLevel:
    """One Table 1 row."""

    level: str
    size: str
    ways: int
    sets: int
    index_bits: str


@dataclass
class CacheSpecTable:
    """Table 1: the cache geometry, LLC slice first."""

    rows: List[CacheLevel]


def table1_rows(spec: MachineSpec = HASWELL_E5_2667V3) -> List[CacheLevel]:
    """Table 1: level, size, ways, sets and index-bit range."""
    def size_label(size: int) -> str:
        if size >= 1 << 20:
            return f"{size / (1 << 20):g}MB"
        return f"{size // 1024}kB"

    def index_range(n_sets: int) -> str:
        top = 6 + n_sets.bit_length() - 2
        return f"{top}-6"

    return [
        CacheLevel(
            "LLC-Slice",
            size_label(spec.llc_slice_bytes),
            spec.llc_ways,
            spec.llc_sets,
            index_range(spec.llc_sets),
        ),
        CacheLevel("L2", size_label(spec.l2_bytes), spec.l2_ways, spec.l2_sets, index_range(spec.l2_sets)),
        CacheLevel("L1", size_label(spec.l1_bytes), spec.l1_ways, spec.l1_sets, index_range(spec.l1_sets)),
    ]


def format_table1(spec: MachineSpec = HASWELL_E5_2667V3) -> str:
    """Render Table 1."""
    out = [f"Table 1 — {spec.name} cache specification"]
    out.append("Cache Level | Size   | #Ways | #Sets | Index-bits")
    for r in table1_rows(spec):
        out.append(
            f"{r.level:<11} | {r.size:<6} | {r.ways:>5} | {r.sets:>5} | {r.index_bits}"
        )
    return "\n".join(out)


@dataclass
class TrafficClassTable:
    """Table 2: the traffic classes."""

    classes: List[TrafficClass]


def format_table2() -> str:
    """Render Table 2 (traffic classes and rates)."""
    out = ["Table 2 — traffic classes"]
    out.append("class    | size (B) | rate (pps) | offered Gbps")
    for cls in TABLE2_CLASSES:
        out.append(
            f"{cls.label:<8} | {cls.packet_size:>8} | {cls.rate_pps:>10.0f} "
            f"| {cls.rate_gbps:>12.3f}"
        )
    out.append("Mixed    | campus mix | 5-100 Gbps sweep")
    return "\n".join(out)


@dataclass
class Table3Row:
    """One Table 3 scenario."""

    scenario: str
    throughput_gbps: float
    improvement_mbps: float


@dataclass
class ThroughputTable:
    """Table 3: forwarding, then the service chain."""

    rows: List[Table3Row]


def table3_rows(
    forwarding: NfvComparison,
    service_chain: NfvComparison,
) -> List[Table3Row]:
    """Build Table 3 from the Fig. 13 and Fig. 14 runs."""
    rows = []
    for name, results in (
        ("Simple Forwarding", forwarding),
        ("Router-NAPT-LB (FlowDirector w/ H/W offloading)", service_chain),
    ):
        base = results.dpdk.achieved_gbps
        cd = results.cachedirector.achieved_gbps
        rows.append(
            Table3Row(
                scenario=name,
                throughput_gbps=base,
                improvement_mbps=(cd - base) * 1e3,
            )
        )
    return rows


def format_table3(table: ThroughputTable) -> str:
    """Render Table 3."""
    out = ["Table 3 — throughput at 100 Gbps offered + improvement"]
    out.append("scenario                                        | Gbps  | improve (Mbps)")
    for row in table.rows:
        out.append(
            f"{row.scenario:<47} | {row.throughput_gbps:>5.2f} | {row.improvement_mbps:>+8.0f}"
        )
    out.append("paper: 76.58 / +31.17 (forwarding), 75.94 / +27.31 (chain)")
    return "\n".join(out)


def format_table4(spec: MachineSpec = SKYLAKE_GOLD_6134) -> str:
    """Render Table 4 (preferable slices per core on Skylake)."""
    table = derive_preference_table(spec.interconnect_factory())
    out = [f"Table 4 — preferable slices per core, {spec.name}"]
    out.append("core | primary | secondary")
    for core in sorted(table):
        primary, secondaries = table[core]
        secondary_label = ", ".join(f"S{s}" for s in secondaries)
        out.append(f"C{core:<3} | S{primary:<6} | {secondary_label}")
    return "\n".join(out)


# ----------------------------------------------------------------------
# Runners (lab artifacts and CLI --json)
# ----------------------------------------------------------------------

def run_table1(spec: MachineSpec = HASWELL_E5_2667V3) -> CacheSpecTable:
    """Table 1 as data (the lab-registered runner)."""
    return CacheSpecTable(table1_rows(spec))


def run_table2() -> TrafficClassTable:
    """Table 2 as data (the lab-registered runner)."""
    return TrafficClassTable(list(TABLE2_CLASSES))


def run_table3(
    offered_gbps: float = 100.0,
    n_bulk_packets: int = 20_000,
    micro_packets: int = 500,
    runs: int = 1,
    seed: int = 0,
) -> ThroughputTable:
    """Compute Table 3 by driving the Fig. 13/14 runners.

    The defaults are the reduced packet counts (20k bulk / 500 micro /
    1 run) that ``repro table 3`` and the lab's reduced preset pass, so
    the table is cheap to print.  The paper-scale numbers come from
    ``repro lab run table3 --scale full``, which drives both runners
    with the Fig. 13 spec's full packet counts and runs.
    """
    from repro.experiments.fig13_forwarding import run_fig13
    from repro.experiments.fig14_service_chain import run_fig14

    forwarding = run_fig13(
        offered_gbps=offered_gbps,
        n_bulk_packets=n_bulk_packets,
        micro_packets=micro_packets,
        runs=runs,
        seed=seed,
    )
    service_chain = run_fig14(
        offered_gbps=offered_gbps,
        n_bulk_packets=n_bulk_packets,
        micro_packets=micro_packets,
        runs=runs,
        seed=seed,
    )
    return ThroughputTable(table3_rows(forwarding, service_chain))


def run_table4(spec: MachineSpec = SKYLAKE_GOLD_6134) -> dict:
    """Table 4 as data (the lab-registered runner)."""
    table = derive_preference_table(spec.interconnect_factory())
    return {
        "machine": spec.name,
        "preferable": {
            str(core): {
                "primary": int(primary),
                "secondary": [int(s) for s in secondaries],
            }
            for core, (primary, secondaries) in sorted(table.items())
        },
    }
