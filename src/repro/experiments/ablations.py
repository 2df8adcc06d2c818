"""Ablations for the design choices the paper discusses (§5 fn., §8).

Each function isolates one knob:

* :func:`run_ddio_ways_ablation` — how the number of DDIO ways (the
  "10 % limit" footnote of §5) changes NFV service cost.
* :func:`run_prefetcher_ablation` — §8 "The impact of H/W
  prefetching": the streamer helps contiguous scans of *normal*
  allocations and cannot help scattered slice-aware ones.
* :func:`run_replacement_ablation` — LLC replacement (LRU vs
  SRRIP/BRRIP) under the KVS's thrash-heavy Zipf traffic.
* :func:`run_migration_experiment` — §8 "variability of hot data":
  static slice-aware placement vs monitored migration when the hot
  set drifts.
* :func:`run_value_size_ablation` — §8 "Dealing with data larger than
  64 B": scattered multi-line values keep the slice-local property.
* :func:`run_mtu_eviction_experiment` — §8 noisy-neighbour
  discussion: full-MTU DDIO traffic at line rate evicts enqueued
  headers from the LLC before the core reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cachesim.machines import HASWELL_E5_2667V3, build_hierarchy
from repro.cachesim.prefetch import StreamerPrefetcher
from repro.core.monitor import AccessMonitor, MigratingObjectStore
from repro.core.slice_aware import SliceAwareContext
from repro.dpdk.steering import RssSteering
from repro.kvs.server import KvsServer
from repro.kvs.store import KvsStore
from repro.kvs.workload import ZipfKeys
from repro.mem.address import CACHE_LINE
from repro.mem.slice_array import SliceLocalArray
from repro.net.chain import DutConfig, DutEnvironment, router_napt_lb_chain
from repro.net.trace import CampusTraceGenerator


# ----------------------------------------------------------------------
# DDIO ways
# ----------------------------------------------------------------------

#: Packets the NIC delivers before the cores drain their queues in
#: :func:`run_ddio_ways_ablation`.  2000 keeps the busiest RSS queue of
#: the campus mix (about 15 % of packets) well inside its 1024-slot ring.
DDIO_ABLATION_BACKLOG = 2000


@dataclass
class DdioAblationResult:
    """Mean chain service cycles per packet, keyed by DDIO ways."""

    cycles_per_packet: Dict[int, float]


def run_ddio_ways_ablation(
    ways_options: List[int] = (0, 2, 4, 8),
    micro_packets: int = 2000,
    seed: int = 0,
) -> DdioAblationResult:
    """Mean chain service cycles per packet vs number of DDIO ways.

    0 ways disables DDIO (pre-DDIO NICs: packets land in DRAM only).
    The sample arrives in backlogs of :data:`DDIO_ABLATION_BACKLOG`
    packets: the NIC DMA-writes a whole backlog into distinct mbufs
    before the cores drain their queues, so that many buffers compete
    for the I/O ways (one packet at a time, the LIFO pool hands every
    packet the same mbuf and the way count cannot matter).  Packets the
    NIC drops on a full ring are not in the mean.
    """
    backlog = DDIO_ABLATION_BACKLOG
    generator = CampusTraceGenerator(seed=seed + 1)
    packets = generator.generate(micro_packets, rate_pps=4e6)
    rss = RssSteering(8)
    queues = [rss.queue_for(p.flow_key) for p in packets]
    results: Dict[int, float] = {}
    for ways in ways_options:
        config = DutConfig(
            cache_director=True,
            ddio_enabled=ways > 0,
            seed=seed,
        )
        env = DutEnvironment(config, router_napt_lb_chain)
        if ways > 0:
            env.hierarchy.llc.ddio_way_tuple = tuple(
                range(env.hierarchy.llc.n_ways - ways, env.hierarchy.llc.n_ways)
            )
        nic, pmd = env.nic, env.pmd
        total = 0
        served = 0
        for start in range(0, micro_packets, backlog):
            for packet, queue in zip(
                packets[start:start + backlog], queues[start:start + backlog]
            ):
                nic.deliver(packet, packet.size, queue)
            for queue in range(nic.n_queues):
                mbufs, cycles = pmd.rx_burst(queue, max_packets=backlog)
                if not mbufs:
                    continue
                core = nic.queue_to_core[queue]
                for mbuf in mbufs:
                    cycles += env.chain.process(core, mbuf)
                total += cycles + pmd.tx_burst(queue, mbufs)
                served += len(mbufs)
        results[ways] = total / served
    return DdioAblationResult(results)


def format_ddio_ablation(result: DdioAblationResult) -> str:
    """Render the DDIO-ways ablation."""
    out = ["Ablation — DDIO ways vs mean service cycles (Router-NAPT-LB)"]
    for ways, cycles in sorted(result.cycles_per_packet.items()):
        label = "disabled" if ways == 0 else f"{ways} ways"
        out.append(f"DDIO {label:<9}: {cycles:8.1f} cycles/packet")
    return "\n".join(out)


# ----------------------------------------------------------------------
# Prefetchers
# ----------------------------------------------------------------------

@dataclass
class PrefetcherAblationResult:
    """Cycles per access keyed ``pattern/placement/off|on``, and the
    prefetch-on speedup (%) keyed ``pattern/placement``."""

    cycles: Dict[str, float]
    speedup_pct: Dict[str, float] = field(init=False)

    def __post_init__(self) -> None:
        self.speedup_pct = {}
        for pattern in ("sequential", "random"):
            for placement in ("normal", "slice"):
                off = self.cycles[f"{pattern}/{placement}/off"]
                on = self.cycles[f"{pattern}/{placement}/on"]
                self.speedup_pct[f"{pattern}/{placement}"] = (off - on) / off * 100


def run_prefetcher_ablation(
    n_lines: int = 16384,
    n_ops: int = 6000,
    seed: int = 0,
) -> PrefetcherAblationResult:
    """Sequential vs random scans, normal vs slice-aware, streamer
    on/off (§8)."""
    cycles: Dict[str, float] = {}
    spec = HASWELL_E5_2667V3
    for prefetch_on in (False, True):
        prefetchers = (
            [StreamerPrefetcher(degree=4)] + [None] * 7 if prefetch_on else None
        )
        for placement in ("normal", "slice"):
            hierarchy = build_hierarchy(spec, prefetchers=prefetchers, seed=seed)
            context = SliceAwareContext(spec, hierarchy=hierarchy, seed=seed)
            if placement == "normal":
                buf = context.allocate_normal(n_lines * CACHE_LINE)
                addresses = [buf.base + i * CACHE_LINE for i in range(n_lines)]
            else:
                scattered = context.allocate_slice_aware(
                    n_lines * CACHE_LINE, core=0
                )
                addresses = [scattered.line_of(i) for i in range(n_lines)]
            for pattern in ("sequential", "random"):
                hierarchy.drop_all()
                if pattern == "sequential":
                    order = [i % n_lines for i in range(n_ops)]
                else:
                    order = np.random.default_rng(seed).integers(
                        0, n_lines, n_ops
                    )
                total = 0
                for i in order:
                    total += hierarchy.read(0, addresses[int(i)], 1)
                key = f"{pattern}/{placement}/{'on' if prefetch_on else 'off'}"
                cycles[key] = total / n_ops
    return PrefetcherAblationResult(cycles)


def format_prefetcher_ablation(result: PrefetcherAblationResult) -> str:
    """Render the prefetcher ablation (§8's trade-off)."""
    out = ["Ablation — L2 streamer prefetcher vs allocation (cycles/access)"]
    out.append("pattern    | placement | prefetch off | prefetch on | speedup")
    for pattern in ("sequential", "random"):
        for placement in ("normal", "slice"):
            off = result.cycles[f"{pattern}/{placement}/off"]
            on = result.cycles[f"{pattern}/{placement}/on"]
            out.append(
                f"{pattern:<10} | {placement:<9} | {off:>12.1f} | {on:>11.1f} "
                f"| {result.speedup_pct[f'{pattern}/{placement}']:>+6.1f}%"
            )
    return "\n".join(out)


# ----------------------------------------------------------------------
# LLC replacement policy
# ----------------------------------------------------------------------

def run_replacement_ablation(
    policies: List[str] = ("lru", "srrip", "brrip"),
    hot_lines: int = 8192,
    scan_lines: int = 1 << 18,
    rounds: int = 8,
    scan_per_hot: int = 8,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Scan resistance of LLC replacement policies.

    A slice-aware hot set (half a slice) is re-referenced while a
    one-touch scan streams through the same slice — the shape of DDIO
    packet churn and Zipf tails.  Under true LRU the scan flushes the
    hot set; RRIP-family policies (what Intel actually ships) keep it.

    Returns ``{policy: {"hot_cycles": ..., "hot_llc_hit_rate": ...}}``.
    """
    results: Dict[str, Dict[str, float]] = {}
    for policy in policies:
        hierarchy = build_hierarchy(HASWELL_E5_2667V3, policy=policy, seed=seed)
        context = SliceAwareContext(HASWELL_E5_2667V3, hierarchy=hierarchy, seed=seed)
        target = context.preferred_slice(0)
        hot = context.allocate_slice_aware(
            hot_lines * CACHE_LINE, slice_indices=[target]
        )
        block = context.hash.n_slices
        scan_page = context.address_space.mmap_auto(scan_lines * block * CACHE_LINE)
        scan = SliceLocalArray(
            base_phys=scan_page.phys,
            n_lines=scan_lines,
            slice_hash=context.hash,
            target_slice=target,
            block_lines=block,
        )
        hot_addresses = [hot.line_of(i) for i in range(hot_lines)]
        rng = np.random.default_rng(seed)
        # Establish the hot set.
        for address in hot_addresses:
            hierarchy.read(0, address, 1)
        scan_cursor = 0
        hot_cycles = 0
        hot_accesses = 0
        hits_before = hierarchy.stats.llc_hits
        lookups_before = hierarchy.stats.llc_hits + hierarchy.stats.llc_misses
        for _ in range(rounds):
            for i in rng.integers(0, hot_lines, hot_lines // 4):
                hot_cycles += hierarchy.read(0, hot_addresses[int(i)], 1)
                hot_accesses += 1
                for _ in range(scan_per_hot):
                    hierarchy.read(0, scan.line_address(scan_cursor % scan_lines), 1)
                    scan_cursor += 1
        results[policy] = {
            "hot_cycles": hot_cycles / hot_accesses,
            "llc_hit_rate": (
                (hierarchy.stats.llc_hits - hits_before)
                / max(
                    1,
                    hierarchy.stats.llc_hits
                    + hierarchy.stats.llc_misses
                    - lookups_before,
                )
            ),
        }
    return results


def format_replacement_ablation(results: Dict[str, Dict[str, float]]) -> str:
    """Render the replacement ablation."""
    out = [
        "Ablation — LLC replacement vs scan churn "
        "(slice-aware hot set + one-touch scan)"
    ]
    out.append("policy | hot cycles/access | LLC hit rate")
    for policy, row in results.items():
        out.append(
            f"{policy:<6} | {row['hot_cycles']:>17.1f} | {row['llc_hit_rate']:>11.1%}"
        )
    return "\n".join(out)


# ----------------------------------------------------------------------
# Hot-set drift and migration
# ----------------------------------------------------------------------

@dataclass
class MigrationExperimentResult:
    """Cycles per access for the three placement strategies, and the
    gain of migration over static slice-aware placement."""

    normal: float
    static_slice: float
    migrating: float
    promotions: int
    migration_gain_pct: float = field(init=False)

    def __post_init__(self) -> None:
        self.migration_gain_pct = (
            (self.static_slice - self.migrating) / self.static_slice * 100
        )


def run_migration_experiment(
    n_keys: int = 1 << 17,
    hot_keys: int = 6144,
    phases: int = 3,
    ops_per_phase: int = 100_000,
    rebalance_every: Optional[int] = None,
    seed: int = 0,
) -> MigrationExperimentResult:
    """Drifting hot set: normal vs static slice-aware vs migrating.

    In each phase a different contiguous band of *hot_keys* keys takes
    90 % of accesses.  Static slice-aware placement promotes only the
    phase-0 band; the migrating store follows the drift.

    Sizing matters (§8): the hot band must exceed the L2 (so slice
    placement is felt at all) and the phases must be long enough to
    amortise the copy cost of re-promoting the band — migration is
    *not* free, and with the defaults each phase pays for its
    promotions several times over.
    """
    spec = HASWELL_E5_2667V3
    if rebalance_every is None:
        # Epochs long enough for each hot key to be seen several
        # times, so the promotion threshold separates hot from cold.
        rebalance_every = 3 * hot_keys
    rng = np.random.default_rng(seed)
    # Build the access stream: per phase, 90 % from that phase's band.
    streams: List[np.ndarray] = []
    for phase in range(phases):
        base = (phase * hot_keys * 7) % (n_keys - hot_keys)
        hot = rng.integers(base, base + hot_keys, size=ops_per_phase)
        cold = rng.integers(0, n_keys, size=ops_per_phase)
        choose_hot = rng.random(ops_per_phase) < 0.9
        streams.append(np.where(choose_hot, hot, cold))
    stream = np.concatenate(streams)

    def run(mode: str):
        context = SliceAwareContext(spec, seed=seed)
        store = MigratingObjectStore(
            context,
            core=0,
            n_keys=n_keys,
            fast_lines=hot_keys,
            monitor=AccessMonitor(decay=0.5, epoch_accesses=rebalance_every),
        )
        if mode in ("static", "migrating"):
            # Both start with the phase-0 hot band promoted; only the
            # migrating store follows the drift afterwards.
            for key in range(hot_keys):
                store.promote(key)
        total = 0
        for index, key in enumerate(stream):
            total += store.access(int(key))
            if mode == "migrating" and (index + 1) % rebalance_every == 0:
                store.rebalance(min_count=2.0)
        return total / stream.size, store.stats.promotions

    normal_cost, _ = run("normal")
    static_cost, _ = run("static")
    migrating_cost, promotions = run("migrating")
    return MigrationExperimentResult(
        normal=normal_cost,
        static_slice=static_cost,
        migrating=migrating_cost,
        promotions=promotions,
    )


def format_migration_experiment(result: MigrationExperimentResult) -> str:
    """Render the migration experiment."""
    return "\n".join(
        [
            "Extension — hot-set drift (§8): cycles per access",
            f"normal allocation      : {result.normal:7.1f}",
            f"static slice-aware     : {result.static_slice:7.1f}",
            f"monitored migration    : {result.migrating:7.1f} "
            f"({result.promotions} promotions)",
            f"migration vs static    : {result.migration_gain_pct:+5.1f}%",
        ]
    )


# ----------------------------------------------------------------------
# Value sizes beyond 64 B
# ----------------------------------------------------------------------

def run_value_size_ablation(
    value_sizes: List[int] = (64, 128, 256),
    n_keys: int = 1 << 18,
    warmup: int = 25_000,
    measured: int = 6_000,
    seed: int = 0,
) -> Dict[int, Dict[str, float]]:
    """KVS TPS for multi-line values, slice-aware vs normal (§8)."""
    results: Dict[int, Dict[str, float]] = {}
    zipf = ZipfKeys(n_keys, 0.99, seed=seed + 3)
    warm_keys = zipf.keys(warmup, np.random.default_rng(seed + 9))
    keys = zipf.keys(measured, np.random.default_rng(seed + 11))
    for value_size in value_sizes:
        results[value_size] = {}
        for placement, aware in (("slice", True), ("normal", False)):
            context = SliceAwareContext(HASWELL_E5_2667V3, seed=seed)
            store = KvsStore(
                context, core=0, n_keys=n_keys, slice_aware=aware,
                value_size=value_size,
            )
            server = KvsServer(context, store, core=0)
            server.run(warm_keys, np.ones(warmup, bool), warmup=warmup - 1)
            run = server.run(keys, np.ones(measured, bool))
            results[value_size][placement] = run.tps_millions
    return results


def format_value_size_ablation(results: Dict[int, Dict[str, float]]) -> str:
    """Render the value-size ablation."""
    out = ["Extension — multi-line values (§8): KVS MTPS"]
    out.append("value size | slice-aware | normal | slice gain")
    for size, row in sorted(results.items()):
        gain = (row["slice"] / row["normal"] - 1) * 100
        out.append(
            f"{size:>7} B  | {row['slice']:>11.2f} | {row['normal']:>6.2f} | {gain:>+8.1f}%"
        )
    return "\n".join(out)


# ----------------------------------------------------------------------
# MTU-sized packets and DDIO eviction (§8)
# ----------------------------------------------------------------------

@dataclass
class MtuEvictionResult:
    """Header residency under full-MTU DDIO churn."""

    headers_checked: int
    still_in_llc: int
    mean_read_cycles: float
    #: Fraction of headers evicted before the core read them.
    eviction_fraction: float = field(init=False)

    def __post_init__(self) -> None:
        self.eviction_fraction = 1.0 - self.still_in_llc / max(1, self.headers_checked)


def run_mtu_eviction_experiment(
    queue_depth: int = 512,
    packet_size: int = 1500,
    seed: int = 0,
) -> MtuEvictionResult:
    """§8: deliver a deep backlog of 1500 B frames, then check how many
    of the *oldest* packets' headers are still LLC-resident when the
    core finally polls them.

    Each MTU frame DMAs ~24 lines into the 2 DDIO ways; by the time a
    deep queue drains, early headers have been evicted and the core
    pays DRAM latency — the effect the paper warns about.
    """
    env = DutEnvironment(
        DutConfig(cache_director=True, n_mbufs=queue_depth + 64, rx_ring_size=1024, seed=seed),
        router_napt_lb_chain,
    )
    generator = CampusTraceGenerator(seed=seed + 1)
    packets = generator.generate(queue_depth, rate_pps=4e6)
    for p in packets:
        p.size = packet_size
        env.nic.deliver(p, packet_size, queue=0)
    # The core now polls the backlog; check the oldest headers first.
    ring = env.nic.rx_rings[0]
    llc = env.hierarchy.llc
    checked = 0
    resident = 0
    total_cycles = 0
    while True:
        mbuf = ring.dequeue()
        if mbuf is None:
            break
        header_line = mbuf.data_phys & ~(CACHE_LINE - 1)
        checked += 1
        if llc.contains(header_line):
            resident += 1
        total_cycles += env.hierarchy.read(0, header_line, 1)
        env.nic.transmit(mbuf)
    return MtuEvictionResult(
        headers_checked=checked,
        still_in_llc=resident,
        mean_read_cycles=total_cycles / max(1, checked),
    )


def format_mtu_eviction(result: MtuEvictionResult) -> str:
    """Render the MTU eviction experiment."""
    return "\n".join(
        [
            "Extension — 1500 B frames vs DDIO eviction (§8)",
            f"headers checked        : {result.headers_checked}",
            f"still in LLC at poll   : {result.still_in_llc} "
            f"({1 - result.eviction_fraction:.1%})",
            f"evicted before poll    : {result.eviction_fraction:.1%}",
            f"mean header read cost  : {result.mean_read_cycles:.1f} cycles",
        ]
    )


# ----------------------------------------------------------------------
# RX placement strategies: dynamic headroom vs sorted pools (§4.2)
# ----------------------------------------------------------------------

@dataclass
class RxStrategyResult:
    """One RX buffer-placement strategy's outcome."""

    match_fraction: float      # headers landing in the polling core's slice
    fallback_fraction: float   # allocations that lost the placement
    data_room_bytes: int       # per-mbuf provisioning


def run_rx_strategy_comparison(
    n_packets: int = 8000,
    n_mbufs: int = 1024,
    seed: int = 0,
) -> Dict[str, RxStrategyResult]:
    """Compare the paper's two CacheDirector designs and the baseline.

    * ``fixed`` — stock DPDK: fixed 128 B headroom; headers land in
      arbitrary slices (1/n_slices match by chance).
    * ``dynamic-headroom`` — the paper's driver-level CacheDirector:
      per-packet headroom from the precomputed udata64; every header
      matched, at the cost of worst-case data-room provisioning.
    * ``sorted-pools`` — the paper's application-level alternative:
      fixed headroom, but each core draws buffers from a pool sorted
      by slice mapping; matched unless a pool runs dry (fallback).
    """
    from repro.core.cache_director import CacheDirector
    from repro.dpdk.mbuf import DEFAULT_DATAROOM, DEFAULT_HEADROOM
    from repro.dpdk.mempool import Mempool
    from repro.dpdk.sorted_pools import PerCorePools, sort_mbufs_by_slice
    from repro.mem.address import PAGE_1G
    from repro.mem.allocator import ContiguousAllocator
    from repro.mem.hugepage import PhysicalAddressSpace

    spec = HASWELL_E5_2667V3
    slice_hash = spec.hash_factory()
    core_to_slice = list(range(spec.n_cores))
    rng = np.random.default_rng(seed)
    # Skewed queue choice (some cores poll more traffic), stressing the
    # per-core pools.
    queue_weights = np.array([4.0, 3.0, 2.0, 2.0, 1.0, 1.0, 0.5, 0.5])
    queue_weights /= queue_weights.sum()
    queues = rng.choice(spec.n_cores, size=n_packets, p=queue_weights)

    results: Dict[str, RxStrategyResult] = {}

    def fresh_pool(data_room: int) -> Mempool:
        space = PhysicalAddressSpace(seed=seed)
        allocator = ContiguousAllocator(space.mmap_hugepage(PAGE_1G))
        return Mempool("rx", allocator, n_mbufs=n_mbufs, data_room=data_room)

    # Baseline: fixed headroom.
    pool = fresh_pool(DEFAULT_DATAROOM)
    matches = 0
    for queue in queues:
        mbuf = pool.alloc()
        if slice_hash.slice_of(mbuf.data_phys) == core_to_slice[int(queue)]:
            matches += 1
        pool.free(mbuf)
    results["fixed"] = RxStrategyResult(
        match_fraction=matches / n_packets,
        fallback_fraction=0.0,
        data_room_bytes=DEFAULT_DATAROOM,
    )

    # Driver-level CacheDirector: dynamic headroom.
    director = CacheDirector(slice_hash, core_to_slice)
    extra = director.max_headroom - DEFAULT_HEADROOM
    pool = fresh_pool(DEFAULT_DATAROOM + extra)
    udata = director.precompute_udata([mbuf.buf_phys for mbuf in pool.mbufs])
    for mbuf, packed in zip(pool.mbufs, udata):
        mbuf.udata64 = packed
    matches = 0
    for queue in queues:
        mbuf = pool.alloc()
        mbuf.set_headroom(director.headroom_for_core(mbuf.udata64, int(queue)))
        if slice_hash.slice_of(mbuf.data_phys) == core_to_slice[int(queue)]:
            matches += 1
        pool.free(mbuf)
    results["dynamic-headroom"] = RxStrategyResult(
        match_fraction=matches / n_packets,
        fallback_fraction=0.0,
        data_room_bytes=DEFAULT_DATAROOM + extra,
    )

    # Application-level sorting: per-core pools, fixed headroom.
    pool = fresh_pool(DEFAULT_DATAROOM)
    groups = sort_mbufs_by_slice(pool, slice_hash)
    pools = PerCorePools(core_to_slice=core_to_slice, groups=groups)
    matches = 0
    for queue in queues:
        mbuf = pools.alloc(int(queue))
        if slice_hash.slice_of(mbuf.data_phys) == core_to_slice[int(queue)]:
            matches += 1
        pools.free(mbuf, slice_hash)
    results["sorted-pools"] = RxStrategyResult(
        match_fraction=matches / n_packets,
        fallback_fraction=pools.fallback_allocations / n_packets,
        data_room_bytes=DEFAULT_DATAROOM,
    )
    return results


def format_rx_strategies(results: Dict[str, RxStrategyResult]) -> str:
    """Render the RX-strategy comparison."""
    out = ["Ablation — RX header-placement strategies (§4.2)"]
    out.append("strategy         | header match | fallback | data room/mbuf")
    for name, r in results.items():
        out.append(
            f"{name:<16} | {r.match_fraction:>11.1%} | {r.fallback_fraction:>8.1%} "
            f"| {r.data_room_bytes:>6} B"
        )
    return "\n".join(out)
