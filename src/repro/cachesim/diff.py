"""Differential testing of the fast batch engine against the reference.

The fast engine (:mod:`repro.cachesim.engine`) promises *bit-identical*
outcomes to the reference per-access path — same cycles, same servicing
level, same slice, same eviction and write-back decisions, and the same
final cache state.  This module makes that promise checkable: it replays
one randomized trace through two fresh hierarchies, one driven by
``access_line`` and one by ``access_batch``, optionally injecting "rare"
events (clflush, DDIO DMA, CAT reconfiguration) between chunks, and
compares both the per-access outcome streams and deep fingerprints of
the final state.

The same helpers back ``tests/test_engine_differential.py`` and the
Hypothesis property tests, so a shrunk counterexample from either can be
replayed here verbatim.

Every hierarchy serves on the fast engine; :func:`reference_engine` is
the one way to build the oracle side, whose hierarchies serve every
demand access and DMA span through ``access_line`` and the reference
DDIO loop.  Likewise every packet trace and request stream is charged
by record/replay (:mod:`repro.net.dataplane`); :func:`per_item_oracle`
is the one way to charge them through the per-item loops instead.
"""
# simcheck: ignore-file[SIM501] oracle: the differential harness tests drive

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cachesim.cache import INVALID_TAG
from repro.cachesim.ddio import DdioEngine
from repro.cachesim.hierarchy import START_ENGINE, CacheHierarchy
from repro.mem.address import CACHE_LINE
from repro.net.dataplane import PER_ITEM_ORACLE

#: Maps ``AccessResult.level`` strings onto the engine's level codes.
LEVEL_CODES: Dict[str, int] = {"l1": 0, "l2": 1, "llc": 2, "dram": 3}


@contextlib.contextmanager
def reference_engine() -> Iterator[None]:
    """Start every hierarchy built inside the block on the reference path.

    Those hierarchies never build a fast engine: ``read``/``write``,
    ``access_batch`` and NIC DMA all loop the per-line reference code,
    which makes whatever ran inside the block the differential oracle
    of the same code run outside it.
    """
    token = START_ENGINE.set("reference")
    try:
        yield
    finally:
        START_ENGINE.reset(token)


@contextlib.contextmanager
def per_item_oracle() -> Iterator[None]:
    """Charge every stream inside the block one item at a time.

    ``DutEnvironment.service_cycles`` then calls ``process_packet`` per
    packet and ``serve_requests`` calls ``serve_one`` per request, the
    differential oracle of the chunked record/replay that runs outside
    the block.
    """
    token = PER_ITEM_ORACLE.set(True)
    try:
        yield
    finally:
        PER_ITEM_ORACLE.reset(token)


# ----------------------------------------------------------------------
# Trace generation
# ----------------------------------------------------------------------


@dataclass
class Trace:
    """One randomized access trace (line-aligned addresses)."""

    addresses: List[int]
    writes: List[bool]
    cores: List[int]

    def __len__(self) -> int:
        return len(self.addresses)

    def chunks(self, chunk_size: int) -> List[Tuple[List[int], List[bool], List[int]]]:
        """Split into ``chunk_size``-long pieces (last one may be short)."""
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        out = []
        for start in range(0, len(self.addresses), chunk_size):
            stop = start + chunk_size
            out.append(
                (
                    self.addresses[start:stop],
                    self.writes[start:stop],
                    self.cores[start:stop],
                )
            )
        return out


def random_trace(
    rng: random.Random,
    n_accesses: int,
    n_cores: int,
    hot_lines: int = 64,
    hot_fraction: float = 0.5,
    warm_span: int = 1 << 24,
    cold_span: int = 1 << 30,
    write_fraction: float = 0.3,
) -> Trace:
    """Build a mixed locality trace: hot reuse, warm region, cold misses.

    The mix deliberately exercises every hierarchy level: the hot set
    lives in L1/L2, the warm region churns the LLC, and the cold span
    streams through DRAM (forcing evictions, back-invalidations and
    dirty write-backs when combined with stores).
    """
    hot = [rng.randrange(0, warm_span) & ~(CACHE_LINE - 1) for _ in range(hot_lines)]
    addresses: List[int] = []
    writes: List[bool] = []
    cores: List[int] = []
    for _ in range(n_accesses):
        r = rng.random()
        if r < hot_fraction:
            address = rng.choice(hot)
        elif r < (1 + hot_fraction) / 2:
            address = rng.randrange(0, warm_span) & ~(CACHE_LINE - 1)
        else:
            address = rng.randrange(0, cold_span) & ~(CACHE_LINE - 1)
        addresses.append(address)
        writes.append(rng.random() < write_fraction)
        cores.append(rng.randrange(n_cores))
    return Trace(addresses, writes, cores)


# ----------------------------------------------------------------------
# State fingerprinting
# ----------------------------------------------------------------------


def state_fingerprint(hierarchy: CacheHierarchy) -> dict:
    """Deep, order-independent digest of all mutable simulator state.

    Covers the aggregate statistics, every per-slice uncore counter,
    the contents (line, dirty) of every L1/L2 set and every LLC set.
    Two hierarchies with equal fingerprints are observably identical to
    any future access sequence except for replacement-order state,
    which the per-access outcome comparison covers instead.
    """
    fp: dict = {"stats": dict(hierarchy.stats.__dict__)}
    fp["counters"] = [
        dict(slice_counter.counts)
        for slice_counter in hierarchy.llc.counters.slices
    ]
    for name, caches in (("l1", hierarchy.l1s), ("l2", hierarchy.l2s)):
        fp[name] = [
            sorted(cache._sets[i].items())
            for cache in caches
            for i in range(len(cache._sets))
        ]
    fp["llc"] = [
        [
            sorted(
                (tag, dirty == 1)
                for tag, dirty in zip(
                    slc._tags[base:base + slc.n_ways],
                    slc._dirty[base:base + slc.n_ways],
                )
                if tag != INVALID_TAG
            )
            for base in range(0, len(slc._tags), slc.n_ways)
        ]
        for slc in hierarchy.llc.slices
    ]
    return fp


# ----------------------------------------------------------------------
# Rare-event injection
# ----------------------------------------------------------------------


def make_rare_events(
    rng: random.Random,
    trace: Trace,
    n_cores: int,
    n_ways: int,
) -> List[Callable[[CacheHierarchy], None]]:
    """Build one randomized rare-event closure per chunk boundary.

    Each closure runs *identically* on both hierarchies, driving the
    code paths the batch engine deliberately leaves on the reference
    implementation: clflush, DDIO DMA traffic, and CAT reconfiguration.
    """
    lines = trace.addresses

    def clflush_event(address: int, size: int):
        def run(h: CacheHierarchy) -> None:
            h.clflush(address, size)

        return run

    def ddio_event(address: int, size: int, is_write: bool):
        def run(h: CacheHierarchy) -> None:
            engine = DdioEngine(h)
            if is_write:
                engine.dma_write(address, size)
            else:
                engine.dma_read(address, size)

        return run

    def cat_event(way_mask: int, assignments: List[int]):
        def run(h: CacheHierarchy) -> None:
            cat = h.llc.cat
            cat.define_clos(1, way_mask)
            for core, clos in enumerate(assignments):
                cat.assign_core(core, clos)

        return run

    def cat_reset_event():
        def run(h: CacheHierarchy) -> None:
            h.llc.cat.reset()

        return run

    events: List[Callable[[CacheHierarchy], None]] = []
    kinds = ["clflush", "ddio_write", "ddio_read", "cat", "cat_reset", "none"]
    for _ in range(max(0, len(lines) - 1)):
        kind = rng.choice(kinds)
        address = rng.choice(lines)
        if kind == "clflush":
            events.append(clflush_event(address, rng.choice([1, CACHE_LINE, 256])))
        elif kind == "ddio_write":
            events.append(ddio_event(address, rng.choice([64, 128, 1500]), True))
        elif kind == "ddio_read":
            events.append(ddio_event(address, rng.choice([64, 128]), False))
        elif kind == "cat":
            low_half = (1 << max(1, n_ways // 2)) - 1
            assignments = [rng.randrange(2) for _ in range(n_cores)]
            events.append(cat_event(low_half, assignments))
        elif kind == "cat_reset":
            events.append(cat_reset_event())
        else:
            events.append(lambda h: None)
    return events


# ----------------------------------------------------------------------
# Replay + comparison
# ----------------------------------------------------------------------


@dataclass
class DiffReport:
    """Outcome of one differential replay."""

    n_accesses: int
    equal: bool
    first_divergence: Optional[int] = None
    detail: str = ""
    reference_outcomes: List[Tuple[int, int, int]] = field(default_factory=list)
    fast_outcomes: List[Tuple[int, int, int]] = field(default_factory=list)


def _reference_outcomes(
    hierarchy: CacheHierarchy,
    addresses: Sequence[int],
    writes: Sequence[bool],
    cores: Sequence[int],
) -> List[Tuple[int, int, int]]:
    out = []
    mask = ~(CACHE_LINE - 1)
    for address, write, core in zip(addresses, writes, cores):
        result = hierarchy.access_line(core, address & mask, write)
        slice_index = result.slice_index if result.slice_index is not None else -1
        out.append((result.cycles, LEVEL_CODES[result.level], slice_index))
    return out


def _fast_outcomes(
    hierarchy: CacheHierarchy,
    addresses: Sequence[int],
    writes: Sequence[bool],
    cores: Sequence[int],
) -> List[Tuple[int, int, int]]:
    batch = hierarchy.access_batch(addresses, writes, cores)
    return list(
        zip(
            batch.cycles.tolist(),
            batch.levels.tolist(),
            batch.slices.tolist(),
        )
    )


def run_differential(
    build: Callable[[], CacheHierarchy],
    trace: Trace,
    chunk_size: int = 1024,
    rare_events: Optional[Sequence[Callable[[CacheHierarchy], None]]] = None,
    keep_outcomes: bool = False,
) -> DiffReport:
    """Replay *trace* through reference and fast engines and compare.

    Args:
        build: zero-argument factory producing a fresh hierarchy (it is
            called twice; both instances must be identically
            configured).
        trace: the access trace to replay.
        chunk_size: accesses per ``access_batch`` call on the fast
            side (the reference side always goes line by line).
        rare_events: optional per-chunk-boundary closures executed on
            both hierarchies between chunks.
        keep_outcomes: retain the full outcome streams in the report
            (useful when printing a divergence).

    Returns:
        A :class:`DiffReport`; ``equal`` is True only if every
        per-access outcome matches AND the final state fingerprints
        (including uncore counters) are identical.
    """
    with reference_engine():
        reference = build()
    # The fast side serves as production call sites do, so rare events
    # dispatch to the engine too (DdioEngine's flattened DMA spans).
    fast = build()
    ref_out: List[Tuple[int, int, int]] = []
    fast_out: List[Tuple[int, int, int]] = []
    chunks = trace.chunks(chunk_size)
    for index, (addresses, writes, cores) in enumerate(chunks):
        ref_out.extend(_reference_outcomes(reference, addresses, writes, cores))
        fast_out.extend(_fast_outcomes(fast, addresses, writes, cores))
        if rare_events is not None and index < len(chunks) - 1:
            event = rare_events[index % len(rare_events)]
            event(reference)
            event(fast)
    report = DiffReport(n_accesses=len(trace), equal=True)
    if keep_outcomes:
        report.reference_outcomes = ref_out
        report.fast_outcomes = fast_out
    for i, (r, f) in enumerate(zip(ref_out, fast_out)):
        if r != f:
            report.equal = False
            report.first_divergence = i
            report.detail = (
                f"access {i}: reference (cycles, level, slice)={r} "
                f"!= fast {f} for address "
                f"{trace.addresses[i]:#x} write={trace.writes[i]} "
                f"core={trace.cores[i]}"
            )
            return report
    ref_fp = state_fingerprint(reference)
    fast_fp = state_fingerprint(fast)
    if ref_fp != fast_fp:
        report.equal = False
        diverging = [k for k in ref_fp if ref_fp[k] != fast_fp[k]]
        report.detail = f"state fingerprints diverge in: {diverging}"
    return report


# ----------------------------------------------------------------------
# Dataplane-level differential replay (per-item oracle vs record/replay)
# ----------------------------------------------------------------------


@dataclass
class DataplaneDiffReport:
    """Outcome of one per-item-vs-record/replay comparison."""

    n_packets: int
    equal: bool
    #: Names of the observables that diverged (empty when equal).
    mismatches: List[str] = field(default_factory=list)
    detail: str = ""


def _chain_counters(env) -> Dict[str, int]:
    """Every integer counter on the chain and its NFs (control state)."""
    out: Dict[str, int] = {"packets_processed": env.chain.packets_processed}
    for i, nf in enumerate(env.chain.nfs):
        for key, value in vars(nf).items():
            if isinstance(value, (int, bool)):
                out[f"nf{i}.{nf.name}.{key}"] = int(value)
            elif isinstance(value, dict):
                out[f"nf{i}.{nf.name}.len({key})"] = len(value)
    return out


def run_dataplane_differential(
    chain_factory,
    n_packets: int = 1000,
    trace_seed: int = 7,
    rate_pps: float = 1e6,
    plan: Optional[object] = None,
    **config_kwargs,
) -> DataplaneDiffReport:
    """Charge one packet trace per packet and by record/replay; compare.

    Builds two identically-configured :class:`~repro.net.chain.
    DutEnvironment` instances — the oracle inside
    :func:`reference_engine` and :func:`per_item_oracle` (one
    ``process_packet`` per packet, every access through
    ``access_line``), the other as product code runs it (chunked
    record/replay on the fast engine, or on the reference engine too
    when the whole call runs inside :func:`reference_engine`) — drives
    the same :class:`~repro.net.trace.CampusTraceGenerator` trace
    through both in arrival order, and compares every observable the
    replay could possibly perturb: per-packet cycles (including
    ``None`` drop positions), NIC and DDIO statistics, mempool
    occupancy and allocation failures, PMD FCS discards,
    descriptor-ring slots, chain/NF control counters, injected-fault
    counters (when *plan* arms a chaos plan, applied to both sides from
    the same seed), and the deep cache-state fingerprint.

    Extra keyword arguments become shared
    :class:`~repro.net.chain.DutConfig` fields (``cache_director``,
    ``ddio_enabled``, ``watermarks``, ...).
    """
    from repro.faults.plan import FaultClock, resolve_plan
    from repro.net.chain import DutConfig, DutEnvironment
    from repro.net.trace import CampusTraceGenerator

    def run():
        resolved = resolve_plan(plan)
        faults = FaultClock(resolved) if resolved is not None else None
        env = DutEnvironment(
            DutConfig(**config_kwargs), chain_factory=chain_factory, faults=faults
        )
        packets = CampusTraceGenerator(seed=trace_seed).generate(
            n_packets, rate_pps=rate_pps
        )
        queues = [p.packet_id % env.nic.n_queues for p in packets]
        return env.service_cycles(packets, queues), env

    with reference_engine(), per_item_oracle():
        oracle_cycles, oracle_env = run()
    assert oracle_env.hierarchy.engine_name == "reference"
    replay_cycles, replay_env = run()

    def observe(env) -> List[Tuple[str, object]]:
        faults = env.faults.stats.to_dict() if env.faults is not None else None
        return [
            ("nic_stats", env.nic.stats),
            ("ddio_stats", env.ddio.stats),
            ("mempool", (env.mempool.available, env.mempool.alloc_failures)),
            ("fcs_discards", env.pmd.fcs_discards),
            ("descriptor_slots", env.nic._descriptor_slot),
            ("chain_counters", _chain_counters(env)),
            ("fault_counters", faults),
            ("state_fingerprint", state_fingerprint(env.hierarchy)),
        ]

    report = DataplaneDiffReport(n_packets=n_packets, equal=True)
    observables = [("per_packet_cycles", oracle_cycles, replay_cycles)] + [
        (name, want, got)
        for (name, want), (_, got) in zip(observe(oracle_env), observe(replay_env))
    ]
    for name, want, got in observables:
        if want != got:
            report.equal = False
            report.mismatches.append(name)
    if not report.equal:
        first = report.mismatches[0]
        if first == "per_packet_cycles":
            for i, (want, got) in enumerate(zip(oracle_cycles, replay_cycles)):
                if want != got:
                    report.detail = (
                        f"packet {i}: per-packet cycles {want} != replayed {got}"
                    )
                    break
        else:
            report.detail = f"charging paths diverge in: {report.mismatches}"
    return report


def run_fleet_differential(**cell_kwargs) -> DataplaneDiffReport:
    """Run one fleet cell per request and by record/replay; compare.

    Keyword arguments are forwarded to
    :func:`~repro.fleet.cluster.run_fleet_cell`; the oracle side runs
    inside :func:`per_item_oracle`.  The comparison covers the entire
    persisted cell payload — latency summaries, goodput, per-server
    stats, kill events and fault counters — the strongest observable
    equality the fleet path exposes.
    """
    from repro.fleet.cluster import run_fleet_cell

    with per_item_oracle():
        oracle = run_fleet_cell(**cell_kwargs).to_dict()
    replayed = run_fleet_cell(**cell_kwargs).to_dict()
    requests = int(oracle["requests"])
    report = DataplaneDiffReport(n_packets=requests, equal=True)
    for key in oracle:
        if oracle[key] != replayed[key]:
            report.equal = False
            report.mismatches.append(key)
    if not report.equal:
        report.detail = f"fleet payloads diverge in: {report.mismatches}"
    return report
