"""Layer spans recorded from outside the simulator.

The benchmark times each layer by wrapping the public entry points
other layers call (the *boundary table* below) for the duration of one
rep, then restoring every original attribute.  Nothing inside
``repro`` is instrumented.  A span records which entry point ran, its
start and end, its nesting depth and whether a setup entry point
encloses it; :func:`layer_times` turns the recorded spans into self
times per layer and phase.

Leaf functions that take under about 2 us per call (``slice_of``,
``mem.address`` helpers, mempool alloc/free, ``line_address``) are left
out on purpose: a wrapper would cost as much as the call, so their time
is charged to the layer that calls them.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Layers in report order; ``experiments`` holds every host second
#: spent outside a layer span (experiment, lab and stats glue).
LAYERS = ("cachesim", "mem", "core", "dpdk", "net", "kvs", "fleet", "experiments")

#: Constructors that build a simulated machine or one of its
#: substrates.  ``setup_s`` is the time inside the outermost of these;
#: every span they enclose is charged to its layer's setup phase.
SETUP_ENTRIES = (
    "repro.cachesim.machines:build_hierarchy",
    "repro.cachesim.hierarchy:CacheHierarchy.__init__",
    "repro.core.slice_aware:SliceAwareContext.__init__",
    "repro.core.cache_director:CacheDirector.__init__",
    "repro.dpdk.mempool:Mempool.__init__",
    "repro.dpdk.nic:Nic.__init__",
    "repro.net.chain:DutEnvironment.__init__",
    "repro.net.trace:CampusTraceGenerator.__init__",
    "repro.kvs.store:KvsStore.__init__",
    "repro.kvs.server:KvsServer.__init__",
    "repro.fleet.cluster:FleetCluster.__init__",
    "repro.fleet.server:FleetServer.__init__",
)

#: The remaining boundary entry points, wrapped only in the traced rep.
SERVE_ENTRIES = (
    "repro.cachesim.hierarchy:CacheHierarchy.read",
    "repro.cachesim.hierarchy:CacheHierarchy.write",
    "repro.cachesim.hierarchy:CacheHierarchy.access_batch",
    "repro.cachesim.hierarchy:CacheHierarchy.set_engine",
    "repro.cachesim.engine:FastEngine.__init__",
    "repro.cachesim.engine:FastEngine.read",
    "repro.cachesim.engine:FastEngine.write",
    "repro.cachesim.engine:FastEngine.access_batch",
    "repro.cachesim.engine:FastEngine.run_op_stream",
    "repro.cachesim.ddio:DdioEngine.__init__",
    "repro.cachesim.ddio:DdioEngine.dma_write",
    "repro.cachesim.ddio:DdioEngine.dma_read",
    "repro.mem.hugepage:PhysicalAddressSpace.__init__",
    "repro.mem.hugepage:PhysicalAddressSpace.mmap_hugepage",
    "repro.mem.hugepage:PhysicalAddressSpace.mmap_auto",
    "repro.mem.allocator:ContiguousAllocator.allocate",
    "repro.mem.allocator:SliceFilteredAllocator.__init__",
    "repro.mem.allocator:SliceFilteredAllocator.allocate",
    "repro.mem.allocator:SliceFilteredAllocator.allocate_lines",
    "repro.mem.slice_array:SliceLocalArray.__init__",
    "repro.mem.slice_array:SliceLocalArray._fill_offsets",
    "repro.core.slice_aware:SliceAwareContext.allocate_normal",
    "repro.core.slice_aware:SliceAwareContext.allocate_slice_aware",
    "repro.core.slice_aware:SliceAwareContext.allocate_lines",
    "repro.core.cache_director:CacheDirector.precompute_udata",
    "repro.dpdk.pmd:PollModeDriver.__init__",
    "repro.dpdk.pmd:PollModeDriver.rx_burst",
    "repro.dpdk.pmd:PollModeDriver.tx_burst",
    "repro.dpdk.pmd:PollModeDriver.rx_burst_batch",
    "repro.dpdk.pmd:PollModeDriver.tx_burst_batch",
    "repro.dpdk.nic:Nic.deliver",
    "repro.dpdk.nic:Nic.deliver_burst",
    "repro.dpdk.nic:Nic.transmit",
    "repro.net.chain:ServiceChain.setup",
    "repro.net.chain:ServiceChain.process",
    "repro.net.chain:ServiceChain.process_batch",
    "repro.net.chain:DutEnvironment.service_cycles",
    "repro.net.chain:DutEnvironment.service_cycles_batch",
    "repro.net.chain:DutEnvironment.process_packet",
    "repro.net.trace:CampusTraceGenerator.generate",
    "repro.net.trace:CampusTraceGenerator.generate_arrays",
    "repro.net.harness:simulate_queueing_latency",
    "repro.net.harness:bootstrap_service_ns",
    "repro.kvs.server:KvsServer.serve_one",
    "repro.kvs.server:KvsServer.run",
    "repro.kvs.workload:ZipfKeys.__init__",
    "repro.kvs.workload:ZipfKeys.keys",
    "repro.kvs.workload:UniformKeys.keys",
    "repro.kvs.workload:GetSetMix.operations",
    "repro.fleet.cluster:run_fleet_cell",
    "repro.fleet.cluster:FleetCluster.route_epoch",
    "repro.fleet.server:FleetServer.serve",
    "repro.fleet.server:FleetServer.serve_batch",
    "repro.fleet.traffic:FleetTrafficGenerator.__init__",
    "repro.fleet.traffic:FleetTrafficGenerator.generate",
)

#: Constructors whose instances the benchmark reads counters from
#: after a rep (simulated accesses, DDIO hits, NIC drops, requests).
TRACKED = frozenset({
    "repro.cachesim.hierarchy:CacheHierarchy.__init__",
    "repro.cachesim.ddio:DdioEngine.__init__",
    "repro.dpdk.nic:Nic.__init__",
    "repro.kvs.server:KvsServer.__init__",
    "repro.fleet.server:FleetServer.__init__",
})

HIERARCHY = "repro.cachesim.hierarchy:CacheHierarchy.__init__"

#: Index of the root span (the whole rep) in a span record.
ROOT = -1

clock = time.perf_counter


class Entry(NamedTuple):
    """One boundary entry point."""

    target: str
    layer: str
    setup: bool


#: A recorded call, in completion order: ``(entry, start, end, depth,
#: in_setup)``.  ``entry`` indexes the tracer's entry list (:data:`ROOT`
#: for the rep); ``in_setup`` says whether a setup entry point encloses
#: it.  Plain tuples keep the wrapper cheap.
Span = Tuple[int, float, float, int, bool]


def layer_of(target: str) -> str:
    """``repro.<layer>.module:attr`` -> ``<layer>``."""
    return target.split(":", 1)[0].split(".")[1]


def boundary_table(traced: bool) -> List[Entry]:
    """Setup entry points only (``traced=False``) or the whole table."""
    targets = SETUP_ENTRIES + (SERVE_ENTRIES if traced else ())
    return [Entry(t, layer_of(t), t in SETUP_ENTRIES) for t in targets]


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for a target, where *owner* is
    the module or the class that defines the attribute."""
    module_name, path = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if inspect.isclass(owner):
        owner = next(c for c in owner.__mro__ if name in c.__dict__)
        original = owner.__dict__[name]
    else:
        original = getattr(owner, name)
    if not inspect.isfunction(original):
        raise TypeError(f"{target} is not a plain function")
    return owner, name, original


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module is not None
    ]


class Tracer:
    """Records spans around a boundary table for one rep.

    Use as a context manager: entering installs the wrappers (rebinding
    module-level functions wherever a ``repro`` module imported them by
    value), leaving restores every original object.
    """

    def __init__(self, entries: Sequence[Entry]) -> None:
        self.entries = list(entries)
        self.spans: List[Span] = []
        self.instances: Dict[str, List[Any]] = defaultdict(list)
        self.skipped: List[str] = []
        self.depth = 0
        self.in_setup = False
        self._patches: List[Tuple[Any, str, Any]] = []
        self._originals: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        by_value: Dict[int, Any] = {}
        for index, entry in enumerate(self.entries):
            try:
                owner, name, original = _resolve(entry.target)
            except (AttributeError, ImportError, TypeError, StopIteration):
                # A later change may rename an entry point; the rep
                # still runs, its time is charged to the caller.
                self.skipped.append(entry.target)
                continue
            wrapper = self._wrap(original, index, entry)
            self._originals[id(wrapper)] = original
            self._patch(owner, name, wrapper)
            if not inspect.isclass(owner):
                by_value[id(original)] = wrapper
        # Names other modules bound with ``from x import f``.
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                wrapper = by_value.get(id(value))
                if wrapper is not None and vars(module)[name] is not wrapper:
                    self._patch(module, name, wrapper)
        return self

    def _patch(self, owner: Any, name: str, wrapper: Any) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def __exit__(self, *exc: object) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        # A module first imported during the rep bound the wrapper by
        # value; hand it the original too.
        originals = self._originals
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                original = originals.get(id(value))
                if original is not None:
                    setattr(module, name, original)

    def _wrap(self, fn: Callable[..., Any], index: int, entry: Entry) -> Callable[..., Any]:
        record = self.spans.append
        tracer = self
        track = self.instances[entry.target].append if entry.target in TRACKED else None
        if entry.setup:
            def setup_span(*args: Any, **kwargs: Any) -> Any:
                depth = tracer.depth
                outer = tracer.in_setup
                tracer.depth = depth + 1
                tracer.in_setup = True
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record((index, start, clock(), depth, outer))
                    tracer.depth = depth
                    tracer.in_setup = outer
                    if track is not None:
                        track(args[0])

            wrapper = setup_span
        elif track is not None:
            def tracked_span(*args: Any, **kwargs: Any) -> Any:
                depth = tracer.depth
                tracer.depth = depth + 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record((index, start, clock(), depth, tracer.in_setup))
                    tracer.depth = depth
                    track(args[0])

            wrapper = tracked_span
        else:
            def span(*args: Any, **kwargs: Any) -> Any:
                depth = tracer.depth
                tracer.depth = depth + 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record((index, start, clock(), depth, tracer.in_setup))
                    tracer.depth = depth

            wrapper = span
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    # ------------------------------------------------------------------
    # Running and reading
    # ------------------------------------------------------------------

    def run(self, fn: Callable[[], Any]) -> Any:
        """Call *fn* as the root span (depth 0) and return its result."""
        self.depth = 1
        start = clock()
        try:
            return fn()
        finally:
            self.spans.append((ROOT, start, clock(), 0, False))
            self.depth = 0

    @property
    def root_seconds(self) -> float:
        """Host seconds of the root span (the rep's ``run_s``)."""
        root = self.spans[-1]
        return root[2] - root[1]

    def hierarchies(self) -> List[Any]:
        """Every ``CacheHierarchy`` constructed during the rep."""
        return self.instances[HIERARCHY]


def outer_setup_seconds(
    spans: Sequence[Span], entries: Sequence[Entry],
    seconds: Callable[[float, float], float] = lambda start, end: end - start,
) -> float:
    """Time inside the outermost setup entry points, each interval
    measured by *seconds* (host seconds by default)."""
    return sum(
        seconds(start, end)
        for index, start, end, _, in_setup in spans
        if index != ROOT and entries[index].setup and not in_setup
    )


def layer_times(
    spans: Sequence[Span], entries: Sequence[Entry]
) -> Dict[Tuple[str, str], float]:
    """Self seconds per ``(layer, phase)``; phase is setup or serve.

    A span's self time is its duration minus the durations of the spans
    directly inside it.  Spans arrive in completion order, so every
    child completes before its parent: ``child[d]`` accumulates the
    time of completed depth-``d`` spans until their parent at depth
    ``d - 1`` completes and claims it.  The root span's self time is
    the ``experiments`` layer.
    """
    child: Dict[int, float] = defaultdict(float)
    totals: Dict[Tuple[str, str], float] = defaultdict(float)
    for index, start, end, depth, in_setup in spans:
        duration = end - start
        own = duration - child.pop(depth + 1, 0.0)
        child[depth] += duration
        if index == ROOT:
            totals[("experiments", "serve")] += own
            continue
        entry = entries[index]
        phase = "setup" if in_setup or entry.setup else "serve"
        totals[(entry.layer, phase)] += own
    return dict(totals)


def layer_calls(spans: Sequence[Span], entries: Sequence[Entry]) -> Dict[str, int]:
    """Span count per layer (the root span excluded)."""
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        if span[0] != ROOT:
            calls[entries[span[0]].layer] += 1
    return dict(calls)


def spans_to_json(spans: Sequence[Span], entries: Sequence[Entry]) -> List[Dict[str, Any]]:
    """Span records with ids and parent ids, in start order."""
    order = sorted(range(len(spans)), key=lambda i: (spans[i][1], spans[i][3]))
    out: List[Dict[str, Any]] = []
    stack: List[Tuple[int, int]] = []  # (depth, id)
    for span_id, i in enumerate(order):
        index, start, end, depth, in_setup = spans[i]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent: Optional[int] = stack[-1][1] if stack else None
        stack.append((depth, span_id))
        entry = entries[index] if index != ROOT else None
        out.append({
            "id": span_id,
            "parent": parent,
            "name": entry.target if entry else "rep",
            "layer": entry.layer if entry else "experiments",
            "phase": "setup" if in_setup or (entry and entry.setup) else "serve",
            "start_s": start,
            "end_s": end,
        })
    return out
