"""One rep of a workload in a fresh process; prints one JSON line.

``run.py`` starts one of these per rep, so every rep pays what a user
of ``python -m repro`` pays on each invocation: importing ``repro``,
building the experiment registry, constructing the simulated machines
and serving.  Nothing can carry over from an earlier rep, and work
moved into module import shows in ``setup_s``.

::

    python3 e2ebench/rep.py --workload nfv-chain --seed 0 [--traced]

The line holds ``import_s`` (importing ``repro`` and building the
registry, timed from the start of this module), ``rep_s`` and
``setup_s`` (the rep, and the part of it inside the outermost setup
entry points), all three in seconds at the reference speed (see
:class:`HostSpeed`), ``host_s`` (the process's wall time until then),
the simulated access count, the payload SHA-256, the process's peak
RSS, the model summary and, with ``--traced``, the raw layer table
(see :func:`layer_table`).
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from e2ebench import spans, workloads  # noqa: E402

PR_SET_PDEATHSIG = 1

#: About :meth:`HostSpeed.kernel_seconds` on a lightly loaded 2-vCPU
#: Intel Xeon host (Python 3.11): the speed reported times are converted to.
REFERENCE_SAMPLE_S = 0.006

#: Wall time between two samples; each takes about 3% of it.
SAMPLE_INTERVAL_S = 0.2

#: The kernel's random reads go to this much memory, far past a core's
#: L2 and its share of the LLC.  It is subtracted from the peak RSS.
PROBE_BYTES = 64 << 20


class HostSpeed:
    """How fast the host ran during this process, measured inside it.

    The host is shared: each vCPU loses speed, by up to 2x, in bursts
    shorter than a rep, as other tenants contend for the core and the
    memory system.  While entered, a ``SIGALRM`` handler runs
    :meth:`kernel_seconds` every :data:`SAMPLE_INTERVAL_S` on the rep's
    own thread, so the kernel sees the same CPU and the same contention
    as the simulator around it.  :meth:`reference_seconds` converts an
    interval of the rep to seconds at the reference speed, stretch by
    stretch, at the speed measured around each stretch, and leaves the
    sampling out.  A change to the simulator moves the reps and not the
    kernel, so it moves the converted times by the same share.
    """

    def __init__(self) -> None:
        self.created = time.perf_counter()
        self.probe = bytearray(PROBE_BYTES)  # zero-filled: resident from here on
        # The kernel allocates no containers: 256 fresh dicts a sample
        # moved the simulator's garbage collections and raised its peak
        # RSS by up to 17 MiB.
        self.sets: List[Dict[int, bool]] = [{} for _ in range(256)]
        self.lines = list(range(1 << 12))
        #: ``(start, end, kernel seconds)`` of every sample, in order.
        self.samples: List[Tuple[float, float, float]] = []

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._sample(since=self.created)  # allocating the probe is not the rep's either
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_seconds(self) -> float:
        """Seconds for fixed work shaped like the simulator's, sharing
        no code with it: an 8-way LRU cache of 256 sets over a
        pseudo-random line stream (dict work that stays in the core's
        caches), then 10,000 reads of random lines of the probe buffer
        (work that waits on the LLC and DRAM, which other tenants of
        the host contend for)."""
        clock = time.perf_counter
        sets, lines, probe = self.sets, self.lines, self.probe
        x = 12345
        start = clock()
        for _ in range(5_000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            line = lines[(x >> 8) & 0xFFF]
            ways = sets[line & 255]
            if line in ways:
                del ways[line]
            elif len(ways) >= 8:
                del ways[next(iter(ways))]
            ways[line] = True
        mask = len(probe) - 1
        total = 0
        for _ in range(10_000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            total += probe[(x << 6) & mask]
        return clock() - start

    def _sample(self, *signal_args: object, since: Optional[float] = None) -> None:
        start = time.perf_counter() if since is None else since
        kernel = self.kernel_seconds()
        self.samples.append((start, time.perf_counter(), kernel))

    def reference_seconds(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` at the reference speed, sampling
        left out.  A stretch between two samples is converted at the
        mean of their kernel times; one before the first or after the
        last sample, at that sample's."""
        samples = self.samples
        first, last = samples[0], samples[-1]
        stretches = [(-math.inf, first[0], first[2]), (last[1], math.inf, last[2])]
        stretches += [(a[1], b[0], (a[2] + b[2]) / 2) for a, b in zip(samples, samples[1:])]
        return sum(
            (min(hi, end) - max(lo, start)) * REFERENCE_SAMPLE_S / kernel
            for lo, hi, kernel in stretches
            if lo < end and hi > start
        )


def die_with_parent() -> None:
    """Have the kernel kill this rep when ``run.py`` ends, however it
    is stopped, so no rep outlives the benchmark."""
    if sys.platform == "linux":
        import ctypes

        ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: no repro sources under {src}")
    # The product default is an unsanitized run; an inherited
    # RF_SANITIZE=1 would time the sanitizer instead.
    os.environ.pop("RF_SANITIZE", None)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"e2ebench: imported repro from {repro.__file__}, not {src}")


class Rep(NamedTuple):
    """What one rep measured."""

    rep_s: float
    setup_s: float
    accesses: int
    digest: str
    payload: Any
    skipped: List[str]  # boundary entries that no longer resolve
    tracer: Any  # the spans.Tracer of a traced rep, else None


def run_rep(run: Callable[[int], Any], seed: int, traced: bool,
            seconds: Callable[[float, float], float] = lambda start, end: end - start) -> Rep:
    """Run one rep under a tracer with the setup or the whole table.

    ``rep_s`` and ``setup_s`` are in the unit *seconds* gives an
    interval: host seconds by default, reference seconds with
    :meth:`HostSpeed.reference_seconds`.
    """
    with spans.Tracer(spans.boundary_table(traced)) as tracer:
        payload = tracer.run(lambda: run(seed))
    _, start, end, _, _ = tracer.spans[-1]
    return Rep(
        rep_s=seconds(start, end),
        setup_s=spans.outer_setup_seconds(tracer.spans, tracer.entries, seconds),
        accesses=sum(h.stats.reads + h.stats.writes for h in tracer.hierarchies()),
        digest=workloads.digest(payload),
        payload=payload,
        skipped=tracer.skipped,
        tracer=tracer if traced else None,
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_table(rep: Rep) -> Dict[str, float]:
    """Layer table of a traced rep, in the unit of ``rep.rep_s`` where
    it has time; ``run.py`` turns it into :func:`per_layer` metrics.

    Self times are measured in host seconds and converted in proportion
    (host-speed sampling fires uniformly in time), so they sum to
    ``rep.rep_s``.
    """
    tracer = rep.tracer
    entries = tracer.entries
    times = spans.layer_times(tracer.spans, entries)
    calls = spans.layer_calls(tracer.spans, entries)
    unit = rep.rep_s / tracer.root_seconds
    out: Dict[str, float] = {}
    for layer in spans.LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.setup_s"] = unit * times.get((layer, "setup"), 0.0)
        out[f"{layer}.serve_s"] = unit * times.get((layer, "serve"), 0.0)

    instances = tracer.instances
    stats = [h.stats for h in tracer.hierarchies()]
    llc_hits = sum(s.llc_hits for s in stats)
    ddios = [d.stats for d in instances["repro.cachesim.ddio:DdioEngine.__init__"]]
    out["cachesim.accesses"] = rep.accesses
    out["cachesim.hierarchies"] = len(stats)
    out["cachesim.llc_hit_ratio"] = _ratio(llc_hits, llc_hits + sum(s.llc_misses for s in stats))
    out["cachesim.dram_accesses"] = sum(s.dram_accesses for s in stats)
    out["cachesim.ddio_read_hit_ratio"] = _ratio(
        sum(d.read_hits for d in ddios), sum(d.read_lines for d in ddios)
    )
    nics = [n.stats for n in instances["repro.dpdk.nic:Nic.__init__"]]
    rx = sum(n.rx_packets for n in nics)
    drops = sum(
        n.rx_drops_no_mbuf + n.rx_drops_ring_full + n.rx_drops_backpressure + n.rx_drops_injected
        for n in nics
    )
    out["dpdk.rx_packets"] = rx
    out["dpdk.drop_ratio"] = _ratio(drops, rx + drops)
    out["kvs.requests"] = sum(
        k.requests_served for k in instances["repro.kvs.server:KvsServer.__init__"]
    )
    out["fleet.requests"] = sum(
        f.served for f in instances["repro.fleet.server:FleetServer.__init__"]
    )
    out["trace.spans"] = len(tracer.spans) - 1
    return out


def per_layer(table: Dict[str, float], rep_s: float, untraced_rep_s: float) -> Dict[str, float]:
    """The per-layer metrics from a traced rep's :func:`layer_table`.

    Self times become shares of the traced rep (they sum to 100; a
    layer the workload never enters reads 0).  *untraced_rep_s* is the
    median untraced rep, in the unit of *rep_s*, for the tracing
    overhead.
    """
    out: Dict[str, float] = {}
    for layer in spans.LAYERS[:-1]:
        out[f"{layer}.calls"] = table[f"{layer}.calls"]
        out[f"{layer}.setup_pct"] = 100.0 * table[f"{layer}.setup_s"] / rep_s
        out[f"{layer}.serve_pct"] = 100.0 * table[f"{layer}.serve_s"] / rep_s
    out["experiments.serve_pct"] = 100.0 * table["experiments.serve_s"] / rep_s
    for name in ("cachesim.accesses", "cachesim.hierarchies", "cachesim.llc_hit_ratio",
                 "cachesim.dram_accesses", "cachesim.ddio_read_hit_ratio"):
        out[name] = table[name]
    out["cachesim.host_us_per_access"] = 1e6 * _ratio(
        table["cachesim.serve_s"], table["cachesim.accesses"]
    )
    out["dpdk.rx_packets"] = table["dpdk.rx_packets"]
    out["dpdk.drop_ratio"] = table["dpdk.drop_ratio"]
    for layer in ("kvs", "fleet"):
        requests = table[f"{layer}.requests"]
        out[f"{layer}.requests"] = requests
        out[f"{layer}.requests_per_s"] = _ratio(requests, table[f"{layer}.serve_s"])
    out["trace.spans"] = table["trace.spans"]
    out["trace.overhead_pct"] = 100.0 * (rep_s / untraced_rep_s - 1.0)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one rep of a workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)
    if args.trace_out is not None and not args.traced:
        parser.error("--trace-out needs --traced")
    die_with_parent()
    with HostSpeed() as speed:
        import_repro()
        workload = workloads.WORKLOADS[args.workload]
        run = workloads.make_runner(workload)
        imported = time.perf_counter()
        rep = run_rep(run, args.seed, args.traced, speed.reference_seconds)
    result: Dict[str, Any] = {
        "import_s": speed.reference_seconds(START, imported),
        "rep_s": rep.rep_s,
        "setup_s": rep.setup_s,
        "host_s": time.perf_counter() - START,
        "samples": len(speed.samples),
        "accesses": rep.accesses,
        "digest": rep.digest,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                        - PROBE_BYTES) / (1 << 20),
        "model": workloads.model_summary(workload.name, rep.payload),
        "skipped": rep.skipped,
    }
    if args.traced:
        result["layers"] = layer_table(rep)
    if args.trace_out is not None:
        args.trace_out.write_text(json.dumps({
            "workload": workload.name,
            "seed": args.seed,
            "spans": spans.spans_to_json(rep.tracer.spans, rep.tracer.entries),
        }) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
