"""Vectorised fault transforms for the bulk queueing stage.

The NFV experiments push millions of arrivals through the queueing
model; injecting faults packet-by-packet there would dominate runtime.
:func:`apply_bulk_faults` instead applies each NIC-level fault class as
one vectorised transform over the arrival arrays.

Nested sampling
---------------

Every per-packet decision draws one uniform over the **full pre-fault
stream** and fires where ``u < rate``.  Because the per-site streams
depend only on the plan seed, sweeping intensity with a fixed seed
makes each fault set a *superset* of the lower-intensity sets — the
packets dropped at intensity 0.2 are still dropped at 0.4.  Delivered
goodput is therefore monotone non-increasing in intensity, which is
what makes `degradation_knee` curves clean rather than noisy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.plan import FaultClock


@dataclass
class BulkFaultResult:
    """A faulted arrival stream, ready for the queueing model.

    ``goodput`` flags the packets that count toward delivered useful
    throughput: injected duplicates and corrupted frames traverse the
    queue (they occupy ring slots and service time) but are discarded
    by the receiver, so they never count as goodput.
    """

    arrivals_ns: np.ndarray
    sizes_bytes: np.ndarray
    queue_ids: np.ndarray
    service_ns: np.ndarray
    goodput: np.ndarray


def _swap_adjacent(fire: np.ndarray, *arrays: np.ndarray) -> int:
    """Swap row ``i`` with ``i+1`` in every array where *fire* is set.

    A fire directly following another fire is cleared first so swaps
    never cascade; the last row cannot fire (no successor).  Returns
    the number of swaps performed.
    """
    fire = fire.copy()
    if fire.size:
        fire[-1] = False
        fire[1:] &= ~fire[:-1]
    idx = np.nonzero(fire)[0]
    if idx.size:
        for arr in arrays:
            tmp = arr[idx].copy()
            arr[idx] = arr[idx + 1]
            arr[idx + 1] = tmp
    return int(idx.size)


def apply_bulk_faults(
    clock: FaultClock,
    arrivals_ns: np.ndarray,
    sizes_bytes: np.ndarray,
    queue_ids: np.ndarray,
    service_ns: np.ndarray,
    freq_ghz: float = 3.2,
) -> BulkFaultResult:
    """Apply the plan's NIC-level faults to one arrival stream.

    Transforms, in wire order: drop (packet never reaches the DuT),
    duplication (frame delivered twice, back to back), corruption
    (delivered but discarded at the FCS check — no goodput), reorder
    (frame swapped with its successor), poll stalls (service-time
    inflation by ``nic_stall_cycles``).

    Every decision comes from the clock's per-site streams; rates at
    zero draw nothing, so an all-zero plan returns the input arrays
    unchanged (bit-identity with a fault-free run).
    """
    rates = clock.rates
    arrivals = np.asarray(arrivals_ns, dtype=float)
    sizes = np.asarray(sizes_bytes, dtype=float)
    queues = np.asarray(queue_ids)
    service = np.asarray(service_ns, dtype=float)
    n = arrivals.size
    if not (arrivals.shape == sizes.shape == queues.shape == service.shape):
        raise ValueError("all per-packet arrays must have equal length")

    keep = np.ones(n, dtype=bool)
    if rates.nic_drop > 0.0:
        keep = clock.uniforms("bulk.nic_drop", n) >= rates.nic_drop
        clock.count("nic.injected_drops", int(n - keep.sum()))

    corrupt = np.zeros(n, dtype=bool)
    if rates.nic_corrupt > 0.0:
        corrupt = clock.uniforms("bulk.nic_corrupt", n) < rates.nic_corrupt
        clock.count("nic.injected_corruptions", int((corrupt & keep).sum()))

    dup = np.zeros(n, dtype=bool)
    if rates.nic_duplicate > 0.0:
        dup = clock.uniforms("bulk.nic_duplicate", n) < rates.nic_duplicate
        clock.count("nic.injected_duplicates", int((dup & keep).sum()))

    kept_idx = np.nonzero(keep)[0]
    out_idx = np.repeat(kept_idx, np.where(dup[kept_idx], 2, 1))
    is_copy = np.zeros(out_idx.size, dtype=bool)
    if out_idx.size > 1:
        is_copy[1:] = out_idx[1:] == out_idx[:-1]

    out_arrivals = arrivals[out_idx]
    out_sizes = sizes[out_idx]
    out_queues = queues[out_idx]
    out_service = service[out_idx].copy()
    goodput = ~corrupt[out_idx] & ~is_copy

    if rates.nic_reorder > 0.0:
        fire = clock.uniforms("bulk.nic_reorder", n) < rates.nic_reorder
        swaps = _swap_adjacent(
            fire[out_idx] & ~is_copy,
            out_sizes,
            out_queues,
            out_service,
            goodput,
        )
        clock.count("nic.injected_reorders", swaps)

    if rates.nic_stall > 0.0:
        stall = clock.uniforms("bulk.nic_stall", n) < rates.nic_stall
        stalled = stall[out_idx]
        out_service[stalled] += rates.nic_stall_cycles / freq_ghz
        clock.count("nic.injected_stalls", int(stalled.sum()))

    return BulkFaultResult(
        arrivals_ns=out_arrivals,
        sizes_bytes=out_sizes,
        queue_ids=out_queues,
        service_ns=out_service,
        goodput=goodput,
    )


@dataclass
class OutageSchedule:
    """Pre-drawn whole-server outage decisions for one fleet cell.

    Every grid is ``(n_epochs, n_servers)`` and every cell is drawn
    whether or not it can fire (a kill decision for an already-dead
    server is a no-op), so the fire sets are intensity-supersets under
    a fixed plan seed — the same nested-sampling construction
    :func:`apply_bulk_faults` uses, lifted to whole servers.  That is
    what makes the ``fleet-durability`` lost-key curves monotone in
    kill intensity.

    Row 0 is drawn but never applied: outages begin at the first epoch
    *boundary* (epoch 1).  :func:`draw_guarded_kill_schedule` fills the
    same shape for the fleet's re-shard model.
    """

    n_epochs: int
    n_servers: int
    kill_fires: np.ndarray       # bool  (n_epochs, n_servers)
    stall_fires: np.ndarray      # bool  (n_epochs, n_servers)
    stall_epochs: np.ndarray     # int64 durations, valid where stall fires
    recovery_epochs: np.ndarray  # int64 reboot delays; 0 = permanent kill


def draw_outage_schedule(
    clock: FaultClock, n_epochs: int, n_servers: int
) -> OutageSchedule:
    """Draw the full kill/stall/recovery schedule for one fleet cell.

    All randomness flows through the clock's dedicated per-site
    streams (``fleet.server_kill``, ``fleet.server_stall``,
    ``fleet.server_stall_epochs``, ``fleet.server_recovery``); sites
    whose rates are zero draw nothing, so an all-zero plan leaves
    every stream untouched.  Magnitude grids (durations, delays) are
    drawn alongside their probability grids so the values a firing
    cell uses do not shift as intensity scales the fire sets.
    """
    if n_epochs <= 0 or n_servers <= 0:
        raise ValueError(
            f"need positive grid, got {n_epochs} epochs × {n_servers} servers"
        )
    rates = clock.rates
    shape = (n_epochs, n_servers)
    kill_fires = np.zeros(shape, dtype=bool)
    stall_fires = np.zeros(shape, dtype=bool)
    stall_epochs = np.zeros(shape, dtype=np.int64)
    recovery_epochs = np.zeros(shape, dtype=np.int64)
    if rates.server_kill > 0.0:
        kill_fires = (
            clock.uniform_grid("fleet.server_kill", shape)
            < rates.server_kill
        )
        if rates.server_recovery_epochs_max > 0:
            recovery_epochs = clock.integer_grid(
                "fleet.server_recovery",
                rates.server_recovery_epochs_min,
                rates.server_recovery_epochs_max + 1,
                shape,
            )
    if rates.server_stall > 0.0:
        stall_fires = (
            clock.uniform_grid("fleet.server_stall", shape)
            < rates.server_stall
        )
        stall_epochs = clock.integer_grid(
            "fleet.server_stall_epochs",
            rates.server_stall_epochs_min,
            rates.server_stall_epochs_max + 1,
            shape,
        )
    return OutageSchedule(
        n_epochs=n_epochs,
        n_servers=n_servers,
        kill_fires=kill_fires,
        stall_fires=stall_fires,
        stall_epochs=stall_epochs,
        recovery_epochs=recovery_epochs,
    )


def draw_guarded_kill_schedule(
    clock: FaultClock, n_epochs: int, n_servers: int
) -> OutageSchedule:
    """Draw permanent, last-server-guarded kills for one fleet cell.

    The re-shard membership model's kill process: at each epoch
    boundary (epochs ``1 .. n_epochs - 1``) every alive server, in id
    order, draws one ``fleet.server_kill`` Bernoulli at the plan's
    rate, and drawing stops for the epoch once only one server is
    alive — the fleet always keeps a server.  Kills are permanent, so
    the alive set depends only on earlier draws and the whole schedule
    can be drawn upfront.  Unlike :func:`draw_outage_schedule`, the
    draw count depends on which kills fire, so fire sets do not nest
    across intensities; stall and recovery grids stay all zero.
    """
    if n_epochs <= 0 or n_servers <= 0:
        raise ValueError(
            f"need positive grid, got {n_epochs} epochs × {n_servers} servers"
        )
    shape = (n_epochs, n_servers)
    kill_fires = np.zeros(shape, dtype=bool)
    rate = clock.rates.server_kill
    alive = list(range(n_servers))
    for epoch in range(1, n_epochs):
        for sid in list(alive):
            if len(alive) <= 1:
                break
            if clock.fires("fleet.server_kill", rate):
                kill_fires[epoch, sid] = True
                alive.remove(sid)
    return OutageSchedule(
        n_epochs=n_epochs,
        n_servers=n_servers,
        kill_fires=kill_fires,
        stall_fires=np.zeros(shape, dtype=bool),
        stall_epochs=np.zeros(shape, dtype=np.int64),
        recovery_epochs=np.zeros(shape, dtype=np.int64),
    )
