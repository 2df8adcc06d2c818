"""Oracle properties for the fleet's re-shard membership model.

Without self-healing, ``run_fleet_cell`` keeps every server on a
static ring and models a kill by skipping the dead server in each
key's successor walk, with kills drawn upfront by
``draw_guarded_kill_schedule``.  Two oracles pin that down:

* routing: the first live entry of ``successors_at(slot, n)`` on the
  full ring is the owner ``route_positions`` gives on a ring built
  without the dead nodes;
* kills: the upfront schedule equals the scalar per-epoch draw loop
  (alive servers in id order, stop at one survivor, one
  ``fleet.server_kill`` draw each) cell for cell, and leaves the
  stream at the same position.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultClock, FaultPlan, FaultRates
from repro.faults.streams import draw_guarded_kill_schedule
from repro.fleet.ring import build_ring

pytestmark = pytest.mark.differential

SITE = "fleet.server_kill"


@st.composite
def memberships(draw):
    """Node names, vnodes and a dead subset that spares one node."""
    n_nodes = draw(st.integers(1, 8))
    names = [f"server-{i}" for i in range(n_nodes)]
    vnodes = draw(st.integers(1, 32))
    dead = draw(
        st.sets(st.sampled_from(names), max_size=n_nodes - 1)
    )
    return names, vnodes, dead


@settings(max_examples=60, deadline=None)
@given(membership=memberships(), data=st.data())
def test_first_live_successor_is_reduced_ring_owner(membership, data):
    names, vnodes, dead = membership
    full = build_ring(names, vnodes=vnodes)
    reduced = build_ring([n for n in names if n not in dead], vnodes=vnodes)
    # Arbitrary positions plus exact virtual-node positions and their
    # neighbours, where an off-by-one in the walk would show.
    vnode_positions = [int(p) for p in full._ring_positions]
    exact = st.sampled_from(vnode_positions).flatmap(
        lambda p: st.sampled_from(
            [q for q in (p - 1, p, p + 1) if 0 <= q < 1 << 64]
        )
    )
    positions = data.draw(
        st.lists(
            st.one_of(st.integers(0, (1 << 64) - 1), exact),
            min_size=1,
            max_size=40,
        )
    )
    array = np.array(positions, dtype=np.uint64)
    slots = full.slot_positions(array)
    expected = [reduced.nodes[int(i)] for i in reduced.route_positions(array)]
    for slot, want in zip(slots.tolist(), expected):
        walk = [full.nodes[i] for i in full.successors_at(slot, len(names))]
        assert sorted(walk) == sorted(names)
        first_live = next(name for name in walk if name not in dead)
        assert first_live == want


def _reference_kills(clock, n_epochs, n_servers):
    """The scalar per-epoch kill loop the upfront schedule replaces."""
    alive = [True] * n_servers
    fired = set()
    for epoch in range(1, n_epochs):
        for sid in range(n_servers):
            if not alive[sid]:
                continue
            if sum(alive) <= 1:
                break
            if clock.fires(SITE, clock.rates.server_kill):
                alive[sid] = False
                fired.add((epoch, sid))
    return fired


@settings(max_examples=80, deadline=None)
@given(
    rate=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    n_epochs=st.integers(1, 12),
    n_servers=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_guarded_schedule_matches_scalar_loop(rate, n_epochs, n_servers, seed):
    plan = FaultPlan(seed=seed, rates=FaultRates(server_kill=rate))
    reference_clock = FaultClock(plan)
    schedule_clock = FaultClock(plan)
    expected = _reference_kills(reference_clock, n_epochs, n_servers)
    schedule = draw_guarded_kill_schedule(schedule_clock, n_epochs, n_servers)

    assert schedule.kill_fires.shape == (n_epochs, n_servers)
    fired = {
        (int(e), int(s)) for e, s in zip(*np.nonzero(schedule.kill_fires))
    }
    assert fired == expected
    assert not schedule.kill_fires[0].any()
    assert int(schedule.kill_fires.sum()) <= n_servers - 1
    assert (schedule.kill_fires.sum(axis=0) <= 1).all()
    assert not schedule.stall_fires.any()
    assert not schedule.recovery_epochs.any()
    # Both clocks leave the kill stream at the same position.
    assert (
        schedule_clock.stream(SITE).random()
        == reference_clock.stream(SITE).random()
    )


def test_guarded_schedule_rejects_empty_grid():
    clock = FaultClock(FaultPlan(seed=0, rates=FaultRates(server_kill=0.5)))
    with pytest.raises(ValueError):
        draw_guarded_kill_schedule(clock, 0, 3)
    with pytest.raises(ValueError):
        draw_guarded_kill_schedule(clock, 3, 0)
