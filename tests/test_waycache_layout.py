"""The flat-buffer WayCache layout against a per-set reference model.

:class:`WayCache` keeps each slice's tags, dirty bits and replacement
state in typed per-slice buffers indexed ``set_i * n_ways + way``, and
one line -> way dict for the whole slice.  The model below keeps the
same state the eager way — one tag list, one dirty list, one line ->
way dict and one single-set policy object per set, set ``i``'s
stochastic policy seeded with ``seed + i``.  Hypothesis drives both
through insert/lookup/invalidate/flush streams under CAT and DDIO way
masks, for every replacement policy, and requires the same return
values and the same per-set contents throughout.  The buffers are
decoded (tag ``INVALID_TAG`` -> ``None``, dirty byte -> ``bool``)
after checking that the two validity encodings agree slot by slot, and
the slice's map is split by the set each line derives.
"""

import gc
from typing import Dict, List, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.cache import INVALID_TAG, INVALID_WAY, WayCache
from repro.cachesim.replacement import SrripPolicy, make_policy
from repro.mem.address import CACHE_LINE

POLICIES = ["lru", "plru", "random", "srrip", "brrip"]


class PerSetWayCache:
    """Reference WayCache with per-set containers and policy objects."""

    def __init__(self, n_sets: int, n_ways: int, policy: str, seed: int) -> None:
        self.n_ways = n_ways
        self.set_mask = n_sets - 1
        self.tags: List[List[Optional[int]]] = [[None] * n_ways for _ in range(n_sets)]
        self.dirty: List[List[bool]] = [[False] * n_ways for _ in range(n_sets)]
        self.where: List[Dict[int, int]] = [{} for _ in range(n_sets)]
        self.policies = [
            make_policy(policy, n_ways, seed=seed + i) for i in range(n_sets)
        ]

    def _index(self, line: int) -> int:
        return (line // CACHE_LINE) & self.set_mask

    def lookup(self, line: int, write: bool = False) -> bool:
        index = self._index(line)
        way = self.where[index].get(line)
        if way is None:
            return False
        self.policies[index].touch(way)
        if write:
            self.dirty[index][way] = True
        return True

    def insert(self, line: int, dirty: bool, allowed_ways: Optional[Sequence[int]]):
        index = self._index(line)
        where, tags = self.where[index], self.tags[index]
        policy = self.policies[index]
        existing = where.get(line)
        if existing is not None:
            policy.touch(existing)
            if dirty:
                self.dirty[index][existing] = True
            return None
        ways = tuple(range(self.n_ways)) if allowed_ways is None else tuple(allowed_ways)
        victim = None
        way = next((w for w in ways if tags[w] is None), None)
        if way is None:
            way = policy.victim(ways)
            victim = (tags[way], self.dirty[index][way])
            del where[tags[way]]
        tags[way] = line
        self.dirty[index][way] = dirty
        where[line] = way
        policy.reset(way)
        return victim

    def invalidate(self, line: int) -> Optional[bool]:
        index = self._index(line)
        way = self.where[index].pop(line, None)
        if way is None:
            return None
        self.tags[index][way] = None
        dirty = self.dirty[index][way]
        self.dirty[index][way] = False
        return dirty

    def flush(self):
        drained = []
        for index, where in enumerate(self.where):
            drained.extend((line, self.dirty[index][way]) for line, way in where.items())
            where.clear()
            self.tags[index] = [None] * self.n_ways
            self.dirty[index] = [False] * self.n_ways
        return drained


def decoded_set(flat: WayCache, index: int):
    """Set *index*'s ``(tags, dirty)`` as the model holds them: ``None``
    for an invalid way's tag, ``bool`` dirty bits (``False`` when
    invalid).  The tag and the dirty byte must agree on validity."""
    base = index * flat.n_ways
    tags = flat._tags[base:base + flat.n_ways]
    dirty = flat._dirty[base:base + flat.n_ways]
    for tag, byte in zip(tags, dirty):
        assert byte in (0, 1, INVALID_WAY)
        assert (tag == INVALID_TAG) == (byte == INVALID_WAY), (tag, byte)
    return (
        [None if tag == INVALID_TAG else tag for tag in tags],
        [byte == 1 for byte in dirty],
    )


def where_by_set(flat: WayCache) -> List[Dict[int, int]]:
    """The slice's line -> way map split into one dict per set."""
    per_set: List[Dict[int, int]] = [{} for _ in range(flat.n_sets)]
    for line, way in flat._where.items():
        per_set[flat.set_index(line)][line] = way
    return per_set


def assert_same_sets(flat: WayCache, model: PerSetWayCache) -> None:
    where = where_by_set(flat)
    for index in range(flat.n_sets):
        assert decoded_set(flat, index) == (model.tags[index], model.dirty[index])
        assert where[index] == model.where[index]
        assert flat.set_occupancy(index) == len(model.where[index])


@st.composite
def way_masks(draw, n_ways: int):
    """``None`` (all ways), a contiguous CAT mask, or the top DDIO ways."""
    kind = draw(st.sampled_from(["all", "cat", "ddio"]))
    if kind == "all":
        return None
    if kind == "cat":
        low = draw(st.integers(0, n_ways - 1))
        high = draw(st.integers(low + 1, n_ways))
        return tuple(range(low, high))
    count = draw(st.integers(1, n_ways))
    return tuple(range(n_ways - count, n_ways))


@st.composite
def cache_streams(draw):
    policy = draw(st.sampled_from(POLICIES))
    n_sets = draw(st.sampled_from([1, 2, 4]))
    way_choices = [1, 2, 4, 8] if policy == "plru" else [1, 2, 3, 4, 5, 8]
    n_ways = draw(st.sampled_from(way_choices))
    seed = draw(st.integers(0, 1000))
    op = st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 47), st.booleans(), way_masks(n_ways)),
        st.tuples(st.just("lookup"), st.integers(0, 47), st.booleans()),
        st.tuples(st.just("invalidate"), st.integers(0, 47)),
        st.tuples(st.just("flush")),
    )
    ops = draw(st.lists(op, max_size=150))
    return policy, n_sets, n_ways, seed, ops


@pytest.mark.differential
class TestFlatLayoutMatchesPerSetModel:
    @settings(max_examples=200, deadline=None)
    @given(stream=cache_streams())
    def test_same_outcomes_and_contents(self, stream):
        policy, n_sets, n_ways, seed, ops = stream
        flat = WayCache(n_sets, n_ways, policy=policy, seed=seed)
        model = PerSetWayCache(n_sets, n_ways, policy, seed)
        for op in ops:
            if op[0] == "insert":
                _, index, dirty, mask = op
                line = index * CACHE_LINE
                assert flat.insert(line, dirty=dirty, allowed_ways=mask) == model.insert(
                    line, dirty, mask
                )
            elif op[0] == "lookup":
                line = op[1] * CACHE_LINE
                assert flat.lookup(line, write=op[2]) == model.lookup(line, op[2])
            elif op[0] == "invalidate":
                line = op[1] * CACHE_LINE
                assert flat.invalidate(line) == model.invalidate(line)
            else:
                assert sorted(flat.flush()) == sorted(model.flush())
            assert_same_sets(flat, model)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_policy_is_exercised_past_capacity(self, policy):
        # A deterministic stream that forces victim selection in every
        # set, under a DDIO mask and a CAT mask, then a flush.
        flat = WayCache(4, 4, policy=policy, seed=9)
        model = PerSetWayCache(4, 4, policy, 9)
        for i in range(200):
            line = (i * 7 % 64) * CACHE_LINE
            mask = (2, 3) if i % 3 == 0 else ((0, 1, 2) if i % 3 == 1 else None)
            assert flat.insert(line, dirty=i % 2 == 0, allowed_ways=mask) == model.insert(
                line, i % 2 == 0, mask
            )
            assert flat.lookup(line ^ CACHE_LINE) == model.lookup(line ^ CACHE_LINE)
        assert_same_sets(flat, model)
        assert sorted(flat.flush()) == sorted(model.flush())
        assert_same_sets(flat, model)


def tracked_objects_added(n_sets: int, n_ways: int, policy: str) -> int:
    """GC-tracked objects that building one WayCache leaves alive."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        cache = WayCache(n_sets, n_ways, policy=policy)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    del cache
    return added


def tracked_elements_added(n_sets: int, n_ways: int, policy: str):
    """``(cache, elements)``: one new WayCache and the number of
    elements a collection visits in the GC-tracked containers that
    building it left alive."""
    gc.collect()
    gc.disable()
    try:
        before = gc.get_objects()
        seen = {id(obj) for obj in before}
        seen.update((id(before), id(seen)))
        cache = WayCache(n_sets, n_ways, policy=policy)
        elements = 0
        for obj in gc.get_objects():
            if id(obj) not in seen:
                elements += len(gc.get_referents(obj))
    finally:
        gc.enable()
    return cache, elements


def policy_state(cache: WayCache):
    """The policy's per-slot state buffer (``None`` for ``random``)."""
    for name in ("_stamp", "_bits", "_rrpv"):
        if hasattr(cache._policy, name):
            return getattr(cache._policy, name)
    return None


def never_walked(buffer) -> bool:
    """A collection visits none of *buffer*'s items: it is untracked,
    or (``array.array`` on CPython 3.10+, a GC-tracked heap type) its
    only referent is its type."""
    return not gc.is_tracked(buffer) or gc.get_referents(buffer) == [type(buffer)]


class TestConstructionCost:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_tracked_objects_independent_of_set_count(self, policy):
        full = tracked_objects_added(2048, 20 if policy != "plru" else 16, policy)
        tiny = tracked_objects_added(2, 20 if policy != "plru" else 16, policy)
        assert full == tiny
        assert full <= 12

    @pytest.mark.parametrize("policy", POLICIES)
    def test_tracked_elements_independent_of_set_count(self, policy):
        # Nothing a collection visits grows with the sets or the ways:
        # the one line -> way dict per slice maps ints to ints, so it
        # is not tracked.
        n_ways = 20 if policy != "plru" else 16
        full, full_elements = tracked_elements_added(2048, n_ways, policy)
        tiny, tiny_elements = tracked_elements_added(2, n_ways, policy)
        assert full_elements == tiny_elements
        assert isinstance(full._where, dict)
        assert not gc.is_tracked(full._where)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_slot_buffers_are_not_walked(self, policy):
        cache = WayCache(2048, 16, policy=policy)
        assert not gc.is_tracked(cache._dirty)
        assert never_walked(cache._tags)
        state = policy_state(cache)
        assert (state is None) == (policy == "random")
        if state is not None:
            assert never_walked(state)
        if policy in ("plru", "srrip", "brrip"):
            assert not gc.is_tracked(state)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_dirty_flags_are_bools(self, policy):
        dirty = {0: True, CACHE_LINE: False, 2 * CACHE_LINE: False}
        cache = WayCache(1, 2, policy=policy, seed=5)
        cache.insert(0, dirty=True)
        cache.insert(CACHE_LINE, dirty=False)
        assert cache.invalidate(0) is True
        assert cache.invalidate(CACHE_LINE) is False
        cache.insert(0, dirty=True)
        cache.insert(CACHE_LINE, dirty=False)
        line, was_dirty = cache.insert(2 * CACHE_LINE)
        assert was_dirty is dirty[line]
        drained = cache.flush()
        assert len(drained) == 2
        for line, was_dirty in drained:
            assert was_dirty is dirty[line]

    def test_flush_keeps_containers(self):
        # One map for the slice: flush reads each line's dirty bit from
        # the set the line derives and empties the map in place.
        cache = WayCache(8, 4)
        tags, dirty, where = cache._tags, cache._dirty, cache._where
        cache.insert(0, dirty=True)
        cache.insert(8 * CACHE_LINE)
        cache.insert(3 * CACHE_LINE)
        cache.insert(11 * CACHE_LINE, dirty=True)
        assert sorted(cache.flush()) == [
            (0, True),
            (3 * CACHE_LINE, False),
            (8 * CACHE_LINE, False),
            (11 * CACHE_LINE, True),
        ]
        assert cache._tags is tags and cache._dirty is dirty and cache._where is where
        assert where == {}
        for index in range(8):
            assert decoded_set(cache, index) == ([None] * 4, [False] * 4)


class TestAllowedWaysBounds:
    @pytest.mark.parametrize("mask", [[2], [-1], [5], [0, 2]])
    def test_out_of_range_way_raises(self, mask):
        # Set 0's way 2 is set 1's way 0 in the flat layout (and way
        # -1 is set 3's last slot); the fill must not alias it, nor
        # take a valid way of a mask that also names a bad one.
        cache = WayCache(4, 2)
        with pytest.raises(ValueError, match="outside"):
            cache.insert(0, allowed_ways=mask)
        for index in range(4):
            assert decoded_set(cache, index) == ([None] * 2, [False] * 2)
        assert cache.occupancy() == 0
        set1 = [CACHE_LINE, 5 * CACHE_LINE]
        for line in set1:
            assert cache.insert(line) is None
        assert sorted(cache.lines()) == set1


class TestRrpvWidth:
    @pytest.mark.parametrize("bits", [1, 2, 8, 9, 16, 40, 64, 70])
    def test_any_rrpv_width_ages_to_its_maximum(self, bits):
        # A bytearray up to 8 bits, a list past them: no limit on the
        # width, values up to 2**bits - 1 round-trip exactly.
        policy = SrripPolicy(2, bits=bits, n_sets=2)
        top = (1 << bits) - 1
        assert list(policy._rrpv) == [top] * 4
        policy.reset(0, 1)
        policy.reset(1, 1)
        policy.touch(1, 1)
        # One aging pass takes way 0 from top - 1 to top.
        assert policy.victim((0, 1), 1) == 0
        assert list(policy._rrpv) == [top, top, top, 1]


class TestTagRange:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_any_64_bit_line_address_round_trips(self, policy):
        # The tag buffer is unsigned: lines at and past 2**63 are
        # stored, evicted and invalidated like any other.
        cache = WayCache(2, 2, policy=policy, seed=1)
        top = (1 << 64) - 2 * CACHE_LINE
        lines = [1 << 63, top, (1 << 63) + 2 * CACHE_LINE]
        assert cache.insert(lines[0], dirty=True) is None
        assert cache.insert(lines[1]) is None
        victim = cache.insert(lines[2])
        assert victim is not None and victim[0] in lines[:2]
        assert victim[1] is (victim[0] == lines[0])
        kept = [line for line in lines if line != victim[0]]
        assert sorted(cache.lines()) == sorted(kept)
        assert decoded_set(cache, 0)[0].count(None) == 0
        for line in kept:
            assert cache.invalidate(line) is False
        assert decoded_set(cache, 0) == ([None] * 2, [False] * 2)
