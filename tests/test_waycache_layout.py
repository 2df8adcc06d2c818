"""The flat-array WayCache layout against a per-set reference model.

:class:`WayCache` keeps each slice's tags, dirty bits and replacement
state in flat per-slice lists indexed ``set_i * n_ways + way``.  The
model below keeps the same state the eager way — one tag list, one
dirty list, one shadow dict and one single-set policy object per set,
set ``i``'s stochastic policy seeded with ``seed + i``.  Hypothesis
drives both through insert/lookup/invalidate/flush streams under CAT
and DDIO way masks, for every replacement policy, and requires the
same return values and the same per-set contents throughout.
"""

import gc
from typing import Dict, List, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.cache import WayCache
from repro.cachesim.replacement import make_policy
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


def assert_same_sets(flat: WayCache, model: PerSetWayCache) -> None:
    n_ways = flat.n_ways
    for index in range(flat.n_sets):
        base = index * n_ways
        assert flat._tags[base:base + n_ways] == model.tags[index]
        assert flat._dirty[base:base + n_ways] == model.dirty[index]
        assert flat._where[index] == model.where[index]


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


class TestConstructionCost:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_tracked_objects_independent_of_set_count(self, policy):
        full = tracked_objects_added(2048, 20 if policy != "plru" else 16, policy)
        tiny = tracked_objects_added(2, 20 if policy != "plru" else 16, policy)
        assert full == tiny
        assert full <= 12

    def test_flush_keeps_containers(self):
        cache = WayCache(8, 4)
        tags, dirty, where = cache._tags, cache._dirty, cache._where
        cache.insert(0, dirty=True)
        assert cache.flush() == [(0, True)]
        assert cache._tags is tags and cache._dirty is dirty and cache._where is where
        assert tags == [None] * 32 and dirty == [False] * 32
