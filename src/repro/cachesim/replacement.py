"""Replacement policies for way-organised cache sets.

One policy object holds the replacement state of *every* set of a
cache (an LLC slice) in one typed buffer indexed ``set_i * stride + k``
(an ``array`` or ``bytearray``; only RRPVs wider than 8 bits, which
no shipped policy uses, fall back to a list), so the garbage collector
never walks it element by element however many sets the slice has.  Methods take
the way first and the set index second (default ``0``): a policy built
with ``n_sets=1`` is the classic single-set state machine.

Policies support *way masks* (needed for CAT and DDIO): victim
selection can be restricted to an allowed subset of ways.  All policies
implement :class:`ReplacementPolicy`.
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, MutableSequence, Protocol, Sequence


class ReplacementPolicy(Protocol):
    """Replacement state machine over the sets of one cache."""

    def touch(self, way: int, set_i: int = 0) -> None:
        """Record a hit on *way* of set *set_i*."""

    def victim(self, allowed_ways: Sequence[int], set_i: int = 0) -> int:
        """Choose a victim among *allowed_ways* (all currently valid)."""

    def reset(self, way: int, set_i: int = 0) -> None:
        """Record that *way* of set *set_i* was (re)filled."""


def _check_geometry(n_ways: int, n_sets: int) -> None:
    if n_ways <= 0:
        raise ValueError(f"n_ways must be positive, got {n_ways}")
    if n_sets <= 0:
        raise ValueError(f"n_sets must be positive, got {n_sets}")


def _rrpv_buffer(n: int, max_rrpv: int) -> MutableSequence[int]:
    """*n* RRPVs, all at *max_rrpv*: a ``bytearray`` up to 8 bits, else
    a list (no default policy uses more than 2 bits)."""
    return bytearray([max_rrpv]) * n if max_rrpv < 256 else [max_rrpv] * n


class _PerSetRng:
    """Lazily created ``random.Random(seed + set_i)`` per set.

    A set's stream is created on its first draw, so it is identical to
    one seeded eagerly at construction, and sets that never draw cost
    nothing.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rngs: Dict[int, random.Random] = {}

    def __call__(self, set_i: int) -> random.Random:
        rng = self._rngs.get(set_i)
        if rng is None:
            rng = self._rngs[set_i] = random.Random(self.seed + set_i)
        return rng


#: An LRU clock at or past this is renumbered before its next step.
#: Stamps are 4-byte unsigned (``array('I')``, at most ``2**32 - 1``),
#: so the fast engine, which checks once per entry call rather than per
#: access, keeps ``2**31`` steps of headroom for one call.
LRU_RENUMBER_AT = 1 << 31


class LruPolicy:
    """True least-recently-used order over the ways of each set.

    ``_stamp[set_i * n_ways + way]`` is the way's last-use time from one
    cache-wide clock; every stamp starts at ``0``, below any clock value.
    Stamps are only ever compared within a set, so a shared monotonic
    clock picks the same victims as one clock per set, and
    :meth:`renumber` may rewrite each set's stamps to their rank order
    and restart the clock without changing any victim.  That keeps the
    stamps in 4 bytes for any run length.
    """

    def __init__(self, n_ways: int, n_sets: int = 1) -> None:
        _check_geometry(n_ways, n_sets)
        self.n_ways = n_ways
        self._clock = 0
        self._stamp = array("I", [0]) * (n_sets * n_ways)

    def touch(self, way: int, set_i: int = 0) -> None:
        if self._clock >= LRU_RENUMBER_AT:
            self.renumber()
        self._clock += 1
        self._stamp[set_i * self.n_ways + way] = self._clock

    def renumber(self) -> None:
        """Replace each set's stamps by their rank in the set (equal
        stamps keep equal ranks) and restart the clock above them."""
        stamp = self._stamp
        n_ways = self.n_ways
        for base in range(0, len(stamp), n_ways):
            row = stamp[base:base + n_ways]
            rank = {s: r for r, s in enumerate(sorted(set(row)))}
            stamp[base:base + n_ways] = array("I", [rank[s] for s in row])
        self._clock = n_ways

    def victim(self, allowed_ways: Sequence[int], set_i: int = 0) -> int:
        if not allowed_ways:
            raise ValueError("allowed_ways must be non-empty")
        stamp = self._stamp
        base = set_i * self.n_ways
        best = allowed_ways[0]
        best_stamp = stamp[base + best]
        for way in allowed_ways[1:]:
            if stamp[base + way] < best_stamp:
                best = way
                best_stamp = stamp[base + way]
        return best

    def reset(self, way: int, set_i: int = 0) -> None:
        self.touch(way, set_i)


class TreePlruPolicy:
    """Tree pseudo-LRU, as implemented by real Intel L1/L2 caches.

    Each set's tree is over ``n_ways`` leaves (``n_ways`` must be a
    power of two), stored as ``n_ways - 1`` bits at offset
    ``set_i * (n_ways - 1)``.  Way masks are honoured by walking the
    tree but clamping the descent to the allowed subtree when the
    preferred side contains no allowed way.
    """

    def __init__(self, n_ways: int, n_sets: int = 1) -> None:
        if n_ways <= 0 or n_ways & (n_ways - 1):
            raise ValueError(f"n_ways must be a positive power of two, got {n_ways}")
        _check_geometry(n_ways, n_sets)
        self.n_ways = n_ways
        self._stride = max(1, n_ways - 1)
        self._bits = bytearray(n_sets * self._stride)

    def touch(self, way: int, set_i: int = 0) -> None:
        # Walk from root to the leaf, setting each bit to point *away*
        # from the touched way.
        bits = self._bits
        base = set_i * self._stride
        node = 0
        low, high = 0, self.n_ways
        while high - low > 1:
            mid = (low + high) // 2
            if way < mid:
                bits[base + node] = 1  # protect left, point right
                node = 2 * node + 1
                high = mid
            else:
                bits[base + node] = 0  # protect right, point left
                node = 2 * node + 2
                low = mid

    def victim(self, allowed_ways: Sequence[int], set_i: int = 0) -> int:
        if not allowed_ways:
            raise ValueError("allowed_ways must be non-empty")
        allowed = set(allowed_ways)
        bits = self._bits
        base = set_i * self._stride
        node = 0
        low, high = 0, self.n_ways
        while high - low > 1:
            mid = (low + high) // 2
            left_has = any(low <= way < mid for way in allowed)
            right_has = any(mid <= way < high for way in allowed)
            go_left = bits[base + node] == 0
            if go_left and not left_has:
                go_left = False
            elif not go_left and not right_has:
                go_left = True
            if go_left:
                node = 2 * node + 1
                high = mid
            else:
                node = 2 * node + 2
                low = mid
        if low not in allowed:
            # The walk can only end outside the mask if the mask was
            # inconsistent with the tree clamping above.
            return min(allowed)
        return low

    def reset(self, way: int, set_i: int = 0) -> None:
        self.touch(way, set_i)


class RandomPolicy:
    """Uniformly random victim selection.

    Set *set_i* draws from its own ``random.Random(seed + set_i)``, so
    each set's victim stream is deterministic and independent of the
    traffic in other sets.
    """

    def __init__(self, n_ways: int, seed: int = 0, n_sets: int = 1) -> None:
        _check_geometry(n_ways, n_sets)
        self.n_ways = n_ways
        self._rng = _PerSetRng(seed)

    def touch(self, way: int, set_i: int = 0) -> None:  # random policy keeps no state
        return None

    def victim(self, allowed_ways: Sequence[int], set_i: int = 0) -> int:
        if not allowed_ways:
            raise ValueError("allowed_ways must be non-empty")
        return self._rng(set_i).choice(list(allowed_ways))

    def reset(self, way: int, set_i: int = 0) -> None:
        return None


class SrripPolicy:
    """Static re-reference interval prediction (SRRIP, ISCA '10).

    Modern Intel LLCs do not run true LRU; they use RRIP-family
    policies that resist scanning/thrashing traffic — relevant here
    because DDIO packet streams and Zipf-tail one-hit wonders are
    exactly such traffic.  Each way carries a 2-bit re-reference
    prediction value (RRPV, ``_rrpv[set_i * n_ways + way]``): hits
    promote to 0, fills insert at ``2**bits - 2``, and victims are the
    first way at the maximum RRPV (aging every way when none is there).
    """

    def __init__(self, n_ways: int, bits: int = 2, n_sets: int = 1) -> None:
        _check_geometry(n_ways, n_sets)
        if bits <= 0:
            raise ValueError(f"bits must be positive, got {bits}")
        self.n_ways = n_ways
        self.max_rrpv = (1 << bits) - 1
        self.insert_rrpv = self.max_rrpv - 1
        self._rrpv = _rrpv_buffer(n_sets * n_ways, self.max_rrpv)

    def touch(self, way: int, set_i: int = 0) -> None:
        self._rrpv[set_i * self.n_ways + way] = 0

    def victim(self, allowed_ways: Sequence[int], set_i: int = 0) -> int:
        if not allowed_ways:
            raise ValueError("allowed_ways must be non-empty")
        rrpv = self._rrpv
        base = set_i * self.n_ways
        while True:
            for way in allowed_ways:
                if rrpv[base + way] >= self.max_rrpv:
                    return way
            for way in allowed_ways:
                rrpv[base + way] += 1

    def reset(self, way: int, set_i: int = 0) -> None:
        self._rrpv[set_i * self.n_ways + way] = self.insert_rrpv


class BrripPolicy(SrripPolicy):
    """Bimodal RRIP: most fills insert at the maximum RRPV (evict-soon),
    a small fraction at ``max - 1`` — the thrash-resistant half of
    DRRIP.  One-hit-wonder streams (packet payloads, Zipf tails) wash
    out of the cache almost immediately.  The insertion draw of set
    *set_i* comes from its own ``random.Random(seed + set_i)``."""

    def __init__(
        self,
        n_ways: int,
        bits: int = 2,
        long_fraction: float = 1 / 32,
        seed: int = 0,
        n_sets: int = 1,
    ) -> None:
        super().__init__(n_ways, bits, n_sets=n_sets)
        if not 0 < long_fraction <= 1:
            raise ValueError("long_fraction must be in (0, 1]")
        self.long_fraction = long_fraction
        self._rng = _PerSetRng(seed)

    def reset(self, way: int, set_i: int = 0) -> None:
        if self._rng(set_i).random() < self.long_fraction:
            self._rrpv[set_i * self.n_ways + way] = self.insert_rrpv
        else:
            self._rrpv[set_i * self.n_ways + way] = self.max_rrpv


def make_policy(
    name: str, n_ways: int, seed: int = 0, n_sets: int = 1
) -> ReplacementPolicy:
    """Instantiate a replacement policy by name
    (``lru``/``plru``/``random``/``srrip``/``brrip``) covering *n_sets*
    sets; stochastic policies seed set ``i`` with ``seed + i``."""
    if name == "lru":
        return LruPolicy(n_ways, n_sets=n_sets)
    if name == "plru":
        return TreePlruPolicy(n_ways, n_sets=n_sets)
    if name == "random":
        return RandomPolicy(n_ways, seed=seed, n_sets=n_sets)
    if name == "srrip":
        return SrripPolicy(n_ways, n_sets=n_sets)
    if name == "brrip":
        return BrripPolicy(n_ways, seed=seed, n_sets=n_sets)
    raise ValueError(f"unknown replacement policy {name!r}")
