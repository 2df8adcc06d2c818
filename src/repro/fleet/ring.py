"""Consistent-hash ring: virtual nodes, minimal remapping, bulk routing.

The front-end load balancer places every ``(tenant, key)`` pair on the
ring by a 64-bit mix and assigns it to the first virtual node at or
after that position (clockwise).  Each physical server contributes
``vnodes`` virtual nodes, so load spreads evenly and removing a server
remaps **only** the keys that server owned — the property that makes
whole-server failover cheap (each orphaned key moves to the next
surviving node on the ring instead of the whole fleet re-sharding).

Determinism contract: virtual-node positions come from BLAKE2b digests
of ``"name#replica"`` strings and key positions from a splitmix64-style
integer mix — no ``hash()``, so placement is identical across
processes, Python versions and ``PYTHONHASHSEED`` values (the lab's
parallel-vs-serial bit-identity depends on this).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

#: Default virtual nodes per server; 64 keeps the max/mean load ratio
#: under ~1.5 for the fleet sizes the experiments sweep.
DEFAULT_VNODES = 64

_MIX_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MULT2 = np.uint64(0x94D049BB133111EB)
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def mix64(values: Union[int, np.ndarray]) -> np.ndarray:
    """Splitmix64 finalizer: a cheap, vectorisable 64-bit bijection.

    Accepts a scalar or an array; always returns a ``uint64`` array
    (0-d for scalars).  Used to scatter sequential key ids uniformly
    over the ring's position space.
    """
    z = np.asarray(values, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z + _GOLDEN_GAMMA).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * _MIX_MULT1
        z = (z ^ (z >> np.uint64(27))) * _MIX_MULT2
        z = z ^ (z >> np.uint64(31))
    return z


def key_positions(
    tenants: Union[int, np.ndarray], keys: Union[int, np.ndarray]
) -> np.ndarray:
    """Ring positions for ``(tenant, key)`` pairs (vectorised).

    Tenants are mixed first so two tenants' identical key ids land on
    unrelated positions — tenant key spaces never shadow each other.
    """
    tenant_mix = mix64(np.asarray(tenants, dtype=np.uint64))
    with np.errstate(over="ignore"):
        combined = tenant_mix ^ (
            np.asarray(keys, dtype=np.uint64) + _GOLDEN_GAMMA
        ).astype(np.uint64)
    return mix64(combined)


def _vnode_position(name: str, replica: int) -> int:
    """The ring position of one virtual node (stable across runs)."""
    digest = hashlib.blake2b(
        f"{name}#{replica}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashRing:
    """The load balancer's node→position table.

    Args:
        vnodes: virtual nodes per physical server.

    Nodes are identified by name (``"server-3"``).  Lookups walk
    clockwise from the key position to the next virtual node;
    :meth:`route_positions` does the same for a whole position array
    with one ``searchsorted``, which is what lets the traffic loop
    route millions of requests cheaply.
    """

    def __init__(self, vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes <= 0:
            raise ValueError(f"vnodes must be positive, got {vnodes}")
        self.vnodes = vnodes
        self._nodes: List[str] = []
        self._ring_positions = np.empty(0, dtype=np.uint64)
        self._ring_owners = np.empty(0, dtype=np.int64)

    # -- membership ----------------------------------------------------

    @property
    def nodes(self) -> List[str]:  # simcheck: ignore[SIM501] probe
        """Current members, in insertion order."""
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def add_node(self, name: str) -> None:
        """Add a server; duplicate names are an error."""
        if name in self._nodes:
            raise ValueError(f"node {name!r} already on the ring")
        self._nodes.append(name)
        self._rebuild()

    def _rebuild(self) -> None:
        entries: List[Tuple[int, str]] = []
        for name in self._nodes:
            entries.extend(
                (_vnode_position(name, replica), name)
                for replica in range(self.vnodes)
            )
        # Position ties (astronomically rare) break by name so the
        # table is a pure function of the membership set.
        entries.sort()
        index: Dict[str, int] = {
            name: i for i, name in enumerate(self._nodes)
        }
        self._ring_positions = np.array(
            [position for position, _ in entries], dtype=np.uint64
        )
        self._ring_owners = np.array(
            [index[name] for _, name in entries], dtype=np.int64
        )

    # -- routing -------------------------------------------------------

    def route_positions(self, positions: np.ndarray) -> np.ndarray:
        """Owner index (into :attr:`nodes`) for each ring position.

        One vectorised clockwise walk: the first virtual node at or
        after each position, wrapping past the top of the ring.
        """
        return self._ring_owners[self.slot_positions(positions)]

    def node_for(self, tenant: int, key: int) -> str:  # simcheck: ignore[SIM501] oracle for owners_for_keys
        """The server owning one ``(tenant, key)`` pair."""
        owner = int(self.route_positions(key_positions(tenant, key))[()])
        return self._nodes[owner]

    # -- replication ---------------------------------------------------

    def slot_positions(self, positions: np.ndarray) -> np.ndarray:
        """Virtual-node slot index per ring position (bulk).

        The slot is where the clockwise walk *starts*; feed it to
        :meth:`successors_at` to expand a replica set without
        re-searching the ring.
        """
        if not self._nodes:
            raise RuntimeError("cannot route on an empty ring")
        slots = np.searchsorted(
            self._ring_positions, np.asarray(positions, dtype=np.uint64),
            side="left",
        )
        slots %= len(self._ring_positions)
        return slots

    def successors_at(self, slot: int, count: int) -> List[int]:
        """The first *count* distinct owners clockwise from *slot*.

        Returns owner indices (into :attr:`nodes`) in walk order.  By
        construction the result for ``count`` is a prefix of the
        result for ``count + 1`` — replica sets nest, which is what
        makes lost-key fractions monotone in the replication factor.
        Fewer than *count* members yields every member once.
        """
        if not self._nodes:
            raise RuntimeError("cannot route on an empty ring")
        want = min(count, len(self._nodes))
        n_slots = len(self._ring_positions)
        owners: List[int] = []
        seen = set()
        for offset in range(n_slots):
            owner = int(self._ring_owners[(slot + offset) % n_slots])
            if owner not in seen:
                seen.add(owner)
                owners.append(owner)
                if len(owners) == want:
                    break
        return owners

    def replicas_for(  # simcheck: ignore[SIM501] probe
        self, tenant: int, key: int, replication: int
    ) -> List[str]:
        """The *replication* distinct servers replicating one pair.

        The first entry is the primary (the :meth:`node_for` owner);
        the rest are its next-distinct-server ring successors.
        """
        if replication <= 0:
            raise ValueError(
                f"replication must be positive, got {replication}"
            )
        slot = int(
            self.slot_positions(key_positions(tenant, key).reshape(1))[0]
        )
        return [self._nodes[i] for i in self.successors_at(slot, replication)]

    def owners_for_keys(  # simcheck: ignore[SIM501] probe
        self, tenants: np.ndarray, keys: np.ndarray
    ) -> List[str]:
        """Owning server name per ``(tenant, key)`` pair (bulk)."""
        owners = self.route_positions(key_positions(tenants, keys))
        return [self._nodes[int(i)] for i in owners]

    def load_counts(  # simcheck: ignore[SIM501] probe
        self, tenants: np.ndarray, keys: np.ndarray
    ) -> Dict[str, int]:
        """How many of the given pairs each server owns."""
        owners = self.route_positions(key_positions(tenants, keys))
        counts = np.bincount(owners, minlength=len(self._nodes))
        return {name: int(counts[i]) for i, name in enumerate(self._nodes)}

    def __repr__(self) -> str:
        return (
            f"ConsistentHashRing(nodes={len(self._nodes)}, "
            f"vnodes={self.vnodes})"
        )


def build_ring(names: Sequence[str], vnodes: int = DEFAULT_VNODES) -> ConsistentHashRing:  # simcheck: ignore[SIM501] oracle: the re-shard oracle's ring without the dead nodes
    """A ring populated with *names* in order."""
    ring = ConsistentHashRing(vnodes=vnodes)
    for name in names:
        ring.add_node(name)
    return ring
