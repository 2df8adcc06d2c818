"""Property tests for the consistent-hash ring."""

import numpy as np
import pytest

from repro.fleet.ring import (
    ConsistentHashRing,
    build_ring,
    key_positions,
    mix64,
)


def _sample_pairs(n=20_000, n_tenants=8, n_keys=1 << 16, seed=0):
    rng = np.random.default_rng(seed)
    tenants = rng.integers(0, n_tenants, size=n)
    keys = rng.integers(0, n_keys, size=n)
    return tenants, keys


class TestMix64:
    def test_is_deterministic(self):
        assert int(mix64(12345)[()]) == int(mix64(12345)[()])

    def test_scalar_matches_vector(self):
        values = np.arange(64, dtype=np.uint64)
        vector = mix64(values)
        for i in range(64):
            assert int(mix64(int(values[i]))[()]) == int(vector[i])

    def test_is_injective_on_small_range(self):
        out = mix64(np.arange(100_000, dtype=np.uint64))
        assert len(np.unique(out)) == 100_000

    def test_spreads_sequential_inputs(self):
        # Sequential ids must land all over the 64-bit space, not in a
        # band: top-byte entropy is the cheap proxy.
        out = mix64(np.arange(4096, dtype=np.uint64))
        top_bytes = (out >> np.uint64(56)).astype(int)
        assert len(set(top_bytes.tolist())) > 200

    def test_tenants_do_not_shadow(self):
        # (tenant=0, key=k) and (tenant=1, key=k) must diverge.
        keys = np.arange(1024)
        a = key_positions(np.zeros(1024, dtype=np.int64), keys)
        b = key_positions(np.ones(1024, dtype=np.int64), keys)
        assert not np.array_equal(a, b)


class TestMembership:
    def test_duplicate_add_rejected(self):
        ring = build_ring(["a", "b"])
        with pytest.raises(ValueError, match="already"):
            ring.add_node("a")

    def test_empty_ring_cannot_route(self):
        ring = ConsistentHashRing()
        with pytest.raises(RuntimeError, match="empty ring"):
            ring.route_positions(np.array([1], dtype=np.uint64))

    def test_contains_and_len(self):
        ring = build_ring(["a", "b", "c"])
        assert len(ring) == 3
        assert "b" in ring
        assert "d" not in ring


class TestPlacement:
    def test_deterministic_under_fixed_membership(self):
        """Placement is a pure function of the membership set."""
        tenants, keys = _sample_pairs()
        a = build_ring([f"server-{i}" for i in range(5)])
        b = build_ring([f"server-{i}" for i in range(5)])
        assert a.owners_for_keys(tenants, keys) == b.owners_for_keys(
            tenants, keys
        )

    def test_insertion_order_irrelevant(self):
        tenants, keys = _sample_pairs()
        a = build_ring(["a", "b", "c", "d"])
        b = build_ring(["d", "c", "b", "a"])
        assert a.owners_for_keys(tenants, keys) == b.owners_for_keys(
            tenants, keys
        )

    def test_load_balance_bound(self):
        """With 64 vnodes the max/mean load stays below 1.5."""
        tenants, keys = _sample_pairs(n=50_000)
        for n_servers in (3, 5, 8, 16):
            ring = build_ring([f"server-{i}" for i in range(n_servers)])
            counts = ring.load_counts(tenants, keys)
            mean = 50_000 / n_servers
            assert max(counts.values()) < 1.5 * mean, (n_servers, counts)
            assert min(counts.values()) > 0.5 * mean, (n_servers, counts)

    def test_minimal_movement_on_remove(self):
        """Dropping a node from the membership remaps only the keys it
        owned."""
        tenants, keys = _sample_pairs()
        names = [f"server-{i}" for i in range(6)]
        before = build_ring(names).owners_for_keys(tenants, keys)
        after = build_ring([n for n in names if n != "server-2"]).owners_for_keys(
            tenants, keys
        )
        for prev, cur in zip(before, after):
            if prev != "server-2":
                assert cur == prev  # survivors keep every key they had

    def test_minimal_movement_on_add(self):
        """Adding a node only steals keys (for itself), never shuffles
        keys between pre-existing nodes."""
        tenants, keys = _sample_pairs()
        ring = build_ring([f"server-{i}" for i in range(5)])
        before = ring.owners_for_keys(tenants, keys)
        ring.add_node("server-99")
        after = ring.owners_for_keys(tenants, keys)
        moved = 0
        for prev, cur in zip(before, after):
            if cur != prev:
                assert cur == "server-99"
                moved += 1
        # The newcomer takes roughly 1/(n+1) of the keys.
        assert 0 < moved < 0.4 * len(before)

    def test_node_for_matches_bulk(self):
        ring = build_ring(["a", "b", "c"])
        tenants, keys = _sample_pairs(n=200)
        bulk = ring.owners_for_keys(tenants, keys)
        for i in range(200):
            assert ring.node_for(int(tenants[i]), int(keys[i])) == bulk[i]
