"""Tests for the fleet's Zipf traffic generator."""

import numpy as np
import pytest

from repro.fleet.traffic import FleetTrafficGenerator


def _gen(**kw):
    defaults = dict(n_tenants=4, n_keys=1 << 12, seed=0)
    defaults.update(kw)
    return FleetTrafficGenerator(**defaults)


def _hot_key_share(batch, tenant):
    """Fraction of *tenant*'s requests that hit its hottest key."""
    keys = batch.keys[batch.tenants == tenant]
    return np.bincount(keys).max() / len(keys)


class TestValidation:
    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            _gen(n_tenants=0)
        with pytest.raises(ValueError):
            _gen(offered_mrps=0.0)
        with pytest.raises(ValueError):
            _gen(get_fraction=1.5)
        with pytest.raises(ValueError):
            _gen().generate(0)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = _gen().generate(4000)
        b = _gen().generate(4000)
        assert np.array_equal(a.tenants, b.tenants)
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.is_get, b.is_get)
        assert np.array_equal(a.arrivals_cycles, b.arrivals_cycles)

    def test_different_seed_different_stream(self):
        a = _gen(seed=0).generate(4000)
        b = _gen(seed=1).generate(4000)
        assert not np.array_equal(a.keys, b.keys)

    def test_longer_draw_extends_prefix(self):
        """A longer draw extends the stream, never reshuffles it."""
        short = _gen().generate(1000)
        long = _gen().generate(3000)
        assert np.array_equal(short.tenants, long.tenants[:1000])
        assert np.array_equal(short.keys, long.keys[:1000])
        assert np.array_equal(short.is_get, long.is_get[:1000])
        assert np.array_equal(
            short.arrivals_cycles, long.arrivals_cycles[:1000]
        )

    def test_rate_change_keeps_key_sequences(self):
        """Arrival pacing and op mix draw from their own streams, so
        changing them never shifts per-tenant key sequences."""
        a = _gen(offered_mrps=1.0, get_fraction=0.95).generate(2000)
        b = _gen(offered_mrps=8.0, get_fraction=0.50).generate(2000)
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.tenants, b.tenants)
        assert not np.array_equal(a.arrivals_cycles, b.arrivals_cycles)


class TestShape:
    def test_arrivals_non_decreasing_at_offered_rate(self):
        gen = _gen(offered_mrps=2.0)
        batch = gen.generate(20_000)
        gaps = np.diff(batch.arrivals_cycles)
        assert (gaps >= 0).all()
        assert np.mean(gaps) == pytest.approx(gen.mean_gap_cycles, rel=0.05)

    def test_get_fraction_respected(self):
        batch = _gen(get_fraction=0.95).generate(20_000)
        assert batch.is_get.mean() == pytest.approx(0.95, abs=0.01)

    def test_tenants_cover_range(self):
        batch = _gen(n_tenants=4).generate(8000)
        assert set(np.unique(batch.tenants).tolist()) == {0, 1, 2, 3}

    def test_zipf_skew(self):
        """At theta=0.99 the hottest key draws far more than uniform."""
        gen = _gen(n_tenants=2, n_keys=1 << 12)
        batch = gen.generate(20_000)
        for tenant in (0, 1):
            share = _hot_key_share(batch, tenant)
            assert share > 0.05  # uniform would give ~1/4096 ≈ 0.00024

    def test_tenant_hot_sets_uncorrelated(self):
        """Different tenants' key streams come from different RNG
        streams (same Zipf shape, different draw order)."""
        batch = _gen(n_tenants=2, n_keys=1 << 12).generate(20_000)
        keys0 = batch.keys[batch.tenants == 0]
        keys1 = batch.keys[batch.tenants == 1]
        n = min(keys0.size, keys1.size)
        assert not np.array_equal(keys0[:n], keys1[:n])

    def test_slice_is_view(self):
        batch = _gen().generate(100)
        sub = batch.slice(10, 20)
        assert len(sub) == 10
        assert np.shares_memory(sub.keys, batch.keys)
