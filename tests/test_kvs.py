"""Unit tests for the KVS substrate: workload, store, server."""

import numpy as np
import pytest

from repro.cachesim.engine import OP_DMA_READ, OP_DMA_WRITE, OP_READ, OP_WRITE
from repro.cachesim.machines import HASWELL_E5_2667V3
from repro.core.slice_aware import SliceAwareContext
from repro.faults.plan import FaultClock, FaultPlan, FaultRates, KvsRequestFault
from repro.fleet.server import FleetServer
from repro.kvs import server as kvs_server
from repro.kvs.server import KvsServer, REQUEST_BYTES, serve_requests
from repro.kvs.store import KvsStore
from repro.kvs.workload import GetSetMix, UniformKeys, ZipfKeys, zeta, zeta_fast


def _clock(seed=0, **rates):
    return FaultClock(FaultPlan(seed=seed, rates=FaultRates(**rates)))


class TestZipfKeys:
    def test_keys_in_range(self):
        gen = ZipfKeys(n_keys=1 << 16, theta=0.99, seed=0)
        keys = gen.keys(10_000)
        assert keys.min() >= 0
        assert keys.max() < 1 << 16

    def test_rank_zero_is_hottest(self):
        gen = ZipfKeys(n_keys=1 << 16, theta=0.99, seed=0, scatter=False)
        ranks = gen.ranks(50_000)
        counts = np.bincount(ranks, minlength=10)
        assert counts[0] == counts.max()
        assert counts[0] > counts[9] * 2

    def test_skew_concentrates_mass(self):
        gen = ZipfKeys(n_keys=1 << 20, theta=0.99, seed=1, scatter=False)
        ranks = gen.ranks(50_000)
        top_fraction = np.mean(ranks < 1000)
        assert top_fraction > 0.3  # heavy head

    def test_scatter_spreads_hot_keys(self):
        scattered = ZipfKeys(n_keys=1 << 16, theta=0.99, seed=0, scatter=True)
        keys = scattered.keys(10_000)
        hot = np.bincount(keys, minlength=1 << 16).argmax()
        assert hot != 0  # hottest key is not key 0 after scattering

    def test_deterministic(self):
        a = ZipfKeys(1 << 12, seed=4).keys(100)
        b = ZipfKeys(1 << 12, seed=4).keys(100)
        assert np.array_equal(a, b)

    def test_zeta_fast_matches_zeta(self):
        assert zeta_fast(10_000, 0.99) == pytest.approx(zeta(10_000, 0.99))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ZipfKeys(1)
        with pytest.raises(ValueError):
            ZipfKeys(100, theta=1.5)
        with pytest.raises(ValueError):
            zeta(0, 0.99)


class TestUniformKeys:
    def test_roughly_uniform(self):
        keys = UniformKeys(100, seed=0).keys(100_000)
        counts = np.bincount(keys, minlength=100)
        assert counts.min() > 700
        assert counts.max() < 1300


class TestGetSetMix:
    def test_fraction_respected(self):
        ops = GetSetMix(0.95).operations(100_000, np.random.default_rng(1))
        assert abs(ops.mean() - 0.95) < 0.01

    def test_all_get(self):
        assert GetSetMix(1.0).operations(1000, np.random.default_rng(1)).all()

    def test_label(self):
        assert GetSetMix(0.5).label == "50% GET"

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            GetSetMix(1.5)


@pytest.fixture(scope="module")
def small_rig():
    context = SliceAwareContext(HASWELL_E5_2667V3, seed=0)
    return context


class TestKvsStore:
    def test_normal_values_contiguous(self, small_rig):
        store = KvsStore(small_rig, core=0, n_keys=1 << 12, slice_aware=False)
        assert store.value_address(1) == store.value_address(0) + 64

    def test_slice_aware_values_in_target_slice(self, small_rig):
        store = KvsStore(small_rig, core=0, n_keys=1 << 10, slice_aware=True)
        h = small_rig.hash
        for key in range(0, 1 << 10, 37):
            assert h.slice_of(store.value_address(key)) == store.target_slice

    def test_normal_values_spread_over_slices(self, small_rig):
        store = KvsStore(small_rig, core=0, n_keys=1 << 10, slice_aware=False)
        slices = {small_rig.hash.slice_of(store.value_address(k)) for k in range(64)}
        assert len(slices) == 8

    def test_index_addresses_line_aligned_and_shared(self, small_rig):
        store = KvsStore(small_rig, core=0, n_keys=1 << 10, slice_aware=False)
        assert store.index_address(0) % 64 == 0
        # 8-byte entries: 8 keys share one index line.
        assert store.index_address(0) == store.index_address(7)
        assert store.index_address(0) != store.index_address(8)

    def test_key_bounds(self, small_rig):
        store = KvsStore(small_rig, core=0, n_keys=16, slice_aware=False)
        with pytest.raises(KeyError):
            store.value_address(16)
        with pytest.raises(KeyError):
            store.index_address(-1)


class TestKvsServer:
    def test_serving_accumulates_cycles(self, small_rig):
        store = KvsStore(small_rig, core=0, n_keys=1 << 10, slice_aware=False)
        server = KvsServer(small_rig, store, core=0)
        cycles = server.serve_one(5, is_get=True)
        assert cycles > 0
        assert server.requests_served == 1

    def test_hot_key_becomes_cheap(self, small_rig):
        store = KvsStore(small_rig, core=0, n_keys=1 << 10, slice_aware=False)
        server = KvsServer(small_rig, store, core=0)
        first = server.serve_one(77, is_get=True)
        costs = [server.serve_one(77, is_get=True) for _ in range(5)]
        assert min(costs) < first

    def test_run_reports_tps(self, small_rig):
        store = KvsStore(small_rig, core=0, n_keys=1 << 10, slice_aware=False)
        server = KvsServer(small_rig, store, core=0)
        keys = np.arange(100) % 50
        ops = np.ones(100, dtype=bool)
        result = server.run(keys, ops, warmup=10)
        assert result.requests == 90
        assert result.tps_millions > 0
        assert result.cycles_per_request == result.total_cycles / 90

    def test_run_validates_lengths(self, small_rig):
        store = KvsStore(small_rig, core=0, n_keys=16, slice_aware=False)
        server = KvsServer(small_rig, store, core=0)
        with pytest.raises(ValueError):
            server.run([1, 2], [True])
        with pytest.raises(ValueError):
            server.run([1], [True], warmup=1)

    def test_run_rejects_negative_warmup(self, small_rig):
        store = KvsStore(small_rig, core=0, n_keys=16, slice_aware=False)
        server = KvsServer(small_rig, store, core=0)
        with pytest.raises(ValueError, match="warmup"):
            server.run([1, 2, 3], [True] * 3, warmup=-1)
        # The same check guards the per-request fallback a clock selects.
        server.faults = _clock()
        with pytest.raises(ValueError, match="warmup"):
            server.run([1, 2, 3], [True] * 3, warmup=-1)
        assert server.requests_served == 0

    def test_requests_travel_through_ddio(self, small_rig):
        store = KvsStore(small_rig, core=0, n_keys=16, slice_aware=False)
        server = KvsServer(small_rig, store, core=0)
        before = server.ddio.stats.write_lines
        server.serve_one(1, is_get=True)
        assert server.ddio.stats.write_lines == before + REQUEST_BYTES // 64


class TestRequestOps:
    """The one definition of a request's memory behaviour: its op stream."""

    def test_one_line_get(self, small_rig):
        store = KvsStore(small_rig, core=0, n_keys=1 << 10, slice_aware=False)
        server = KvsServer(small_rig, store, core=0, fixed_cost=30)
        rx = server._rx_buffers[0]
        index = store.index_address(5)
        value = store.value_address(5)
        ops = []
        assert server.emit_ops(ops, 5, True) == 30
        assert ops == [
            (OP_DMA_WRITE, rx, rx + 64, 0),
            (OP_READ, rx, rx + 64, 0),
            (OP_READ, index, index, 0),
            (OP_READ, value, value, 0),
            (OP_WRITE, rx, rx, 0),
            (OP_DMA_READ, rx, rx + 64, 0),
        ]
        assert all(op[1] % 64 == 0 for op in ops)
        assert server.requests_served == 1
        assert server._next_buffer == 1

    def test_three_line_set(self, small_rig):
        store = KvsStore(
            small_rig, core=2, n_keys=1 << 8, slice_aware=True, value_size=192
        )
        server = KvsServer(small_rig, store, core=2, rx_buffers=2)
        server.emit_ops([], 1, True)
        rx = server._rx_buffers[1]
        index = store.index_address(9)
        v0, v1, v2 = store.value_addresses(9)
        ops = []
        assert server.emit_ops(ops, 9, False, 4) == server.fixed_cost
        assert ops == [
            (OP_DMA_WRITE, rx, rx + 64, 4),
            (OP_READ, rx, rx + 64, 2),
            (OP_READ, index, index, 2),
            (OP_WRITE, v0, v0, 2),
            (OP_WRITE, v1, v1, 2),
            (OP_WRITE, v2, v2, 2),
            (OP_WRITE, rx, rx, 2),
            (OP_DMA_READ, rx, rx + 64, 4),
        ]
        assert len({v0, v1, v2}) == 3
        assert all(op[1] % 64 == 0 for op in ops)
        # The cursor wraps around the ring.
        assert server._next_buffer == 0
        assert server.requests_served == 2

    @staticmethod
    def _replayed_ops(monkeypatch):
        """Collect the op streams ``serve_requests`` replays."""
        streams = []
        replay_ops = kvs_server.replay_ops

        def spy(hierarchy, ops, ddios, multi_ddio=False):
            streams.append((list(ops), multi_ddio))
            return replay_ops(hierarchy, ops, ddios, multi_ddio)

        monkeypatch.setattr(kvs_server, "replay_ops", spy)
        return streams

    def test_fleet_tenant_dma_ops_carry_its_index(self, monkeypatch):
        fleet = FleetServer(server_id=0, n_tenants=3, n_keys=1 << 8, seed=1)
        streams = self._replayed_ops(monkeypatch)
        tenants = [2, 0, 1, 1, 2]
        fleet.serve_batch(tenants, [3, 4, 5, 6, 7], [True, False, True, True, False])
        [(ops, multi_ddio)] = streams
        assert multi_ddio
        assert len(ops) == 6 * len(tenants)
        for i, tenant in enumerate(tenants):
            request = ops[6 * i:6 * i + 6]
            core = fleet._tenants[tenant].core
            assert [op[3] for op in request] == [tenant] + [core] * 4 + [tenant]
            assert (request[0][0], request[-1][0]) == (OP_DMA_WRITE, OP_DMA_READ)

    def test_serve_requests_swaps_nothing(self, monkeypatch):
        fleet = FleetServer(server_id=1, n_tenants=2, n_keys=1 << 8, seed=2)
        servers = fleet._tenants
        hierarchy = fleet.context.hierarchy
        servers[0].serve_one(1, True)  # installs the fast engine's read/write
        assert hierarchy.engine_name == "fast"
        attributes = dict(hierarchy.__dict__)
        ddios = [server.ddio for server in servers]

        def untouched():
            assert hierarchy.__dict__.keys() == attributes.keys()
            assert all(hierarchy.__dict__[k] is v for k, v in attributes.items())
            assert all(s.ddio is d for s, d in zip(servers, ddios))

        replay_ops = kvs_server.replay_ops
        replays = []

        def checked(*args, **kwargs):
            untouched()  # the chunk's ops are emitted, not yet charged
            replays.append(1)
            return replay_ops(*args, **kwargs)

        monkeypatch.setattr(kvs_server, "replay_ops", checked)
        serve_requests(servers, [1, 2, 3, 4], [True, False, True, False], [0, 1, 1, 0])
        assert replays == [1]
        untouched()


class TestKvsServerFaults:
    def _server(self, rig):
        store = KvsStore(rig, core=0, n_keys=1 << 10, slice_aware=False)
        return KvsServer(rig, store, core=0)

    def test_injected_failure_raises_and_counts(self, small_rig):
        server = self._server(small_rig)
        server.faults = _clock(kvs_fail=1.0)
        with pytest.raises(KvsRequestFault):
            server.serve_one(1, is_get=True)
        assert server.faults.stats.get("kvs.injected_failures") == 1
        assert server.requests_served == 0  # the request was lost

    @staticmethod
    def _steady_cost(server, key=9):
        """Warm cost of serving *key* at a fixed rx-buffer ring phase."""
        period = len(server._rx_buffers)
        for _ in range(4 * period):  # warm every buffer and the key's lines
            server.serve_one(key, is_get=True)
        cost = server.serve_one(key, is_get=True)
        for _ in range(period - 1):  # return to the same ring phase
            server.serve_one(key, is_get=True)
        return cost

    def test_zero_rate_clock_is_transparent(self, small_rig):
        server = self._server(small_rig)
        warm = self._steady_cost(server)
        server.faults = _clock()
        assert server.serve_one(9, is_get=True) == warm
        assert server.faults._streams == {}  # drew nothing

    def test_slow_request_charges_exactly_its_cycles(self, small_rig):
        server = self._server(small_rig)
        warm = self._steady_cost(server)
        server.faults = _clock(kvs_slow=1.0, kvs_slow_cycles=5_000)
        assert server.serve_one(9, is_get=True) == warm + 5_000
        assert server.faults.stats.get("kvs.injected_slow_requests") == 1
