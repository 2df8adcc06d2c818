"""Unit tests for the network functions' control planes and memory behaviour."""

import hashlib
import json

import pytest

from repro.cachesim.machines import HASWELL_E5_2667V3
from repro.core.slice_aware import SliceAwareContext
from repro.dpdk.mbuf import Mbuf
from repro.net.nf import (
    LpmRouter,
    MacSwapForwarder,
    Napt,
    Route,
    RoundRobinLoadBalancer,
)
from repro.net.packet import FiveTuple, Packet


@pytest.fixture(scope="module")
def context():
    return SliceAwareContext(HASWELL_E5_2667V3, seed=0)


_NEXT_MBUF_BASE = [0x100000]


def make_mbuf(context, flow=None, size=64):
    flow = flow or FiveTuple(0x0A000001, 0xC0A80001, 1234, 80, 6)
    # Fresh physical location per mbuf so module-scoped cache state
    # from earlier tests cannot leak into latency assertions.
    base = _NEXT_MBUF_BASE[0]
    _NEXT_MBUF_BASE[0] += 0x4000
    mbuf = Mbuf(pool=None, index=0, base_phys=base)
    mbuf.payload = Packet(size=size, flow=flow)
    mbuf.pkt_len = size
    mbuf.append(size)
    return mbuf


class TestMacSwap:
    def test_process_charges_cycles(self, context):
        nf = MacSwapForwarder()
        nf.setup(context)
        cycles = nf.process(0, make_mbuf(context))
        assert cycles >= nf.base_cost

    def test_repeated_processing_gets_cheaper(self, context):
        """Once the header is in L1, re-processing is cheap."""
        nf = MacSwapForwarder()
        nf.setup(context)
        mbuf = make_mbuf(context)
        first = nf.process(0, mbuf)
        second = nf.process(0, mbuf)
        assert second < first


class TestLpmRouter:
    def test_route_install_and_lookup(self, context):
        router = LpmRouter(n_routes=0)
        router.setup(context)
        router.add_route(Route(prefix=0x0A000000, prefix_len=8, next_hop=1))
        router.add_route(Route(prefix=0x0A010000, prefix_len=16, next_hop=2))
        assert router.lookup(0x0A020304) == 1   # /8 match
        assert router.lookup(0x0A010203) == 2   # longer prefix wins
        assert router.lookup(0x0B000000) is None

    def test_longest_prefix_wins_regardless_of_order(self, context):
        router = LpmRouter(n_routes=0)
        router.setup(context)
        router.add_route(Route(prefix=0x0A010000, prefix_len=16, next_hop=2))
        router.add_route(Route(prefix=0x0A000000, prefix_len=8, next_hop=1))
        assert router.lookup(0x0A010203) == 2

    def test_host_route_uses_tbl8(self, context):
        router = LpmRouter(n_routes=0)
        router.setup(context)
        router.add_route(Route(prefix=0x0A000000, prefix_len=24, next_hop=5))
        router.add_route(Route(prefix=0x0A000042, prefix_len=32, next_hop=9))
        assert router.lookup(0x0A000042) == 9
        assert router.lookup(0x0A000043) == 5

    def test_tbl8_inherits_default(self, context):
        router = LpmRouter(n_routes=0)
        router.setup(context)
        router.add_route(Route(prefix=0x0A000042, prefix_len=32, next_hop=9))
        assert router.lookup(0x0A000001) is None
        assert router.lookup(0x0A000042) == 9

    def test_short_route_updates_tbl8_defaults(self, context):
        router = LpmRouter(n_routes=0)
        router.setup(context)
        router.add_route(Route(prefix=0x0A000042, prefix_len=32, next_hop=9))
        router.add_route(Route(prefix=0x0A000000, prefix_len=24, next_hop=5))
        assert router.lookup(0x0A000001) == 5
        assert router.lookup(0x0A000042) == 9  # host route survives

    def test_misaligned_prefix_rejected(self, context):
        router = LpmRouter(n_routes=0)
        with pytest.raises(ValueError):
            router.add_route(Route(prefix=0x0A000001, prefix_len=24, next_hop=1))
        with pytest.raises(ValueError):
            router.add_route(Route(prefix=0x0A000000, prefix_len=0, next_hop=1))

    def test_default_table_has_3120_routes(self, context):
        router = LpmRouter()
        router.setup(context)
        assert len(router.routes) == 3120

    def test_default_tables_are_pinned(self, context):
        """The seed-7 DIR-24-8 tables, entry for entry (hash of the
        ``add_route`` span loops' output before they were tuned)."""
        router = LpmRouter()
        router.setup(context)
        assert len(router._tbl24) == 47_389
        assert len(router._tbl8) == 151
        content = json.dumps(
            [
                sorted(router._tbl24.items()),
                sorted(router._tbl24_len.items()),
                router._tbl8,
            ]
        )
        assert hashlib.sha256(content.encode()).hexdigest() == (
            "9b86b93ca451e16deb425c1ba7b8da211fdb1808e8845761b39500f636d271b0"
        )

    def test_hw_offload_skips_table_memory(self, context):
        offloaded = LpmRouter(n_routes=64, hw_offload=True)
        offloaded.setup(context)
        software = LpmRouter(n_routes=64, hw_offload=False)
        software.setup(context)
        flow = FiveTuple(1, 0x0A000001, 1, 2, 6)
        # Fresh header line per NF so parse costs match.
        cost_offload = offloaded.process(0, make_mbuf(context, flow))
        cost_software = software.process(0, make_mbuf(context, flow))
        assert cost_offload < cost_software

    def test_process_counts_lookups(self, context):
        router = LpmRouter(n_routes=16)
        router.setup(context)
        router.process(0, make_mbuf(context))
        assert router.lookups == 1


class TestNapt:
    def test_translation_is_stable(self, context):
        napt = Napt()
        napt.setup(context)
        flow = FiveTuple(1, 2, 3, 4, 6)
        ip1, port1 = napt.translate(flow)
        ip2, port2 = napt.translate(flow)
        assert (ip1, port1) == (ip2, port2)

    def test_distinct_flows_get_distinct_ports(self, context):
        napt = Napt()
        napt.setup(context)
        ports = {napt.translate(FiveTuple(i, 2, 3, 4, 6))[1] for i in range(50)}
        assert len(ports) == 50

    def test_reverse_mapping(self, context):
        napt = Napt()
        napt.setup(context)
        flow = FiveTuple(9, 8, 7, 6, 17)
        _, port = napt.translate(flow)
        assert napt.reverse[port] == flow

    def test_new_flow_costs_more_than_known_flow(self, context):
        napt = Napt()
        napt.setup(context)
        flow = FiveTuple(42, 2, 3, 4, 6)
        first = napt.process(0, make_mbuf(context, flow))
        second = napt.process(0, make_mbuf(context, flow))
        assert second <= first

    def test_port_pool_exhaustion(self, context):
        napt = Napt()
        napt.setup(context)
        napt._next_port = 65535
        napt.translate(FiveTuple(1, 1, 1, 1, 6))
        with pytest.raises(RuntimeError):
            napt.translate(FiveTuple(2, 2, 2, 2, 6))


class TestLoadBalancer:
    def test_round_robin_assignment(self, context):
        lb = RoundRobinLoadBalancer(n_backends=3)
        lb.setup(context)
        backends = [lb.backend_for(FiveTuple(i, 2, 3, 4, 6)) for i in range(6)]
        assert backends == [0, 1, 2, 0, 1, 2]

    def test_flow_stickiness(self, context):
        lb = RoundRobinLoadBalancer(n_backends=4)
        lb.setup(context)
        flow = FiveTuple(7, 7, 7, 7, 6)
        first = lb.backend_for(flow)
        lb.backend_for(FiveTuple(8, 8, 8, 8, 6))
        assert lb.backend_for(flow) == first

    def test_invalid_backend_count(self):
        with pytest.raises(ValueError):
            RoundRobinLoadBalancer(n_backends=0)

    def test_process_returns_cycles(self, context):
        lb = RoundRobinLoadBalancer()
        lb.setup(context)
        assert lb.process(0, make_mbuf(context)) >= lb.base_cost
