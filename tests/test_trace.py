"""Unit tests for traffic generation."""

import hashlib
import json

import numpy as np
import pytest

from repro.net.trace import (
    CAMPUS_MIX,
    CampusTraceGenerator,
    FixedSizeTraffic,
    HIGH_RATE_PPS,
    LOW_RATE_PPS,
    TABLE2_CLASSES,
    TrafficClass,
)


class TestCampusMix:
    def test_size_fractions_match_paper(self):
        """§5: 26.9 % < 100 B, 11.8 % in 100–500 B, rest > 500 B."""
        gen = CampusTraceGenerator(seed=0)
        sizes = gen.sizes(100_000)
        small = np.mean(sizes < 100)
        medium = np.mean((sizes >= 100) & (sizes <= 500))
        large = np.mean(sizes > 500)
        assert abs(small - 0.269) < 0.01
        assert abs(medium - 0.118) < 0.01
        assert abs(large - 0.613) < 0.01

    def test_sizes_within_ethernet_bounds(self):
        gen = CampusTraceGenerator(seed=1)
        sizes = gen.sizes(10_000)
        assert sizes.min() >= 64
        assert sizes.max() <= 1500

    def test_deterministic_per_seed(self):
        a = CampusTraceGenerator(seed=5).sizes(100)
        b = CampusTraceGenerator(seed=5).sizes(100)
        assert np.array_equal(a, b)

    def test_flow_population(self):
        gen = CampusTraceGenerator(n_flows=128, seed=0)
        assert len(gen.flows) == 128
        indices = gen.flow_indices(10_000)
        assert indices.min() >= 0
        assert indices.max() < 128

    def test_elephants_dominate(self):
        gen = CampusTraceGenerator(
            n_flows=1000, elephant_fraction=0.01, elephant_weight=0.5, seed=0
        )
        indices = gen.flow_indices(50_000)
        elephant_share = np.mean(indices < 10)
        assert abs(elephant_share - 0.5) < 0.03

    def test_generate_packets(self):
        gen = CampusTraceGenerator(seed=0)
        packets = gen.generate(500, rate_pps=1e6)
        assert len(packets) == 500
        arrivals = [p.arrival_ns for p in packets]
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))
        mean_gap = (arrivals[-1] - arrivals[0]) / (len(arrivals) - 1)
        assert abs(mean_gap - 1000) / 1000 < 0.2

    def test_generate_arrays_rate(self):
        gen = CampusTraceGenerator(seed=0)
        sizes, flows, arrivals = gen.generate_arrays(
            50_000, rate_gbps=10.0, burstiness=0.0
        )
        duration_s = (arrivals[-1] - arrivals[0]) / 1e9
        gbps = sizes.sum() * 8 / duration_s / 1e9
        assert abs(gbps - 10.0) / 10.0 < 0.05

    def test_burstiness_preserves_mean_rate(self):
        gen = CampusTraceGenerator(seed=0)
        sizes, _, arrivals = gen.generate_arrays(200_000, rate_gbps=10.0)
        duration_s = (arrivals[-1] - arrivals[0]) / 1e9
        gbps = sizes.sum() * 8 / duration_s / 1e9
        assert abs(gbps - 10.0) / 10.0 < 0.35

    def test_burstiness_raises_variance(self):
        gen = CampusTraceGenerator(seed=0)
        _, _, smooth = gen.generate_arrays(50_000, 10.0, burstiness=0.0)
        _, _, bursty = gen.generate_arrays(50_000, 10.0, burstiness=0.7)
        def block_rate_cv(arrivals):
            gaps = np.diff(arrivals)
            blocks = gaps[: len(gaps) // 100 * 100].reshape(-1, 100).mean(axis=1)
            return blocks.std() / blocks.mean()
        assert block_rate_cv(bursty) > 2 * block_rate_cv(smooth)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CampusTraceGenerator(n_flows=1)
        with pytest.raises(ValueError):
            CampusTraceGenerator(elephant_fraction=0.0)
        gen = CampusTraceGenerator(seed=0)
        with pytest.raises(ValueError):
            gen.generate(10, rate_pps=0)
        with pytest.raises(ValueError):
            gen.generate_arrays(10, 1.0, burstiness=-1)
        with pytest.raises(ValueError):
            gen.sizes(0)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPinnedDraws:
    """The generator's draws, pinned by hash: a faster way to draw them
    must draw the same flows, packets and streams."""

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "0362f6590fbb51137f5a44176dbffff36db6a1438a758bffe661f00ccc154f83"),
            (1, "b666c348f129acfe277f2c52a258802ef450be7a463a64294ffd81b09c1b68b2"),
            (3, "21268e37ac2816e2195e03ccd490a9d0175c6fedf2501c9e5ad19ebf86ea4159"),
        ],
    )
    def test_flows(self, seed, digest):
        flows = CampusTraceGenerator(seed=seed).flows
        assert _sha256(np.array(flows, dtype=np.int64).tobytes()) == digest

    def test_generate(self):
        packets = CampusTraceGenerator(seed=1).generate(
            500, rate_pps=4e6, seed_offset=3
        )
        rows = [(p.size, *p.flow, p.arrival_ns, p.packet_id) for p in packets]
        assert _sha256(json.dumps(rows).encode()) == (
            "de00dc329aac58c8544e6b3b685771b1c05ab9479e1f7242cee91763453f769c"
        )

    def test_generate_arrays(self):
        sizes, flows, arrivals = CampusTraceGenerator(seed=1).generate_arrays(
            5000, rate_gbps=100.0, seed_offset=1
        )
        data = (
            sizes.astype(np.int64).tobytes()
            + flows.astype(np.int64).tobytes()
            + arrivals.tobytes()
        )
        assert _sha256(data) == (
            "8afa323ffc05430b5c0068938abd604051f2db8c5aaa6faba5ec23bab4a76959"
        )


class TestTable2:
    def test_class_count(self):
        assert len(TABLE2_CLASSES) == 8  # 4 sizes x 2 rates

    def test_rates(self):
        assert LOW_RATE_PPS == 1000
        assert HIGH_RATE_PPS == 4e6

    def test_gbps(self):
        cls = TrafficClass(packet_size=1500, rate_pps=4e6, label="x")
        assert cls.rate_gbps == pytest.approx(48.0)


class TestFixedSizeTraffic:
    def test_all_packets_same_size(self):
        traffic = FixedSizeTraffic(TrafficClass(512, LOW_RATE_PPS, "512B-L"))
        packets = traffic.generate(100)
        assert all(p.size == 512 for p in packets)

    def test_rate(self):
        traffic = FixedSizeTraffic(TrafficClass(64, 1000, "64B-L"))
        packets = traffic.generate(2000)
        duration = packets[-1].arrival_ns - packets[0].arrival_ns
        rate = (len(packets) - 1) / (duration / 1e9)
        assert abs(rate - 1000) / 1000 < 0.1
