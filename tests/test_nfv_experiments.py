"""Scaled-down runs of the NFV experiment drivers (shape smoke tests)."""

import numpy as np
import pytest

from repro.experiments.nfv_common import (
    NfvExperimentResult,
    compare_cache_director,
    format_comparison,
    make_steering,
    run_nfv_experiment,
)
from repro.net.chain import router_napt_lb_chain, simple_forwarding_chain


class TestMakeSteering:
    def test_known_kinds(self):
        from repro.dpdk.steering import FlowDirectorSteering, RssSteering

        assert isinstance(make_steering("rss", 8), RssSteering)
        assert isinstance(make_steering("flow-director", 8), FlowDirectorSteering)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_steering("magic", 8)


class TestRunNfvExperiment:
    @pytest.fixture(scope="class")
    def light_load(self):
        return run_nfv_experiment(
            simple_forwarding_chain,
            cache_director=False,
            steering_kind="rss",
            offered_gbps=20.0,
            n_bulk_packets=25_000,
            micro_packets=600,
            runs=1,
        )

    def test_light_load_no_drops(self, light_load):
        assert light_load.drop_fraction < 0.02
        assert light_load.achieved_gbps == pytest.approx(
            light_load.offered_gbps, rel=0.15
        )

    def test_latency_fields_consistent(self, light_load):
        s = light_load.summary
        assert s[75] <= s[90] <= s[95] <= s[99]
        assert light_load.latencies_us.size > 0
        assert light_load.mean_service_ns > 0
        assert light_load.run_summaries is not None

    def test_overload_caps_throughput(self):
        # The stream must be long enough that the 8x1024 ring buffering
        # is small relative to it, or "achieved" is inflated by packets
        # parked in buffers at stream end.
        result = run_nfv_experiment(
            simple_forwarding_chain,
            cache_director=False,
            steering_kind="rss",
            offered_gbps=150.0,
            n_bulk_packets=120_000,
            micro_packets=500,
            runs=1,
        )
        assert result.achieved_gbps < result.offered_gbps * 0.85
        assert result.drop_fraction > 0.2

    def test_compare_produces_both_configs(self):
        results = compare_cache_director(
            lambda: router_napt_lb_chain(hw_offload=True),
            steering_kind="flow-director",
            offered_gbps=60.0,
            n_bulk_packets=20_000,
            micro_packets=500,
            runs=1,
        )
        assert isinstance(results.dpdk, NfvExperimentResult)
        assert isinstance(results.cachedirector, NfvExperimentResult)
        assert results.improvement == results.cachedirector.summary.improvement_over(
            results.dpdk.summary
        )
        assert (
            results.cachedirector.mean_service_ns
            < results.dpdk.mean_service_ns
        )
        rendered = format_comparison(results, "smoke")
        assert "throughput" in rendered


class TestFig15Driver:
    def test_knee_curve_shape_small_scale(self):
        from repro.experiments.fig15_knee import run_fig15

        result = run_fig15(
            loads_gbps=[10.0, 25.0, 40.0, 55.0, 70.0, 85.0, 100.0],
            n_bulk_packets=40_000,
            micro_packets=400,
            runs=1,
        )
        base = result.dpdk
        assert base.tail_latency_us[-1] > base.tail_latency_us[0]
        assert base.fit.r2_quadratic > 0.5
        assert len(result.cachedirector.tail_latency_us) == 7


class TestSkylakePortDriver:
    def test_both_machines_benefit(self):
        from repro.experiments.skylake_port import run_skylake_port

        results = run_skylake_port(micro_packets=700)
        assert results["haswell"].saving_cycles > 0
        assert results["skylake"].saving_cycles > 0
        assert 0 < results["haswell"].saving_pct < 5


class TestLoadSensitivityDriver:
    def test_points_and_amplification(self):
        from repro.experiments.load_sensitivity import run_load_sensitivity

        points = run_load_sensitivity(
            loads_gbps=[25.0, 70.0],
            n_bulk_packets=30_000,
            micro_packets=400,
        ).points
        assert len(points) == 2
        assert points[1].improvement_us >= points[0].improvement_us - 0.5
