"""Chaos experiments: golden transparency, replay, monotone degradation."""

import json

import pytest

from repro.experiments.chaos import (
    assemble_chaos_tail,
    assemble_degradation_knee,
    chaos_tail_to_dict,
    degradation_knee_to_dict,
    run_chaos_tail,
    run_chaos_tail_arm,
    run_degradation_knee,
)
from repro.experiments.fig13_forwarding import run_fig13_arm
from repro.experiments.nfv_common import nfv_result_to_dict
from repro.lab import run_matrix

#: Smoke-sized parameters shared by every test here.
TINY = {
    "offered_gbps": 100.0,
    "n_bulk_packets": 3000,
    "micro_packets": 200,
    "runs": 1,
    "seed": 0,
}


def _canon(payload):
    return json.dumps(payload, sort_keys=True)


class TestGoldenTransparency:
    def test_none_class_equals_fig13_exactly(self):
        """The chaos harness with a zero plan reproduces fig13 bit-exactly."""
        for cache_director in (False, True):
            chaos = run_chaos_tail_arm(
                "none", cache_director, chain="forwarding", **TINY
            )
            direct = run_fig13_arm(cache_director, **TINY)
            assert _canon(nfv_result_to_dict(chaos)) == _canon(
                nfv_result_to_dict(direct)
            )
            assert chaos.fault_counters is None  # no fault fields appear


class TestReplay:
    def test_same_args_bit_identical(self):
        a = run_chaos_tail(chain="forwarding", classes=["nic-drop"], **TINY)
        b = run_chaos_tail(chain="forwarding", classes=["nic-drop"], **TINY)
        assert _canon(chaos_tail_to_dict(a)) == _canon(chaos_tail_to_dict(b))

    def test_persisted_plans_override_generation(self):
        """Replaying from an artifact's plans beats fresh plan generation."""
        first = chaos_tail_to_dict(
            run_chaos_tail(chain="forwarding", classes=["nic-drop"], **TINY)
        )
        # intensity=5 would generate a much harsher plan — the persisted
        # plans must win, reproducing the original results verbatim.
        replay = chaos_tail_to_dict(
            run_chaos_tail(
                chain="forwarding",
                classes=["nic-drop"],
                intensity=5.0,
                plans=first["plans"],
                **TINY,
            )
        )
        assert _canon(replay["results"]) == _canon(first["results"])
        assert replay["plans"] == first["plans"]

    def test_faulted_run_reports_counters_and_goodput(self):
        result = run_chaos_tail(chain="forwarding", classes=["nic-drop"], **TINY)
        arm = result.results["nic-drop"]["dpdk"]
        assert arm.fault_counters is not None
        assert arm.fault_counters.get("nic.injected_drops", 0) > 0
        assert 0.0 < arm.goodput_gbps <= arm.achieved_gbps


class TestDegradationKnee:
    KNEE_TINY = {
        "chain": "stateful",
        "offered_gbps": 40.0,
        "n_bulk_packets": 3000,
        "micro_packets": 150,
        "runs": 1,
        "seed": 0,
    }

    def test_goodput_monotone_in_intensity(self):
        knee = run_degradation_knee(
            intensities=[0.0, 2.0, 8.0], **self.KNEE_TINY
        )
        for arm in (knee.dpdk, knee.cachedirector):
            goodputs = [p.goodput_gbps for p in arm]
            assert goodputs == sorted(goodputs, reverse=True)
            assert goodputs[-1] < goodputs[0]

    def test_zero_intensity_point_is_fault_free(self):
        knee = run_degradation_knee(intensities=[0.0], **self.KNEE_TINY)
        for point in (knee.dpdk[0], knee.cachedirector[0]):
            assert point.fault_counters is None
            assert point.goodput_gbps == point.achieved_gbps
            assert "fault_counters" not in point.to_dict()

    def test_to_dict_shape(self):
        knee = run_degradation_knee(intensities=[0.0, 2.0], **self.KNEE_TINY)
        payload = degradation_knee_to_dict(knee)
        assert payload["intensities"] == [0.0, 2.0]
        assert set(payload["plans"]) == {"0", "2"}
        assert len(payload["dpdk"]) == len(payload["cachedirector"]) == 2


class TestAssembly:
    def test_chaos_tail_wrong_arm_count_rejected(self):
        with pytest.raises(ValueError, match="expected 2 arm results"):
            assemble_chaos_tail({"classes": ["none"]}, [])

    def test_knee_wrong_point_count_rejected(self):
        with pytest.raises(ValueError, match="expected 2 points"):
            assemble_degradation_knee({"intensities": [0.0]}, [None] * 3)

    def test_unknown_chain_rejected(self):
        with pytest.raises(ValueError, match="unknown chain"):
            run_chaos_tail_arm("none", False, chain="token-ring")

    def test_unknown_fault_class_rejected(self):
        with pytest.raises(ValueError, match="unknown fault class"):
            run_chaos_tail_arm("gamma-ray", False, chain="forwarding")


class TestLabIntegration:
    TINY_LAB = {
        "chaos-tail": {
            "classes": ["none", "nic-drop"],
            "n_bulk_packets": 3000,
            "micro_packets": 200,
            "runs": 1,
        },
        "degradation-knee": {
            "intensities": [0.0, 2.0],
            "n_bulk_packets": 3000,
            "micro_packets": 150,
        },
    }

    @pytest.mark.slow
    def test_parallel_split_bit_identical(self):
        """--jobs 2 fan-out + reassembly equals the monolithic runners."""
        names = list(self.TINY_LAB)
        serial = run_matrix(names, jobs=1, seed=0, params_override=self.TINY_LAB)
        parallel = run_matrix(
            names, jobs=2, seed=0, params_override=self.TINY_LAB
        )
        assert serial.ok and parallel.ok
        for name in names:
            assert _canon(serial.experiments[name].payload) == _canon(
                parallel.experiments[name].payload
            ), name

    def test_artifact_carries_plans_for_replay(self):
        report = run_matrix(
            ["chaos-tail"], jobs=1, seed=0, params_override=self.TINY_LAB
        )
        payload = report.experiments["chaos-tail"].payload
        assert set(payload["plans"]) == {"none", "nic-drop"}
        for plan in payload["plans"].values():
            assert set(plan) == {"seed", "rates"}
