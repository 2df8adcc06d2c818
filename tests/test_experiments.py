"""Smoke/shape tests for the experiment drivers (scaled-down runs)."""

import pytest

from repro.experiments.fig04_hash_recovery import format_fig04, run_fig04
from repro.experiments.fig05_access_time import format_profile, run_fig05, run_fig16
from repro.experiments.fig06_speedup import format_fig06, run_fig06
from repro.experiments.fig12_low_rate import format_fig12, run_fig12
from repro.experiments.headroom import format_headroom, run_headroom_experiment
from repro.experiments.tables import (
    CacheLevel,
    format_table1,
    format_table2,
    format_table4,
    table1_rows,
)


class TestFig04:
    def test_recovery_matches_ground_truth(self):
        result = run_fig04(verify_addresses=64)
        assert result.ground_truth_match
        assert result.match_fraction == 1.0

    def test_format(self):
        rendered = format_fig04(run_fig04(verify_addresses=16))
        assert "o0" in rendered and "o2" in rendered


class TestFig05:
    def test_haswell_bimodal(self):
        profile = run_fig05(runs=2)
        assert profile.fastest_slice == 0
        evens = [profile.read_cycles[s] for s in (0, 2, 4, 6)]
        odds = [profile.read_cycles[s] for s in (1, 3, 5, 7)]
        assert max(evens) < min(odds)
        assert max(profile.write_cycles) - min(profile.write_cycles) < 1

    def test_fig16_skylake(self):
        profile = run_fig16(runs=1)
        assert profile.n_slices == 18
        assert profile.fastest_slice == 0

    def test_format(self):
        assert "slice" in format_profile(run_fig05(runs=1), "t")


class TestFig06:
    def test_shape(self):
        result = run_fig06(n_ops=1500)
        reads = result.read_speedup_pct
        # Core 0's own slice gives the best speedup; the far odd slice
        # the worst; even slices beat odd ones (bimodal ring).
        assert reads[0] == max(reads)
        assert reads[0] > 5.0
        assert min(reads) < -5.0
        assert min(reads[s] for s in (0, 2, 4, 6)) > max(reads[s] for s in (1, 3, 5, 7))

    def test_write_follows_read_pattern(self):
        result = run_fig06(n_ops=1500)
        assert result.write_speedup_pct[0] > 0
        assert result.write_speedup_pct[5] < 0

    def test_format(self):
        assert "slice" in format_fig06(run_fig06(n_ops=500))


class TestFig12:
    def test_cachedirector_wins_at_low_rate(self):
        result = run_fig12(packets_per_run=600, runs=1)
        imp = result.cachedirector.improvement_over(result.dpdk)
        assert imp["p99_abs"] >= 0.0

    def test_format(self):
        assert "1000 pps" in format_fig12(run_fig12(packets_per_run=300, runs=1))


class TestHeadroom:
    def test_distribution_bounds(self):
        result = run_headroom_experiment(n_packets=800)
        assert result.count == 800
        assert 128 <= result.median <= result.p95 <= result.max <= 576

    def test_format(self):
        assert "median" in format_headroom(run_headroom_experiment(n_packets=200))


class TestTables:
    def test_table1_matches_paper(self):
        rows = table1_rows()
        llc, l2, l1 = rows
        assert llc == CacheLevel("LLC-Slice", "2.5MB", 20, 2048, "16-6")
        assert l2 == CacheLevel("L2", "256kB", 8, 512, "14-6")
        assert l1 == CacheLevel("L1", "32kB", 8, 64, "11-6")

    def test_formats(self):
        assert "Cache Level" in format_table1()
        assert "64B-L" in format_table2()
        assert "C0" in format_table4()

    def test_table4_text_matches_paper(self):
        rendered = format_table4()
        assert "C0   | S0" in rendered
        assert "S2, S6" in rendered
