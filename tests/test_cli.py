"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.lab.spec import to_payload


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.machine == "haswell"
        assert args.core == 0

    def test_profile_machine_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--machine", "icelake"])

    def test_fig_choices(self):
        args = build_parser().parse_args(["fig", "6"])
        assert args.number == 6
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig", "9"])

    def test_table_choices(self):
        assert build_parser().parse_args(["table", "4"]).number == 4
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "5"])

    def test_ablation_choices(self):
        assert build_parser().parse_args(["ablation", "mtu"]).which == "mtu"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablation", "bogus"])


class TestExecution:
    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        out = capsys.readouterr().out
        assert "LLC-Slice" in out

    def test_table2(self, capsys):
        assert main(["table", "2"]) == 0
        assert "64B-L" in capsys.readouterr().out

    def test_table3_computes(self, capsys):
        assert main(["table", "3", "--bulk", "4000", "--micro", "200"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "Simple Forwarding" in out

    def test_table4(self, capsys):
        assert main(["table", "4"]) == 0
        assert "C0" in capsys.readouterr().out

    def test_profile_smoke(self, capsys):
        assert main(["profile", "--runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "slice" in out
        assert "NUCA" in out

    def test_recover_hash_smoke(self, capsys):
        assert main(["recover-hash", "--verify", "16"]) == 0
        assert "o2" in capsys.readouterr().out

    def test_fig12_smoke(self, capsys):
        assert main(["fig", "12", "--ops", "200", "--runs", "1"]) == 0
        assert "1000 pps" in capsys.readouterr().out

    def test_headroom_smoke(self, capsys):
        assert main(["headroom", "--packets", "300"]) == 0
        assert "median" in capsys.readouterr().out


class TestJsonAndSeed:
    def test_fig6_json(self, capsys):
        assert main(["fig", "6", "--ops", "300", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "read_speedup_pct" in payload
        assert len(payload["read_speedup_pct"]) == 8

    def test_table4_json(self, capsys):
        assert main(["table", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["preferable"]["0"]["primary"] == 0

    def test_headroom_json(self, capsys):
        assert main(["headroom", "--packets", "300", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 300

    def test_ablation_json(self, capsys):
        assert main(["ablation", "ddio", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "cycles_per_packet" in payload

    def test_seed_flag_changes_headroom(self, capsys):
        assert main(["headroom", "--packets", "300", "--seed", "0", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["headroom", "--packets", "300", "--seed", "1", "--json"]) == 0
        second = capsys.readouterr().out
        assert first != second

    def test_seed_zero_is_default(self, capsys):
        assert main(["fig", "12", "--ops", "200", "--runs", "1", "--json"]) == 0
        first = capsys.readouterr().out
        assert (
            main(["fig", "12", "--ops", "200", "--runs", "1", "--seed", "0", "--json"])
            == 0
        )
        assert first == capsys.readouterr().out


class TestLabCli:
    def test_lab_list(self, capsys):
        assert main(["lab", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig13" in out and "ablation-ddio" in out

    def test_lab_list_json(self, capsys):
        assert main(["lab", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(e["name"] == "fig15" and e["parallel_split"] for e in payload)

    def test_lab_run_requires_names(self, capsys):
        assert main(["lab", "run"]) == 2

    def test_lab_run_compare_report_cycle(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        assert (
            main(["lab", "run", "fig05", "table4", "--out", out_dir, "--quiet"]) == 0
        )
        assert "wrote" in capsys.readouterr().out
        assert main(["lab", "report", out_dir]) == 0
        assert "fig05" in capsys.readouterr().out
        from pathlib import Path

        golden = str(Path(__file__).parent / "golden")
        assert main(["lab", "compare", out_dir, golden]) == 0
        compare_out = capsys.readouterr().out
        assert "RESULT: PASS" in compare_out

    def test_lab_compare_self(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        assert main(["lab", "run", "table1", "--out", out_dir, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["lab", "compare", out_dir, out_dir]) == 0
        assert "RESULT: PASS" in capsys.readouterr().out


def _write_artifact(path, name, params, result):
    path.write_text(json.dumps({"name": name, "params": params, "seed": 0, "result": result}))
    return str(path)


def _chaos_tail_artifact():
    from repro.experiments.chaos import run_chaos_tail

    params = {"chain": "forwarding", "classes": ["none", "mixed"],
              "n_bulk_packets": 500, "micro_packets": 50, "runs": 1}
    result = to_payload(run_chaos_tail(seed=0, **params))
    return "chaos-tail", params, result


def _fleet_failover_artifact():
    from repro.experiments.fleet import run_fleet_failover

    params = {"intensities": [0.0, 4.0], "n_servers": 2, "n_tenants": 2,
              "requests": 400, "warmup": 100, "n_keys": 256, "epoch_requests": 100,
              "engine": "fast"}
    result = to_payload(run_fleet_failover(seed=0, **params))
    return "fleet-failover", params, result


#: (replay command, artifact maker, a top-level result key to tamper,
#: the other command, which must refuse the artifact)
REPLAYS = [
    ("chaos", _chaos_tail_artifact, "intensity", "fleet"),
    ("fleet", _fleet_failover_artifact, "n_tenants", "chaos"),
]


class TestReplayCli:
    @pytest.mark.parametrize("command, make, tamper, other", REPLAYS)
    def test_replay_exit_codes(self, command, make, tamper, other, tmp_path, capsys):
        name, params, result = make()
        good = _write_artifact(tmp_path / "good.json", name, params, result)
        assert main([command, "replay", good]) == 0
        assert "bit-identical" in capsys.readouterr().out

        bad = _write_artifact(tmp_path / "bad.json", name, params,
                              {**result, tamper: result[tamper] + 1})
        assert main([command, "replay", bad]) == 1
        err = capsys.readouterr().err
        assert "MISMATCH" in err and f"differs at top-level key {tamper!r}" in err
        assert err.count("differs at") == 1

        assert main([other, "replay", good]) == 2
        assert f"is a {name!r} artifact" in capsys.readouterr().err
