"""Registry completeness + per-experiment JSON round-trips."""

import inspect
import json

import pytest

from repro.cli import build_parser
from repro.lab.registry import default_registry
from repro.lab.runner import run_matrix
from repro.lab.spec import ExperimentSpec, Registry, derive_seed

#: Tiny parameters so every experiment runs in test time; experiments
#: absent here run at their registered reduced parameters.
TINY_OVERRIDES = {
    "fig04": {"verify_addresses": 32},
    "fig05": {"runs": 1},
    "fig06": {"n_ops": 300},
    "fig07": {"n_ops": 200, "sizes": [131072]},
    "fig08": {"n_keys": 1 << 16, "warmup_requests": 500, "measured_requests": 200},
    "fig12": {"packets_per_run": 200, "runs": 1},
    "fig13": {"n_bulk_packets": 3000, "micro_packets": 200, "runs": 1},
    "fig14": {"n_bulk_packets": 3000, "micro_packets": 200, "runs": 1},
    "fig15": {"n_bulk_packets": 4000, "micro_packets": 200},
    "fig16": {"runs": 1},
    "fig17": {"n_ops": 400},
    "headroom": {"n_packets": 500},
    "table3": {"n_bulk_packets": 2000, "micro_packets": 150},
    "ablation-ddio": {"micro_packets": 200},
    "ablation-prefetcher": {"n_lines": 1024, "n_ops": 300},
    "ablation-replacement": {"scan_lines": 1 << 15, "rounds": 2},
    "ablation-migration": {"n_keys": 1 << 13, "hot_keys": 512, "ops_per_phase": 4000},
    "ablation-value-size": {"warmup": 1000, "measured": 300},
    "ablation-mtu": {"queue_depth": 128},
    "ablation-rx-strategies": {"n_packets": 800},
    "ablation-multitenant": {"n_ops": 400},
    "skylake-port": {"micro_packets": 200},
    "load-sensitivity": {"n_bulk_packets": 3000, "micro_packets": 150},
    "traffic-classes": {"packets_per_class": 150},
    "fleet-scale": {
        "server_counts": [2],
        "tenant_counts": [2],
        "requests": 900,
        "warmup": 300,
        "epoch_requests": 300,
        "n_keys": 1 << 10,
    },
    "fleet-failover": {
        "intensities": [0.0, 4.0],
        "n_servers": 2,
        "n_tenants": 2,
        "requests": 900,
        "warmup": 300,
        "epoch_requests": 300,
        "n_keys": 1 << 10,
    },
    "fleet-availability": {
        "intensities": [0.0, 6.0],
        "n_servers": 3,
        "n_tenants": 2,
        "requests": 900,
        "warmup": 300,
        "epoch_requests": 150,
        "n_keys": 1 << 10,
    },
    "fleet-durability": {
        "replications": [1, 2],
        "intensities": [0.0, 1.0],
        "n_servers": 3,
        "n_tenants": 2,
        "requests": 900,
        "warmup": 300,
        "epoch_requests": 150,
        "n_keys": 1 << 10,
    },
}


def _cli_choices(command: str, dest: str):
    """The argparse choices of one positional on one subcommand."""
    subparsers = build_parser()._subparsers._group_actions[0]
    subparser = subparsers.choices[command]
    return next(a.choices for a in subparser._actions if a.dest == dest)


class TestCompleteness:
    """Every CLI-reachable experiment must be registered."""

    def test_every_fig_subcommand_registered(self):
        registry = default_registry()
        for number in _cli_choices("fig", "number"):
            # fig 1 is an alias for fig 14 in the CLI.
            name = "fig14" if number == 1 else f"fig{number:02d}"
            assert name in registry, f"CLI fig {number} has no lab spec"

    def test_every_table_registered(self):
        registry = default_registry()
        for number in _cli_choices("table", "number"):
            assert f"table{number}" in registry

    def test_every_ablation_registered(self):
        registry = default_registry()
        for name in _cli_choices("ablation", "which"):
            assert f"ablation-{name}" in registry

    def test_headroom_registered(self):
        assert "headroom" in default_registry()

    def test_spec_shapes(self):
        for spec in default_registry().specs():
            assert callable(spec.runner)
            assert callable(spec.serializer)
            full = spec.params_for("full")
            reduced = spec.params_for("reduced")
            assert isinstance(full, dict) and isinstance(reduced, dict)
            if spec.split is not None:
                tasks = spec.split.make_tasks(reduced)
                assert len(tasks) >= 2, f"{spec.name} split yields <2 tasks"

    def test_unknown_scale_rejected(self):
        spec = default_registry().get("fig05")
        with pytest.raises(ValueError):
            spec.params_for("huge")


class TestRegistryApi:
    def test_duplicate_rejected(self):
        registry = Registry()
        spec = ExperimentSpec(name="x", title="x", runner=lambda: 1)
        registry.register(spec)
        with pytest.raises(ValueError):
            registry.register(spec)

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="fig05"):
            default_registry().get("nope")

    def test_tag_filter(self):
        names = default_registry().names(tag="sweep")
        assert "fig13" in names and "fig05" not in names


class TestDeriveSeed:
    def test_index_zero_is_identity(self):
        assert derive_seed(0, "fig13") == 0
        assert derive_seed(42, "anything", 0) == 42

    def test_nonzero_index_decorrelates(self):
        seeds = {derive_seed(0, "fig13", i) for i in range(8)}
        assert len(seeds) == 8

    def test_deterministic(self):
        assert derive_seed(7, "fig15", 3) == derive_seed(7, "fig15", 3)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(default_registry().names()))
def test_serializer_round_trips(name):
    """Each experiment's payload must survive a JSON round-trip."""
    report = run_matrix(
        [name], jobs=1, seed=0, params_override=TINY_OVERRIDES
    )
    outcome = report.experiments[name]
    assert outcome.status == "ok", outcome.error
    payload = outcome.payload
    assert payload == json.loads(json.dumps(payload))


def test_table3_library_defaults_are_the_reduced_preset():
    """A direct ``run_table3()`` call sizes its traffic like ``repro
    table 3`` and the reduced lab preset, not a count of its own."""
    from repro.experiments.tables import run_table3

    preset = default_registry().get("table3").params_for("reduced")
    signature = inspect.signature(run_table3)
    assert {name: signature.parameters[name].default for name in preset} == preset
