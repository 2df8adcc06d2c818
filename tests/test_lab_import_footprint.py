"""A registry lookup imports one experiment, not the whole package.

Every ``python -m repro`` invocation, lab task and benchmark rep looks
up one spec.  These checks run each lookup in a fresh interpreter and
read ``sys.modules`` afterwards:

* ``default_registry().get(name)`` loads that experiment's module and
  what the module imports itself, plus the registry — no other
  experiment module and none of the runner, compare or store modules;
* looking up a static table (``table1``) loads no DPDK or NFV module;
* importing :mod:`repro.fleet.cluster`, which needs
  :func:`repro.lab.spec.derive_seed`, loads no runner;
* building one spec first and the rest later gives the same specs as
  building them all at once;
* a declared factory runs once, on the first lookup of any name it
  declares, and must build exactly those names.

The subprocess probes follow
``tests/test_simcheck.py::test_analysers_stay_off_the_product_import_path``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.lab.registry import _build
from repro.lab.spec import ExperimentSpec, Registry

SRC = Path(repro.__file__).resolve().parent.parent

#: The experiment module each looked-up spec lives in.
MODULES = {
    "fig07": "repro.experiments.fig07_ops_sweep",
    "fig08": "repro.experiments.fig08_kvs",
    "fig14": "repro.experiments.fig14_service_chain",
    "fleet-scale": "repro.experiments.fleet",
}
REGISTRY_SIDE = {"repro.lab", "repro.lab.registry", "repro.lab.spec"}
RUNNER_SIDE = ("repro.lab.runner", "repro.lab.compare", "repro.lab.store")


def loaded_after(statement: str) -> set:
    """The ``repro`` modules a fresh interpreter holds after *statement*."""
    probe = (
        f"import json, sys; {statement}; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'repro' or m.startswith('repro.'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize("name", sorted(MODULES))
def test_get_imports_only_the_named_experiment(name):
    loaded = loaded_after(
        "from repro.lab.registry import default_registry; "
        f"default_registry().get({name!r})"
    )
    own = loaded_after(f"import {MODULES[name]}")
    assert MODULES[name] in loaded
    # The module's own imports (fig14 shares nfv_common), the registry,
    # and nothing else.
    assert loaded - own <= REGISTRY_SIDE
    assert not loaded & set(RUNNER_SIDE)


def test_static_table_loads_no_nfv_stack():
    """Table 1 needs the machine model only; ``NfvExperimentResult``
    is imported by ``tables.py`` for annotations alone."""
    loaded = loaded_after(
        "from repro.lab.registry import default_registry; "
        "default_registry().get('table1')"
    )
    assert "repro.experiments.tables" in loaded
    assert not any(m == "repro.dpdk" or m.startswith("repro.dpdk.") for m in loaded)
    assert "repro.net.chain" not in loaded
    assert "repro.experiments.nfv_common" not in loaded


def test_fleet_cluster_does_not_import_the_runner():
    loaded = loaded_after("import repro.fleet.cluster")
    assert "repro.lab.spec" in loaded
    assert not loaded & set(RUNNER_SIDE)
    assert not any(m.startswith("repro.experiments.") for m in loaded)


def _summary(spec):
    return (
        spec.name,
        spec.title,
        dict(spec.default_params),
        dict(spec.reduced_params),
        spec.seeded,
        spec.tags,
        [(c.ref, c.text, c.scales) for c in spec.claims],
        spec.split is not None,
        spec.runner,
        spec.serializer,
    )


@pytest.mark.parametrize("first", ["fig07", "fig16", "table3", "fleet-durability"])
def test_lookup_order_does_not_change_the_specs(first):
    at_once = _build()
    one_first = _build()
    one_first.get(first)
    assert [_summary(s) for s in one_first.specs()] == [
        _summary(s) for s in at_once.specs()
    ]


def _spec(name):
    return ExperimentSpec(name=name, title=name, runner=dict, serializer=dict)


def test_declared_names_build_together_on_first_lookup():
    calls = []

    def factory():
        calls.append(1)
        return (_spec("a"), _spec("b"))

    registry = Registry()
    registry.declare(("a", "b"), factory)
    assert "a" in registry and "b" in registry and not calls
    assert registry.get("b").name == "b"
    assert registry.get("a").name == "a"
    assert calls == [1]
    with pytest.raises(ValueError):
        registry.declare(("a",), factory)
    with pytest.raises(ValueError):
        registry.register(_spec("b"))


def test_factory_must_build_what_it_declared():
    registry = Registry()
    registry.declare(("a", "b"), lambda: (_spec("a"),))
    with pytest.raises(ValueError, match="declared"):
        registry.get("a")
    with pytest.raises(KeyError, match="registered: a, b"):
        registry.get("nope")
