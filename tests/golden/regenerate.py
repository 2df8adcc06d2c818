"""Regenerate the golden regression numbers under ``tests/golden/``.

Usage::

    PYTHONPATH=src python tests/golden/regenerate.py

The simulator is fully deterministic at fixed seeds, so these numbers
only move when the *model* changes.  Regenerate deliberately, review
the diff, and mention the cause in the commit message; the paired
tolerances in each JSON absorb float noise, not model drift.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cachesim.machines import SKYLAKE_GOLD_6134
from repro.core.profiles import derive_preference_table
from repro.experiments.fig05_access_time import run_fig05
from repro.experiments.fig06_speedup import run_fig06
from repro.experiments.fig07_ops_sweep import fig07_to_dict, run_fig07
from repro.experiments.fig08_kvs import fig08_to_dict, run_fig08
from repro.experiments.fleet import (
    fleet_availability_to_dict,
    fleet_durability_to_dict,
    fleet_failover_to_dict,
    fleet_scale_to_dict,
    run_fleet_availability,
    run_fleet_durability,
    run_fleet_failover,
    run_fleet_scale,
)
from repro.experiments.tables import run_table3, table3_to_dict

GOLDEN_DIR = Path(__file__).resolve().parent

FIG05_PARAMS = {"core": 0, "runs": 3, "seed": 0}
FIG06_PARAMS = {"core": 0, "n_ops": 2000, "seed": 0}
# Matches the lab registry's reduced fig07/fig08/table3 parameters (plus the
# base seed 0 a lab run derives), so `repro lab compare <run>
# tests/golden` checks these numbers on every smoke matrix.
FIG07_PARAMS = {
    "n_ops": 200,
    "sizes": [128 * 1024, 512 * 1024, 2 << 20],
    "engine": "fast",
    "seed": 0,
}
FIG08_PARAMS = {
    "n_keys": 1 << 18,
    "warmup_requests": 3_000,
    "measured_requests": 800,
    "seed": 0,
}
TABLE3_PARAMS = {
    "n_bulk_packets": 20_000,
    "micro_packets": 500,
    "runs": 1,
    "seed": 0,
}
# Mirror the lab registry's reduced fleet parameters (base seed 0) so
# the CI fleet-smoke's `repro lab compare <run> tests/golden` checks
# real numbers for both fleet experiments.
FLEET_SCALE_PARAMS = {
    "server_counts": [2, 3],
    "tenant_counts": [2],
    "requests": 2400,
    "warmup": 600,
    "epoch_requests": 300,
    "n_keys": 1 << 10,
    "offered_mrps": 16.0,
    "engine": "fast",
    "seed": 0,
}
FLEET_FAILOVER_PARAMS = {
    "intensities": [0.0, 1.0, 4.0],
    "n_servers": 3,
    "n_tenants": 2,
    "requests": 2400,
    "warmup": 600,
    "epoch_requests": 300,
    "n_keys": 1 << 10,
    "offered_mrps": 16.0,
    "engine": "fast",
    "seed": 0,
}
FLEET_AVAILABILITY_PARAMS = {
    "intensities": [0.0, 2.0, 6.0, 8.0],
    "n_servers": 4,
    "n_tenants": 2,
    "requests": 2400,
    "warmup": 600,
    "epoch_requests": 200,
    "n_keys": 1 << 10,
    "offered_mrps": 16.0,
    "engine": "fast",
    "seed": 0,
}
FLEET_DURABILITY_PARAMS = {
    "replications": [1, 2, 3],
    "intensities": [0.0, 1.0, 2.0],
    "n_servers": 4,
    "n_tenants": 2,
    "requests": 2400,
    "warmup": 600,
    "epoch_requests": 300,
    "n_keys": 1 << 10,
    "offered_mrps": 16.0,
    "engine": "fast",
    "seed": 0,
}


def regenerate() -> None:
    profile = run_fig05(**FIG05_PARAMS)
    fig05 = {
        "params": FIG05_PARAMS,
        "rel_tol": 1e-6,
        "read_cycles": list(profile.read_cycles),
        "write_cycles": list(profile.write_cycles),
        "fastest_slice": profile.fastest_slice(),
        "read_spread": profile.read_spread(),
    }
    (GOLDEN_DIR / "fig05_latency.json").write_text(
        json.dumps(fig05, indent=2) + "\n"
    )

    result = run_fig06(**FIG06_PARAMS)
    fig06 = {
        "params": FIG06_PARAMS,
        "abs_tol_pct": 0.5,
        "read_speedup_pct": result.read_speedup_pct,
        "write_speedup_pct": result.write_speedup_pct,
        "normal_read_cycles": result.normal_read_cycles,
        "normal_write_cycles": result.normal_write_cycles,
    }
    (GOLDEN_DIR / "fig06_speedup.json").write_text(
        json.dumps(fig06, indent=2) + "\n"
    )

    sweep = fig07_to_dict(run_fig07(**FIG07_PARAMS))
    fig07 = {"params": FIG07_PARAMS, "rel_tol": 1e-6}
    fig07.update(sweep)
    (GOLDEN_DIR / "fig07_ops_sweep.json").write_text(
        json.dumps(fig07, indent=2) + "\n"
    )

    kvs = fig08_to_dict(run_fig08(**FIG08_PARAMS))
    fig08 = {"params": FIG08_PARAMS, "rel_tol": 1e-6}
    fig08.update(kvs)
    (GOLDEN_DIR / "fig08_kvs.json").write_text(
        json.dumps(fig08, indent=2) + "\n"
    )

    rows = table3_to_dict(run_table3(**TABLE3_PARAMS))
    table3 = {"params": TABLE3_PARAMS, "rel_tol": 1e-6}
    table3.update(rows)
    (GOLDEN_DIR / "table3_throughput.json").write_text(
        json.dumps(table3, indent=2) + "\n"
    )

    table = derive_preference_table(SKYLAKE_GOLD_6134.interconnect_factory())
    table4 = {
        "machine": SKYLAKE_GOLD_6134.name,
        "preferable": {
            str(core): {"primary": primary, "secondary": list(secondary)}
            for core, (primary, secondary) in sorted(table.items())
        },
    }
    (GOLDEN_DIR / "table4_preferable_slices.json").write_text(
        json.dumps(table4, indent=2) + "\n"
    )

    scale = {"params": FLEET_SCALE_PARAMS, "rel_tol": 1e-6}
    scale.update(fleet_scale_to_dict(run_fleet_scale(**FLEET_SCALE_PARAMS)))
    (GOLDEN_DIR / "fleet_scale.json").write_text(
        json.dumps(scale, indent=2) + "\n"
    )

    failover = {"params": FLEET_FAILOVER_PARAMS, "rel_tol": 1e-6}
    failover.update(
        fleet_failover_to_dict(run_fleet_failover(**FLEET_FAILOVER_PARAMS))
    )
    (GOLDEN_DIR / "fleet_failover.json").write_text(
        json.dumps(failover, indent=2) + "\n"
    )

    availability = {"params": FLEET_AVAILABILITY_PARAMS, "rel_tol": 1e-6}
    availability.update(
        fleet_availability_to_dict(
            run_fleet_availability(**FLEET_AVAILABILITY_PARAMS)
        )
    )
    (GOLDEN_DIR / "fleet_availability.json").write_text(
        json.dumps(availability, indent=2) + "\n"
    )

    durability = {"params": FLEET_DURABILITY_PARAMS, "rel_tol": 1e-6}
    durability.update(
        fleet_durability_to_dict(
            run_fleet_durability(**FLEET_DURABILITY_PARAMS)
        )
    )
    (GOLDEN_DIR / "fleet_durability.json").write_text(
        json.dumps(durability, indent=2) + "\n"
    )
    print(f"wrote 10 golden files to {GOLDEN_DIR}")


if __name__ == "__main__":
    regenerate()
