"""Multi-tenant slice partitioning (§7's hypervisor extension).

The paper closes §7 with: "slice isolation can also be employed in
hypervisors (e.g., KVM) to allocate different LLC slices to different
virtual machines.  These remain as our future work."  This experiment
implements it on the Skylake model: four tenants, each pinned to a
core with its own working set, under three LLC policies:

* **shared** — no isolation; every tenant's lines land wherever the
  hash sends them and evict each other freely.
* **cat** — the LLC ways are split evenly between tenants (CLOS per
  tenant).
* **slice** — each tenant's memory is allocated from its core's
  preferred slice(s) only: full spatial isolation plus minimum NUCA
  distance.

Reported per policy: mean tenant cost, worst tenant cost, and the
unfairness ratio (worst/best) — the metric noisy-neighbour work cares
about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.cachesim.cat import CatController
from repro.cachesim.machines import SKYLAKE_GOLD_6134, MachineSpec, build_hierarchy
from repro.core.slice_aware import SliceAwareContext
from repro.mem.address import CACHE_LINE
from repro.mem.slice_array import SliceLocalArray

POLICIES = ("shared", "cat", "slice")


@dataclass
class TenantResult:
    """Per-tenant average access cost (cycles)."""

    tenant_cycles: List[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.tenant_cycles))

    @property
    def worst(self) -> float:
        return float(max(self.tenant_cycles))

    @property
    def unfairness(self) -> float:
        """worst / best — 1.0 is perfectly fair."""
        return float(max(self.tenant_cycles) / min(self.tenant_cycles))


def run_multitenant_experiment(
    spec: MachineSpec = SKYLAKE_GOLD_6134,
    n_tenants: int = 4,
    working_set_bytes: int = None,
    n_ops: int = 4000,
    seed: int = 0,
) -> Dict[str, TenantResult]:
    """Run the three policies; returns ``{policy: TenantResult}``.

    Tenant 0 runs a cache-friendly working set; the others are
    progressively noisier (larger working sets), so under the shared
    policy the polite tenant suffers its neighbours' evictions.
    """
    if working_set_bytes is None:
        # Must exceed the (large, victim-backed) private L2 for LLC
        # policy to matter at all: L2 plus 3/4 of a slice, Fig. 17's
        # sizing.
        working_set_bytes = spec.l2_bytes + 3 * spec.llc_slice_bytes // 4
    tenant_cores = [i * (spec.n_cores // n_tenants) for i in range(n_tenants)]
    # Tenant working sets: tenant 0 polite, later tenants noisier.
    tenant_ws = [working_set_bytes * (1 + 2 * t) for t in range(n_tenants)]
    results: Dict[str, TenantResult] = {}
    for policy in POLICIES:
        cat = CatController(spec.llc_ways, spec.n_cores)
        if policy == "cat":
            ways_each = max(1, spec.llc_ways // n_tenants)
            for t, core in enumerate(tenant_cores):
                low = t * ways_each
                mask = ((1 << ways_each) - 1) << low
                cat.define_clos(t + 1, mask)
                cat.assign_core(core, t + 1)
        hierarchy = build_hierarchy(spec, cat=cat, seed=seed)
        context = SliceAwareContext(spec, hierarchy=hierarchy, seed=seed)
        addresses: List[List[int]] = []
        for t, core in enumerate(tenant_cores):
            n_lines = tenant_ws[t] // CACHE_LINE
            if policy == "slice":
                # Each tenant gets its core's primary + secondary
                # slices (§8's multiple-preferable-slices strategy) so
                # the working set fits its slice budget.
                targets = context.preferred_slices(core, count=3)
                per_slice = (n_lines + len(targets) - 1) // len(targets)
                block = context.hash.n_slices
                tenant_lines: List[int] = []
                for target in targets:
                    page = context.address_space.mmap_auto(
                        (per_slice + 1) * block * CACHE_LINE
                    )
                    array = SliceLocalArray(
                        base_phys=page.phys,
                        n_lines=per_slice,
                        slice_hash=context.hash,
                        target_slice=target,
                        block_lines=block,
                    )
                    tenant_lines.extend(array.line_addresses().tolist())
                addresses.append(tenant_lines[:n_lines])
            else:
                page = context.address_space.mmap_auto(n_lines * CACHE_LINE)
                addresses.append(
                    [page.phys + i * CACHE_LINE for i in range(n_lines)]
                )
        rng = np.random.default_rng(seed)
        # Warm all tenants, interleaved.
        for t, core in enumerate(tenant_cores):
            for address in addresses[t][: 1 << 15]:
                hierarchy.read(core, address, 1)
        # Measure, interleaved round-robin so tenants contend.
        cycles = [0] * n_tenants
        index_draws = [
            rng.integers(0, len(addresses[t]), n_ops) for t in range(n_tenants)
        ]
        for op in range(n_ops):
            for t, core in enumerate(tenant_cores):
                address = addresses[t][int(index_draws[t][op])]
                cycles[t] += hierarchy.read(core, address, 1)
        results[policy] = TenantResult(
            tenant_cycles=[c / n_ops for c in cycles]
        )
    return results


def format_multitenant(results: Dict[str, TenantResult]) -> str:
    """Render the multi-tenant comparison."""
    out = ["Extension — multi-tenant LLC partitioning (§7, Skylake model)"]
    out.append("policy | per-tenant cycles/access        | mean  | worst | unfairness")
    for policy, result in results.items():
        tenants = " ".join(f"{c:6.1f}" for c in result.tenant_cycles)
        out.append(
            f"{policy:<6} | {tenants} | {result.mean:5.1f} | {result.worst:5.1f} "
            f"| {result.unfairness:9.2f}"
        )
    return "\n".join(out)
def multitenant_to_dict(results: Dict[str, TenantResult]) -> dict:
    """JSON-ready form of the per-policy results (lab/CLI ``--json``)."""
    return {
        policy: {
            "tenant_cycles": [float(c) for c in r.tenant_cycles],
            "mean": float(r.mean),
            "worst": float(r.worst),
            "unfairness": float(r.unfairness),
        }
        for policy, r in results.items()
    }
