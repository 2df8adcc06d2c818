"""A DPDK vs +CacheDirector comparison draws its offered traffic once.

``compare_cache_director`` runs both arms over one trace generator, one
microsim sample and, per run, one bulk stream.  Each arm keeps its own
DuT, bootstrap stream and fault clock, so the pair must equal two
independent one-arm runs, with or without faults.
"""

import json

import pytest

from repro.experiments.chaos import DEFAULT_WATERMARKS, FAULT_SEED_OFFSET
from repro.experiments.nfv_common import (
    compare_cache_director,
    flow_queue_map,
    make_steering,
    run_nfv_experiment,
)
from repro.faults.plan import FaultPlan, plan_for_class
from repro.lab.spec import to_payload
from repro.net.chain import router_napt_lb_chain, simple_forwarding_chain
from repro.net.trace import CampusTraceGenerator


def _stateful_chain():
    return router_napt_lb_chain(hw_offload=True)


#: Tiny Fig. 13 and Fig. 14 configurations: (chain, steering).
CONFIGS = {
    "fig13": (simple_forwarding_chain, "rss"),
    "fig14": (_stateful_chain, "flow-director"),
}

TINY = {
    "offered_gbps": 100.0,
    "n_bulk_packets": 3000,
    "micro_packets": 200,
    "runs": 2,
    "seed": 3,
}

#: No plan, an all-zero plan (no clock), and the active ``mixed`` plan.
PLANS = {
    "no-plan": None,
    "zero-rate": FaultPlan(seed=TINY["seed"] + FAULT_SEED_OFFSET).to_dict(),
    "mixed": plan_for_class("mixed", seed=TINY["seed"] + FAULT_SEED_OFFSET).to_dict(),
}


def _canon(result):
    return json.dumps(to_payload(result), sort_keys=True)


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_pair_equals_two_single_arm_runs(config, plan_name):
    chain_factory, steering = CONFIGS[config]
    kwargs = dict(TINY, fault_plan=PLANS[plan_name], watermarks=DEFAULT_WATERMARKS)
    pair = compare_cache_director(chain_factory, steering, **kwargs)
    for name, cache_director in (("dpdk", False), ("cachedirector", True)):
        alone = run_nfv_experiment(chain_factory, cache_director, steering, **kwargs)
        assert _canon(getattr(pair, name)) == _canon(alone), name
    if plan_name == "mixed":
        assert pair.dpdk.fault_counters
    else:
        assert pair.dpdk.fault_counters is None


def test_traffic_is_drawn_once(monkeypatch):
    calls = {"__init__": 0, "generate": 0, "generate_arrays": 0}
    for name in calls:
        original = getattr(CampusTraceGenerator, name)

        def spy(self, *args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(CampusTraceGenerator, name, spy)
    compare_cache_director(simple_forwarding_chain, "rss", **dict(TINY, runs=3))
    assert calls == {"__init__": 1, "generate": 1, "generate_arrays": 3}


@pytest.mark.parametrize("kind", ["rss", "flow-director"])
def test_flow_queue_map_is_per_flow_queue_for(kind):
    """The shared map gives each flow the queue ``queue_for`` pins it
    to, and a bulk stream, packet by packet, the queue the steering
    then keeps giving that packet's flow."""
    generator = CampusTraceGenerator(seed=4)
    queue_of_flow = flow_queue_map(generator, kind, 8)
    steering = make_steering(kind, 8)
    flow_keys = [tuple(f) for f in generator.flows]
    assert queue_of_flow.tolist() == [steering.queue_for(key) for key in flow_keys]
    _, flows, _ = generator.generate_arrays(3000, rate_gbps=50.0)
    assert queue_of_flow[flows].tolist() == [
        steering.queue_for(flow_keys[f]) for f in flows.tolist()
    ]
