"""Each workload is deterministic, and tracing does not change it."""

import pytest

from e2ebench import rep, spans, workloads


def _layers(traced, untraced_rep_s):
    return rep.per_layer(rep.layer_table(traced), traced.rep_s, untraced_rep_s)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_repeats_and_tracing_is_transparent(name):
    runner = workloads.make_runner(workloads.WORKLOADS[name], tiny=True)
    first = rep.run_rep(runner, 3, traced=False)
    second = rep.run_rep(runner, 3, traced=False)
    traced = rep.run_rep(runner, 3, traced=True)
    assert first.accesses > 0
    assert (second.digest, second.accesses) == (first.digest, first.accesses)
    assert (traced.digest, traced.accesses) == (first.digest, first.accesses)
    assert 0 < first.setup_s < first.rep_s

    layers = _layers(traced, first.rep_s)
    shares = [v for k, v in layers.items() if k.endswith(("setup_pct", "serve_pct"))]
    assert sum(shares) == pytest.approx(100.0)
    assert layers["cachesim.accesses"] == first.accesses
    assert layers["cachesim.setup_pct"] > 0 and layers["cachesim.serve_pct"] > 0
    assert traced.skipped == []


def test_layers_are_charged_where_the_work_happens():
    nfv = rep.run_rep(
        workloads.make_runner(workloads.WORKLOADS["nfv-chain"], tiny=True), 0, traced=True
    )
    layers = _layers(nfv, nfv.rep_s)
    assert layers["core.setup_pct"] > 0  # the CacheDirector udata precompute
    assert layers["dpdk.rx_packets"] > 0 and layers["net.serve_pct"] > 0
    assert layers["kvs.calls"] == 0 and layers["fleet.calls"] == 0

    fleet = rep.run_rep(
        workloads.make_runner(workloads.WORKLOADS["fleet-zipf"], tiny=True), 0, traced=True
    )
    times = spans.layer_times(fleet.tracer.spans, fleet.tracer.entries)
    setup = {layer: t for (layer, phase), t in times.items() if phase == "setup"}
    assert max(setup, key=setup.get) == "cachesim"  # hierarchy construction
    layers = _layers(fleet, fleet.rep_s)
    assert layers["fleet.requests"] == layers["kvs.requests"] == 400
