# Convenience targets for the reproduction.

PY ?= python

.PHONY: install test test-fast diff-test diff-smoke e2e-test bench-trajectory quick examples figures lab lab-compare golden check lint sanitize-lab chaos-smoke fleet-smoke clean

LAB_DIR ?= lab-runs/latest
LAB_JOBS ?= 4

install:
	pip install -e . --no-build-isolation

test:
	$(PY) -m pytest tests/ -q

# Everything except the multi-second lab/chaos integration tests.
test-fast:
	$(PY) -m pytest tests/ -q -m "not slow"

# Fast-vs-reference engine equivalence: the differential replay harness
# plus the hypothesis property suite (see docs/MODEL.md), then the
# record/replay smoke below.
diff-test:
	$(PY) -m pytest tests/ -q -m differential
	$(MAKE) diff-smoke

# Record/replay vs per-item oracle smoke: charges one packet trace and
# three fleet cells (fault-free, re-shard kills, replicated gray
# failures) both ways end to end, on top of the marked tests in
# tests/test_dataplane_diff.py.  The replay reaches the engine through
# the NFs and the PMD, interleaved with DDIO.
diff-smoke:
	$(PY) -c "from repro.cachesim.diff import run_dataplane_differential, run_fleet_differential; \
	from repro.net.chain import simple_forwarding_chain; \
	r = run_dataplane_differential(simple_forwarding_chain, n_packets=400); \
	assert r.equal, r.detail; \
	f = run_fleet_differential(n_servers=2, n_tenants=2, requests=800, warmup=200, n_keys=512); \
	assert f.equal, f.detail; \
	from repro.faults.plan import plan_for_class; \
	k = run_fleet_differential(n_servers=3, n_tenants=2, requests=800, warmup=200, n_keys=512, \
	plan=plan_for_class('server-kill', seed=7, intensity=6.0)); \
	assert k.equal, k.detail; \
	h = run_fleet_differential(n_servers=3, n_tenants=2, requests=800, warmup=200, n_keys=512, \
	plan=plan_for_class('fleet-gray', seed=7, intensity=6.0), \
	healing={'replication': 2, 'detector_enabled': True}); \
	assert h.equal, h.detail; \
	print('replay-diff: per-item == record/replay on', r.n_packets, 'packets +', f.n_packets, '+', k.n_packets, '+', h.n_packets, 'fleet requests')"

# Tests of the end-to-end benchmark's own scripts (e2ebench/, outside
# tier-1; see e2ebench/BENCH.md).
e2e-test:
	$(PY) -m pytest e2ebench/tests -q

# Perf trajectory gate (see docs/BENCH.md): sweep the end-to-end
# benchmark (seeds 0-4 at BENCHMARK.json's run_seconds) into
# .e2e/trajectory.json, then compare it against the oldest committed
# BENCH_NNNN.json point (the anchor) and the newest.  Fails on any
# `worse` verdict or a larger share of reps failing their digest.
# compileall first, so every rep imports warm bytecode whether or not
# the environment lets Python write it: a cold cache adds about 60 % to
# import time, and a point and a sweep must be taken in the same state.
bench-trajectory:
	$(PY) -m compileall -q src e2ebench
	$(PY) e2ebench/sweep.py --seeds 0-4 --out .e2e/trajectory.json
	@test -n "$(wildcard BENCH_[0-9]*.json)" || { echo "bench-trajectory: no BENCH_NNNN.json point to gate against" >&2; exit 1; }
	@status=0; \
	for base in $(sort $(firstword $(sort $(wildcard BENCH_[0-9]*.json))) $(lastword $(sort $(wildcard BENCH_[0-9]*.json)))); do \
		echo "== .e2e/trajectory.json against $$base"; \
		$(PY) e2ebench/compare.py $$base .e2e/trajectory.json || status=1; \
	done; \
	exit $$status

quick:
	$(PY) examples/quickstart.py

examples:
	$(PY) examples/quickstart.py
	$(PY) examples/reverse_engineer_hash.py
	$(PY) examples/cache_isolation.py
	$(PY) examples/hot_data_migration.py
	$(PY) examples/nfv_service_chain.py
	$(PY) examples/kvs_slice_aware.py

figures:
	$(PY) -m repro fig 5
	$(PY) -m repro fig 6 --ops 4000
	$(PY) -m repro fig 16
	$(PY) -m repro table 1
	$(PY) -m repro table 2
	$(PY) -m repro table 4

# Run the whole experiment matrix (reduced scale) into $(LAB_DIR); every
# paper claim declared for that scale is checked, and a violated one
# fails the run.
lab:
	$(PY) -m repro lab run --all --jobs $(LAB_JOBS) --out $(LAB_DIR)

# Diff the latest lab run against the checked-in golden baselines.
lab-compare:
	$(PY) -m repro lab compare $(LAB_DIR) tests/golden

# Regenerate tests/golden/: the reduced-scale, seed-0 artifact of every
# registered experiment, without the run's manifest.  The artifacts hold
# no durations, so an unchanged tree regenerates them byte for byte;
# a model change moves them, and the diff is the review.
GOLDEN_RUN ?= lab-runs/golden
golden:
	rm -rf $(GOLDEN_RUN)
	$(PY) -m repro lab run --all --scale reduced --seed 0 --jobs $(LAB_JOBS) --out $(GOLDEN_RUN) --quiet
	rm -f tests/golden/*.json
	cp $(GOLDEN_RUN)/*.json tests/golden/
	rm tests/golden/manifest.json

# Static analysis of simulation invariants, the SIM and FLOW rules;
# fails on any unsuppressed finding (see docs/CHECKS.md).
check:
	$(PY) -m repro check

# check + ruff + mypy (ruff/mypy are optional extras: pip install -e .[lint]).
lint: check
	$(PY) -m ruff check src
	$(PY) -m mypy

# Full reduced-scale matrix under the runtime CacheSanitizer; the
# compare step proves sanitizing never perturbs results.
sanitize-lab:
	RF_SANITIZE=1 $(PY) -m repro lab run --all --jobs $(LAB_JOBS) --scale reduced --out $(LAB_DIR)
	$(PY) -m repro lab compare $(LAB_DIR) tests/golden

# Chaos experiments under the sanitizer, then bit-identical replay of
# each artifact from its persisted fault plan (see docs/FAULTS.md).
CHAOS_DIR ?= lab-runs/chaos
chaos-smoke:
	RF_SANITIZE=1 $(PY) -m repro lab run chaos-tail degradation-knee --jobs $(LAB_JOBS) --scale reduced --out $(CHAOS_DIR)
	$(PY) -m repro chaos replay $(CHAOS_DIR)/chaos-tail.json
	$(PY) -m repro chaos replay $(CHAOS_DIR)/degradation-knee.json

FLEET_DIR ?= lab-runs/fleet

fleet-smoke:
	RF_SANITIZE=1 $(PY) -m repro lab run fleet-scale fleet-failover fleet-availability fleet-durability --jobs $(LAB_JOBS) --scale reduced --out $(FLEET_DIR)
	$(PY) -m repro fleet replay $(FLEET_DIR)/fleet-failover.json
	$(PY) -m repro fleet replay $(FLEET_DIR)/fleet-availability.json
	$(PY) -m repro fleet replay $(FLEET_DIR)/fleet-durability.json
	$(PY) -m repro lab compare $(FLEET_DIR) tests/golden

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache src/repro.egg-info
