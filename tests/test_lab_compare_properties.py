"""Hypothesis property tests for the lab comparison tolerance logic.

``repro lab compare`` is the gate between a fresh matrix run and the
golden baselines, so its tolerance arithmetic has to be trustworthy on
*arbitrary* payloads, not just the happy-path goldens: zero
tolerances, metrics missing from one side, and NaN values (which compare unequal to themselves and poison naive
``<=`` checks).  Each property pins one algebraic fact the CLI verdict
relies on.

A fixed-seed, no-deadline profile keeps CI deterministic; run with
``HYPOTHESIS_PROFILE=dev`` locally for a wider search.
"""

import math
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lab.compare import _diff_metric, compare_payloads, flatten_metrics

settings.register_profile(
    "ci",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "dev",
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)
metric_names = st.text(
    alphabet="abcdefgh_", min_size=1, max_size=8
).filter(lambda s: not s.startswith("_"))

# Nested payloads: dicts/lists of numbers, strings, bools, None — the
# value space a serialized experiment result actually inhabits.
payloads = st.recursive(
    st.one_of(
        finite,
        st.integers(min_value=-(10**9), max_value=10**9),
        st.booleans(),
        st.none(),
        st.text(max_size=6),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(metric_names, children, max_size=4),
    ),
    max_leaves=12,
)


class TestFlattenMetrics:
    @given(payload=payloads)
    def test_flatten_is_lossless_for_leaf_count(self, payload):
        """Every leaf lands in exactly one dotted path."""
        flat = flatten_metrics(payload)

        def count_leaves(node):
            if isinstance(node, dict):
                return sum(count_leaves(v) for v in node.values()) or 0
            if isinstance(node, (list, tuple)):
                return sum(count_leaves(v) for v in node) or 0
            return 1

        assert len(flat) == count_leaves(payload)

    @given(payload=payloads)
    def test_identical_payloads_always_pass(self, payload):
        """x vs x has no violations at any tolerance — including NaN
        leaves, which must compare equal to themselves here."""
        diffs, missing_run, missing_base = compare_payloads(
            payload, payload, rel_tol=0.0
        )
        assert missing_run == [] and missing_base == []
        assert all(d.ok for d in diffs)


class TestToleranceResolution:
    @given(a=finite, b=finite)
    def test_zero_tolerance_is_exact_equality(self, a, b):
        """rel_tol=0 accepts a pair iff the values are exactly equal."""
        diff = _diff_metric("m", a, b, 0.0)
        assert diff.ok == (a == b)

    @given(a=finite, b=finite, tol=st.floats(min_value=0, max_value=10))
    def test_rel_delta_is_order_invariant(self, a, b, tol):
        """Swapping run and baseline never changes the verdict: the
        relative delta normalizes by max(|a|, |b|), not by one side."""
        fwd = _diff_metric("m", a, b, tol)
        rev = _diff_metric("m", b, a, tol)
        assert fwd.ok == rev.ok
        if fwd.rel_delta is not None:
            assert math.isclose(
                fwd.rel_delta, rev.rel_delta, rel_tol=0, abs_tol=0
            )


class TestNaNHandling:
    @given(value=finite)
    def test_nan_never_matches_a_number(self, value):
        diff = _diff_metric("m", float("nan"), value, 1.0)
        assert not diff.ok
        diff = _diff_metric("m", value, float("nan"), 1.0)
        assert not diff.ok

    def test_nan_matches_nan(self):
        """Two NaN sides agree: a model that legitimately produces NaN
        (e.g. an empty percentile bucket) must not regress against a
        golden that froze the same NaN."""
        diff = _diff_metric("m", float("nan"), float("nan"), 0.0)
        assert diff.ok
        assert diff.tolerance_kind == "exact"


class TestMissingKeys:
    @given(
        shared=st.dictionaries(metric_names, finite, max_size=4),
        run_only=st.dictionaries(metric_names, finite, max_size=3),
        base_only=st.dictionaries(metric_names, finite, max_size=3),
    )
    def test_partition_is_exact(self, shared, run_only, base_only):
        """Every metric lands in exactly one of: diffed, missing-in-run,
        missing-in-baseline — and one-sided metrics never violate."""
        run_only = {k: v for k, v in run_only.items() if k not in shared}
        base_only = {
            k: v
            for k, v in base_only.items()
            if k not in shared and k not in run_only
        }
        run_payload = {**shared, **run_only}
        base_payload = {**shared, **base_only}
        diffs, missing_run, missing_base = compare_payloads(
            run_payload, base_payload, rel_tol=1e-9
        )
        assert {d.metric for d in diffs} == set(shared)
        assert set(missing_run) == set(base_only)
        assert set(missing_base) == set(run_only)

    @given(payload=st.dictionaries(metric_names, finite, min_size=1, max_size=4))
    def test_empty_baseline_yields_no_verdicts(self, payload):
        diffs, missing_run, missing_base = compare_payloads(payload, {})
        assert diffs == []
        assert missing_run == []
        assert set(missing_base) == set(flatten_metrics(payload))
