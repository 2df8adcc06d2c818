"""Compare verdicts, spreads and the failed-reps gate."""

import pytest

from e2ebench import compare

BENCH = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def test_spread_is_iqr_over_median():
    assert compare.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)
    assert compare.spread([2.0]) == 0.0


@pytest.mark.parametrize("new, better, expected", [
    ([1.00, 1.01, 1.02, 0.99], "lower", "within"),
    ([1.20, 1.21, 1.22, 1.19], "lower", "worse"),
    ([0.80, 0.81, 0.82, 0.79], "lower", "better"),
    ([0.80, 0.81, 0.82, 0.79], "higher", "worse"),
    ([1.20, 1.21, 1.22, 1.19], "higher", "better"),
])
def test_verdicts(new, better, expected):
    base = [1.0, 1.01, 0.99, 1.0]
    assert compare.verdict(base, new, better, 0.1)[0] == expected


def test_wide_overlapping_runs_are_unresolved():
    base = [1.0, 1.0, 1.0, 1.0]
    new = [0.7, 0.9, 1.3, 1.5, 1.4]  # spread above the bound, overlaps base
    assert compare.verdict(base, new, "lower", 0.1)[0] == "unresolved"
    # Wide but fully separated runs still get a verdict.
    assert compare.verdict(base, [1.5, 1.7, 2.1, 2.4], "lower", 0.1)[0] == "worse"


def _sweep(values, failed=0):
    return {"runs": {"w": [
        {"attempted": 10, "failed": failed, "metrics": {
            "run_s": {"value": v, "unit": "s"}, "rate": {"value": 1 / v, "unit": "1/s"}}}
        for v in values
    ]}}


def test_compare_gates_on_worse_and_on_more_failures():
    rows, regressed = compare.compare(_sweep([1.0, 1.0, 1.01]), _sweep([1.0, 0.99, 1.0]), BENCH)
    assert not regressed
    assert [r["verdict"] for r in rows] == ["within", "within", "within"]
    _, regressed = compare.compare(_sweep([1.0, 1.0]), _sweep([1.3, 1.3]), BENCH)
    assert regressed
    rows, regressed = compare.compare(_sweep([1.0]), _sweep([1.0], failed=1), BENCH)
    assert regressed and rows[0]["verdict"] == "worse"
