"""The benchmark's own tests: percentile selection, failed_frac and the
answer checks. No Spark needed:

    python3 -m pytest perfbench/tests -q
"""
import pytest

from perfbench import stats
from perfbench.checks import Outcome, check
from perfbench.workloads import LATENCY_GROUPS, WORKLOADS, Cell, Query, latency_group

CELL = Cell("facebook", "M(3,2)")
OTHER = Cell("bitcoin", "M(4,3)")


def _o(kind, answer, cell=CELL, error=None):
    return Outcome(Query(kind, cell), 1.0, answer, error)


def _agreeing(cell=CELL, n=7, top=(5.0, 4.0)):
    return [
        _o("count", n, cell),
        _o("find", n, cell),
        _o("topk", list(top), cell),
        _o("maxflow", top[0] if top else 0.0, cell),
        _o("join", n, cell),
        _o("signif", (n, (3,)), cell),
    ]


# --- percentile selection ----------------------------------------------------
@pytest.mark.parametrize(
    "n, rank, pct",
    [(20, 10, 50.0), (21, 11, 100 * 11 / 21), (40, 30, 75.0), (100, 90, 90.0), (1000, 990, 99.0)],
)
def test_tail_leaves_exactly_ten_samples_beyond(n, rank, pct):
    values = [float(v) for v in reversed(range(1, n + 1))]  # order must not matter
    value, got_pct = stats.tail(values)
    assert value == float(rank)
    assert sum(v > value for v in values) == stats.TAIL_BEYOND
    assert got_pct == pytest.approx(pct)


@pytest.mark.parametrize("n", [0, 1, 10, 11, 19])
def test_tail_is_none_when_it_would_not_be_above_the_median(n):
    assert stats.tail([1.0] * n) is None


# --- failed_frac ---------------------------------------------------------------
def test_failed_frac():
    assert stats.failed_frac(10, 0) == 0.0
    assert stats.failed_frac(8, 2) == 0.25
    assert stats.failed_frac(3, 3) == 1.0
    for attempted, failed in ((0, 0), (5, 6), (5, -1)):
        with pytest.raises(ValueError):
            stats.failed_frac(attempted, failed)


# --- answer checks -------------------------------------------------------------
def test_agreeing_answers_pass():
    assert check(_agreeing() + _agreeing(OTHER, n=0, top=())) == (set(), [])


def test_count_join_find_signif_mismatch_fails_every_counting_query():
    outcomes = _agreeing()
    outcomes[4] = _o("join", 8)
    failed, why = check(outcomes)
    assert failed == {0, 1, 4, 5}
    assert "instance counts disagree" in why[0]


def test_same_query_disagreeing_across_rounds_fails():
    failed, _ = check(_agreeing() + [_o("count", 6)])
    assert 6 in failed


def test_topk_head_must_equal_dp_max_flow():
    outcomes = _agreeing()
    outcomes[3] = _o("maxflow", 5.0 + 1e-12)  # no tolerance: exact equality
    failed, why = check(outcomes)
    assert failed == {2, 3}
    assert "maxflow" in why[0]


def test_topk_must_be_sorted_and_at_most_k():
    outcomes = _agreeing()
    outcomes[2] = _o("topk", [4.0, 5.0])
    assert 2 in check(outcomes)[0]
    outcomes[2] = _o("topk", [5.0] * 11)
    outcomes[3] = _o("maxflow", 5.0)
    assert check(outcomes)[0] == {2}


def test_errors_count_as_failures_and_are_not_compared():
    outcomes = _agreeing()
    outcomes[1] = _o("find", None, error="Py4JJavaError")
    failed, why = check(outcomes)
    assert failed == {1}
    assert "raised" in why[0]


def test_reference_and_pinned_counts():
    outcomes = _agreeing()
    assert check(outcomes, reference={CELL: 7}, pinned={CELL: 7}) == (set(), [])
    failed, why = check(outcomes, reference={CELL: 9})
    assert failed == {0, 1, 4, 5} and "reference" in why[0]
    failed, why = check(outcomes, pinned={OTHER: 1, CELL: 6})
    assert failed == {0, 1, 4, 5} and "pinned" in why[0]


# --- workloads -----------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_measures_every_kind_more_than_once(name):
    groups = [latency_group(q) for q in WORKLOADS[name].queries]
    assert all(groups.count(g) >= 2 for g in LATENCY_GROUPS)
    assert {q.cell.dataset for q in WORKLOADS[name].queries} <= set(WORKLOADS[name].datasets)
