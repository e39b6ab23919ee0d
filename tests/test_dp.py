"""Algorithm 2 (DP module) tests, including the Table 2 reproduction.

DESIGN.md § 3 documents the paper-internal inconsistency between Figure 7's
prose series and some of Table 2's intermediate cells; tests below assert
the cells that are consistent with Equation 2 and pin our values for the
rest (``jobs/run_experiments.py table2`` prints the side-by-side trace).
"""
import random

import pytest

from repro.core.dp import dp_window_table, max_flow
from repro.core.instances import Series, enumerate_instances
from tests.test_bruteforce_crosscheck import random_series

FIG7 = [
    Series([(10, 5), (13, 2), (15, 3)]),
    Series([(9, 4), (11, 3), (16, 3)]),
    Series([(14, 4), (19, 6)]),
]


class TestTable2:
    def test_window_timestamps(self):
        ts, _ = dp_window_table(FIG7, 10, 20)
        # every interaction timestamp of the match inside [10, 20]
        assert ts == [10, 11, 13, 14, 15, 16, 19]

    def test_kappa1_row_is_prefix_sum_of_e1(self):
        ts, table = dp_window_table(FIG7, 10, 20)
        assert dict(zip(ts, table[0])) == {
            10: 5, 11: 5, 13: 7, 14: 7, 15: 10, 16: 10, 19: 10
        }

    def test_kappa2_row_matches_paper(self):
        # Paper Table 2, kappa=2: 3 at t=11..15, then 5 from t=16 on
        # (min(5, 3+3) = 5) — all consistent with Equation 2.
        ts, table = dp_window_table(FIG7, 10, 20)
        row = dict(zip(ts, table[1]))
        assert row[11] == 3
        assert row[13] == 3
        assert row[14] == 3
        assert row[15] == 3
        assert row[16] == 5
        assert row[19] == 5

    def test_kappa3_row(self):
        # Paper shows 0 at t=13 and 5 at t=19 (consistent); its t=14 cell
        # (4) contradicts Eq. 2 given its own kappa=2 row — ours is 3.
        ts, table = dp_window_table(FIG7, 10, 20)
        row = dict(zip(ts, table[2]))
        assert row[13] == 0
        assert row[14] == 3
        assert row[19] == 5

    def test_final_value_is_paper_best_instance_flow(self):
        _, table = dp_window_table(FIG7, 10, 20)
        assert table[-1][-1] == 5


class TestDPInvariants:
    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_dp_equals_best_enumerated_flow(self, seed, m):
        rng = random.Random(31_000 + 100 * m + seed)
        series = random_series(rng, m)
        delta = rng.choice([3, 8, 15, 60])
        insts = enumerate_instances(series, delta, phi=0)
        expected = max((i.flow for i in insts), default=0.0)
        assert max_flow(series, delta) == pytest.approx(expected)

    @pytest.mark.parametrize("seed", range(10))
    def test_dp_four_edges(self, seed):
        rng = random.Random(9_900 + seed)
        series = random_series(rng, 4, max_len=3)
        delta = rng.choice([10, 30])
        insts = enumerate_instances(series, delta, phi=0)
        expected = max((i.flow for i in insts), default=0.0)
        assert max_flow(series, delta) == pytest.approx(expected)

    def test_no_instance_returns_zero(self):
        # e2 entirely before e1 -> no time-respecting instance
        series = [Series([(10, 5.0)]), Series([(1, 5.0)])]
        assert max_flow(series, delta=20) == 0.0

    def test_empty_series_returns_zero(self):
        assert max_flow([Series([]), Series([(1, 1.0)])], delta=5) == 0.0

    def test_single_edge_motif(self):
        series = [Series([(0, 1.0), (1, 2.0), (5, 4.0)])]
        # windows: [0,1] -> 3, [1,2] -> 2, [5,6] -> 4
        assert max_flow(series, delta=1) == 4.0
        assert max_flow(series, delta=10) == 7.0

    def test_window_prefix_monotone(self):
        """Flow([t1,ti],k) is non-decreasing in i for fixed k (more window
        can only help — the max ranges over a superset of splits)."""
        ts, table = dp_window_table(FIG7, 10, 20)
        for row in table:
            assert all(a <= b for a, b in zip(row, row[1:]))
