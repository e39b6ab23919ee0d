"""Unit tests for Series and Algorithm 1 (repro.core.instances)."""
import math

import pytest

from repro.core import bruteforce as bf
from repro.core.instances import (
    Series,
    enumerate_instances,
    is_maximal,
    window_end,
)


class TestSeries:
    def test_sorts_by_time(self):
        s = Series([(5, 1.0), (1, 2.0), (3, 4.0)])
        assert s.ts == (1, 3, 5)
        assert s.fs == (2.0, 4.0, 1.0)

    def test_range_sum(self):
        s = Series([(1, 2.0), (3, 4.0), (5, 1.0)])
        assert s.range_sum(0, 2) == 7.0
        assert s.range_sum(1, 1) == 4.0
        assert s.range_sum(0, 0) == 2.0

    def test_range_sum_is_a_left_fold(self):
        # builtin sum() gives 1.0 for all ten on Python >= 3.12, and a
        # difference of prefix sums gives 0.7999999999999998 for 2..9
        s = Series([(i, 0.1) for i in range(10)])
        assert s.range_sum(0, 9) == 0.9999999999999999
        assert s.range_sum(2, 9) == 0.7999999999999999
        assert bf.instance_flow([s], (tuple(range(10)),)) == s.range_sum(0, 9)

    def test_first_after_and_last_at_or_before(self):
        s = Series([(1, 1), (3, 1), (5, 1)])
        assert s.first_after(0) == 0
        assert s.first_after(1) == 1
        assert s.first_after(5) == 3
        assert s.last_at_or_before(0) == -1
        assert s.last_at_or_before(3) == 1
        assert s.last_at_or_before(9) == 2

    def test_window_end_is_definition_3_2s_bound(self):
        # 0.30000000000000004 <= 0.1 + 0.2, yet 0.30000000000000004 - 0.1 > 0.2
        hi = window_end(0.1, 0.2)
        assert hi < 0.30000000000000004 <= 0.1 + 0.2
        assert hi - 0.1 <= 0.2
        assert window_end(1.0, 2.0) == 3.0
        for a, delta in [(0.1, 0.2), (0.7, 0.1), (1e9 + 0.3, 600.0), (3.0, 0.0)]:
            hi = window_end(a, delta)
            assert hi - a <= delta < math.nextafter(hi, math.inf) - a

    def test_duplicate_timestamps_rejected(self):
        with pytest.raises(ValueError):
            Series([(1, 1.0), (1, 2.0)])

    def test_len_and_pairs(self):
        s = Series([(2, 1.0), (1, 3.0)])
        assert len(s) == 2
        assert tuple(zip(s.ts, s.fs)) == ((1, 3.0), (2, 1.0))


class TestSingleEdgeMotif:
    """Degenerate one-edge spanning path — base case of FindInstances."""

    def test_all_in_one_window(self):
        series = [Series([(1, 2.0), (2, 3.0), (3, 1.0)])]
        insts = enumerate_instances(series, delta=10, phi=0)
        assert len(insts) == 1
        assert insts[0].ranges == ((0, 2),)
        assert insts[0].flow == 6.0

    def test_delta_splits_instances(self):
        series = [Series([(0, 1.0), (1, 1.0), (10, 1.0)])]
        insts = enumerate_instances(series, delta=2, phi=0)
        assert [i.ranges for i in insts] == [((0, 1),), ((2, 2),)]

    def test_phi_filters(self):
        series = [Series([(0, 1.0), (10, 5.0)])]
        assert len(enumerate_instances(series, delta=2, phi=3)) == 1
        assert len(enumerate_instances(series, delta=2, phi=6)) == 0

    def test_overlapping_windows_yield_maximal_only(self):
        # anchors 0,2,4 with delta=3: {0,2}, {2,4} are maximal; {2} is not.
        series = [Series([(0, 1.0), (2, 1.0), (4, 1.0)])]
        insts = enumerate_instances(series, delta=3, phi=0)
        assert [i.ranges for i in insts] == [((0, 1),), ((1, 2),)]


class TestTwoEdgeChain:
    def test_strict_time_order_between_edges(self):
        # e2's element at t=5 is NOT strictly after e1's t=5 twin? timestamps
        # are unique globally in the model, but across edges equality must
        # still be rejected by the strict `<` comparisons.
        series = [Series([(5, 1.0)]), Series([(5, 1.0)])]
        assert len(enumerate_instances(series, delta=10, phi=0)) == 0

    def test_basic_instance(self):
        series = [Series([(1, 2.0)]), Series([(2, 3.0)])]
        insts = enumerate_instances(series, delta=5, phi=0)
        assert len(insts) == 1
        assert insts[0].flow == 2.0

    def test_empty_series_no_instances(self):
        assert enumerate_instances([Series([]), Series([(1, 1.0)])], 5, 0) == []
        assert enumerate_instances([Series([(1, 1.0)]), Series([])], 5, 0) == []

    def test_phi_prunes_first_edge_prefix(self):
        # first-edge prefix sums: 1, 3 — with phi=2 only the 2-element
        # prefix qualifies, so e2 must start after t=2.
        series = [Series([(1, 1.0), (2, 2.0)]), Series([(1.5, 9.0), (3, 9.0)])]
        insts = enumerate_instances(series, delta=10, phi=2)
        assert len(insts) == 1
        assert insts[0].edge_sets(series) == (((1, 1.0), (2, 2.0)), ((3, 9.0),))

    def test_instances_partition_by_split_point(self):
        series = [Series([(1, 1.0), (3, 1.0)]), Series([(2, 1.0), (4, 1.0)])]
        insts = enumerate_instances(series, delta=10, phi=0)
        sets = {i.edge_sets(series) for i in insts}
        assert sets == {
            (((1, 1.0),), ((2, 1.0), (4, 1.0))),
            (((1, 1.0), (3, 1.0)), ((4, 1.0),)),
        }


class TestMaximalityAndValidity:
    SERIES = [Series([(0, 1.0), (2, 1.0)]), Series([(1, 1.0), (3, 1.0)])]

    def is_valid(self, ranges, delta, phi):
        """Definition 3.2, judged by the brute force."""
        valid = bf.valid_instances(self.SERIES, delta, phi)
        return bf.ranges_to_idxsets(ranges) in valid

    def test_is_valid_ordering(self):
        assert self.is_valid(((0, 0), (0, 1)), delta=10, phi=0)
        # e1 <- {0,2}, e2 <- {1,...}: 2 > 1 breaks the order
        assert not self.is_valid(((0, 1), (0, 1)), delta=10, phi=0)

    def test_is_valid_delta(self):
        assert not self.is_valid(((0, 0), (0, 1)), delta=2, phi=0)

    def test_is_valid_phi(self):
        assert not self.is_valid(((0, 0), (0, 1)), delta=10, phi=1.5)
        assert self.is_valid(((0, 0), (0, 1)), delta=10, phi=1.0)

    def test_is_maximal_detects_addable_tail(self):
        # e2 <- {(1,..)} only: (3,..) can be added within delta=10
        assert not is_maximal(self.SERIES, ((0, 0), (0, 0)), delta=10)
        assert is_maximal(self.SERIES, ((0, 0), (0, 1)), delta=10)

    def test_is_maximal_respects_delta_at_the_back(self):
        # delta=1: e2 can only hold (1,..); adding (3,..) would break delta
        assert is_maximal(self.SERIES, ((0, 0), (0, 0)), delta=1)

    def test_is_maximal_front_extension(self):
        series = [Series([(0, 1.0), (2, 1.0)]), Series([(3, 1.0)])]
        # e1 <- {(2,)} when (0,) could still be added (delta=10)
        assert not is_maximal(series, ((1, 1), (0, 0)), delta=10)
        assert is_maximal(series, ((1, 1), (0, 0)), delta=2)


class TestPhiSubsetInvariant:
    """instances(phi) == {I in instances(0) : f(I) >= phi} — maximality is
    independent of phi (DESIGN.md § 5)."""

    @pytest.mark.parametrize("phi", [0.5, 1.0, 2.0, 3.5, 10.0])
    def test_invariant(self, phi):
        series = [
            Series([(0, 1.0), (2, 2.0), (7, 1.0)]),
            Series([(1, 1.0), (3, 1.0), (8, 2.0)]),
        ]
        base = enumerate_instances(series, delta=6, phi=0)
        filt = enumerate_instances(series, delta=6, phi=phi)
        assert {i.ranges for i in filt} == {
            i.ranges for i in base if i.flow >= phi
        }


def test_determinism():
    series = [Series([(0, 1.0), (2, 2.0)]), Series([(1, 1.0), (3, 1.0)])]
    a = enumerate_instances(series, delta=6, phi=0)
    b = enumerate_instances(series, delta=6, phi=0)
    assert [i.ranges for i in a] == [i.ranges for i in b]


def test_float_phi_matches_definition():
    """An edge-set whose flow equals phi passes the phi check, as in the
    Definition 3.2 brute force. A difference of prefix sums reads the last
    element's flow 3.805 as 3.8049999999999997 and loses the instance."""
    series = [
        Series([(0, 6.22), (1, 2.843), (2, 1.8), (3, 3.805)]),
        Series([(3.5, 5.0)]),
    ]
    expected = bf.maximal_instances(series, delta=1, phi=3.805)
    assert expected == {((3,), (0,))}
    got = {
        bf.ranges_to_idxsets(inst.ranges)
        for inst in enumerate_instances(series, delta=1, phi=3.805)
    }
    assert got == expected
