"""Distributed two-phase pipeline vs the pure-Python reference, end-to-end."""
import random

import pandas as pd
import pytest

from repro.core import bruteforce
from repro.core.dp import max_flow as dp_max_flow
from repro.core.instances import Series, enumerate_instances
from repro.core.motif import MOTIF_ORDER, MOTIFS
from repro.core.search import count_graph, max_flow_graph, topk_graph
from repro.spark import search as sp
from repro.spark.graph import check_interactions, distinct_pairs
from repro.spark.join_baseline import find_instances_join
from repro.spark.structural import structural_matches_df
from tests.conftest import (
    instance_rows,
    py_instance_rows,
    random_edges,
    to_spark_edges,
)

FIG2_EDGES = [(3, 1, 10.0, 10.0), (1, 2, 13.0, 5.0), (1, 2, 15.0, 7.0), (2, 3, 18.0, 20.0)]


class TestFindInstances:
    def test_fig4_instance(self, spark):
        motif = MOTIFS["M(3,3)"]
        df = sp.find_instances(to_spark_edges(spark, FIG2_EDGES), motif, 10, 7)
        rows = df.collect()
        assert len(rows) == 1
        assert tuple(rows[0]) == (
            3, 1, 2,  # v0..v2
            10.0, 10.0, 10.0,  # ts0, te0, f0
            13.0, 15.0, 12.0,  # ts1, te1, f1
            18.0, 18.0, 20.0,  # ts2, te2, f2
            10.0, 10.0, 18.0,  # flow, t_start, t_end
        )

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("name", ["M(3,2)", "M(3,3)"])
    def test_matches_python_reference(self, spark, seed, name):
        motif = MOTIFS[name]
        edges = random_edges(seed, n_nodes=6, n_edges=35, t_max=40)
        delta, phi = 12.0, 4.0
        got = instance_rows(
            sp.find_instances(to_spark_edges(spark, edges), motif, delta, phi)
        )
        assert got == py_instance_rows(edges, motif, delta, phi)

    @pytest.mark.parametrize("name", ["M(4,3)", "M(4,4)A", "M(4,4)B", "M(5,5)C"])
    def test_matches_python_reference_larger_motifs(self, spark, name):
        motif = MOTIFS[name]
        edges = random_edges(99, n_nodes=6, n_edges=45, t_max=30)
        delta, phi = 15.0, 2.0
        got = instance_rows(
            sp.find_instances(to_spark_edges(spark, edges), motif, delta, phi)
        )
        assert got == py_instance_rows(edges, motif, delta, phi)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", ["M(3,2)", "M(3,3)", "M(4,3)", "M(4,4)B"])
    def test_self_loops_never_match(self, spark, seed, name):
        """Self-loops are valid input, and no instance uses one: every motif
        edge joins two distinct motif nodes, which the bijection maps to
        distinct vertices."""
        motif = MOTIFS[name]
        edges = random_edges(seed, n_nodes=6, n_edges=35, t_max=40)
        rng = random.Random(seed)
        loops = [
            (rng.randrange(6), t / 10 + 0.05, float(rng.randint(1, 9)))
            for t in rng.sample(range(400), 24)
        ]
        with_loops = edges + [(v, v, t, f) for v, t, f in loops]
        check_interactions(pd.DataFrame(with_loops, columns=["src", "dst", "t", "f"]))
        delta, phi = 12.0, 2.0
        expected = py_instance_rows(edges, motif, delta, phi)
        assert py_instance_rows(with_loops, motif, delta, phi) == expected
        df = to_spark_edges(spark, with_loops)
        assert instance_rows(sp.find_instances(df, motif, delta, phi)) == expected
        assert instance_rows(find_instances_join(df, motif, delta, phi)) == expected

    def test_generated_dataset_counts(self, passenger_small):
        from repro.networks.generators import SPECS

        motif = MOTIFS["M(3,2)"]
        spec = SPECS["passenger"]
        edges = [
            (r.src, r.dst, r.t, r.f) for r in passenger_small.collect()
        ]
        expected = count_graph(edges, motif, spec.delta_default, spec.phi_default)
        got = sp.count_instances(
            passenger_small, motif, spec.delta_default, spec.phi_default
        )
        assert got == expected
        assert got > 0

    def test_empty_result(self, spark):
        motif = MOTIFS["M(3,3)"]
        df = sp.find_instances(to_spark_edges(spark, FIG2_EDGES), motif, 10, 100.0)
        assert df.count() == 0

    def test_phi_monotonicity(self, spark):
        motif = MOTIFS["M(3,2)"]
        edges = random_edges(7, n_nodes=6, n_edges=40, t_max=40)
        df = to_spark_edges(spark, edges)
        counts = [sp.count_instances(df, motif, 12.0, phi) for phi in (0, 3, 6, 12)]
        assert counts == sorted(counts, reverse=True)

    def test_delta_monotonicity_of_work(self, spark):
        """#instances grows with delta (Fig. 9's qualitative shape).

        Maximal-instance counts are not strictly monotone in delta in
        general (windows merge), so assert over the generated passenger
        data where growth is robust."""
        motif = MOTIFS["M(3,2)"]
        edges = random_edges(3, n_nodes=6, n_edges=50, t_max=30)
        df = to_spark_edges(spark, edges)
        small = sp.count_instances(df, motif, 2.0, 0.0)
        large = sp.count_instances(df, motif, 20.0, 0.0)
        assert large >= small


class TestDeltaBoundary:
    """Edges exactly at the duration bound, in Definition 3.2's arithmetic."""

    def test_float_boundary_agrees_everywhere(self, spark):
        # 0.30000000000000004 <= 0.1 + 0.2, yet 0.30000000000000004 - 0.1 > 0.2
        series = [Series([(0.1, 1.0)]), Series([(0.30000000000000004, 1.0)])]
        delta = 0.2
        assert enumerate_instances(series, delta, 0.0) == []
        assert bruteforce.maximal_instances(series, delta, 0.0) == set()
        assert dp_max_flow(series, delta) == 0.0
        edges = to_spark_edges(spark, [(0, 1, 0.1, 1.0), (1, 2, 0.30000000000000004, 1.0)])
        motif = MOTIFS["M(3,2)"]
        assert find_instances_join(edges, motif, delta, 0.0).count() == 0
        assert sp.count_instances(edges, motif, delta, 0.0) == 0

    @pytest.mark.parametrize(
        "edges, kept",
        [
            # consecutive motif edges exactly delta apart
            ([(0, 1, 10.0, 1.0), (1, 2, 20.0, 1.0)], True),
            # equal timestamps: the order between motif edges is strict
            ([(0, 1, 10.0, 1.0), (1, 2, 10.0, 1.0)], False),
            # the only time-ordered pairs are > delta apart (25-10, 45-30);
            # 25 follows 30 by 5 but in the wrong order
            ([(0, 1, 10.0, 1.0), (0, 1, 30.0, 1.0), (1, 2, 25.0, 1.0), (1, 2, 45.0, 1.0)], False),
        ],
        ids=["exactly-delta", "equal-times", "ordered-pairs-too-far"],
    )
    def test_pruning(self, spark, edges, kept):
        motif, delta = MOTIFS["M(3,2)"], 10.0
        df = to_spark_edges(spark, edges)
        assert sp.matches_with_series(df, motif).count() == 1
        assert sp.matches_with_series(df, motif, delta).count() == int(kept)
        got = instance_rows(sp.find_instances(df, motif, delta, 0.0))
        assert got == py_instance_rows(edges, motif, delta, 0.0)
        assert bool(got) == kept


@pytest.mark.parametrize("name", MOTIF_ORDER)
def test_unpruned_matches_are_structural_matches(passenger_small, name):
    """Without delta every structural match reaches P2 (Table 4, Fig. 12)."""
    motif = MOTIFS[name]
    pairs = distinct_pairs(passenger_small)
    assert (
        sp.matches_with_series(passenger_small, motif).count()
        == structural_matches_df(pairs, motif).count()
    )


class TestTopK:
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_matches_python_topk(self, spark, seed, k):
        motif = MOTIFS["M(3,2)"]
        edges = random_edges(seed, n_nodes=6, n_edges=35, t_max=40)
        got = sp.topk_flows(to_spark_edges(spark, edges), motif, 12.0, k)
        assert got == topk_graph(edges, motif, 12.0, k)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, spark, k):
        edges = to_spark_edges(spark, FIG2_EDGES)
        with pytest.raises(ValueError, match="k must be >= 1"):
            sp.topk_flows(edges, MOTIFS["M(3,3)"], 10.0, k)

    def test_topk_sorted_desc(self, spark):
        motif = MOTIFS["M(3,2)"]
        edges = random_edges(2, n_nodes=6, n_edges=40, t_max=40)
        flows = sp.topk_flows(to_spark_edges(spark, edges), motif, 15.0, 5)
        assert flows == sorted(flows, reverse=True)


class TestMaxFlowDP:
    @pytest.mark.parametrize("seed", [1, 4])
    @pytest.mark.parametrize("name", ["M(3,2)", "M(3,3)"])
    def test_matches_python_dp(self, spark, seed, name):
        motif = MOTIFS[name]
        edges = random_edges(seed, n_nodes=6, n_edges=35, t_max=40)
        got = sp.max_flow(to_spark_edges(spark, edges), motif, 12.0)
        assert got == pytest.approx(max_flow_graph(edges, motif, 12.0))

    def test_dp_equals_top1(self, spark):
        motif = MOTIFS["M(3,2)"]
        edges = random_edges(8, n_nodes=6, n_edges=40, t_max=40)
        df = to_spark_edges(spark, edges)
        top = sp.topk_flows(df, motif, 12.0, 1)
        assert sp.max_flow(df, motif, 12.0) == pytest.approx(
            top[0] if top else 0.0
        )

    def test_no_instances_returns_zero(self, spark):
        motif = MOTIFS["M(5,5)A"]
        assert sp.max_flow(to_spark_edges(spark, FIG2_EDGES), motif, 10.0) == 0.0


class TestPhase1Helper:
    def test_count_and_time(self, spark):
        edges = to_spark_edges(spark, FIG2_EDGES)
        pairs = distinct_pairs(edges)
        assert structural_matches_df(pairs, MOTIFS["M(3,3)"]).count() == 3
