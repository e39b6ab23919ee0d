"""Flow-permutation randomization and z-scores (paper § 6.3 / Fig. 14)."""
import pytest

from repro.core.motif import MOTIFS
from repro.oracle import assert_equivalent
from repro.spark import search as sp
from repro.spark.graph import distinct_pairs
from repro.spark.significance import SignificanceResult, permute_flows, significance
from tests.conftest import random_edges, to_spark_edges


class TestPermuteFlows:
    def test_skeleton_preserved(self, spark):
        edges = to_spark_edges(spark, random_edges(0, n_nodes=6, n_edges=30))
        permuted = permute_flows(edges, seed=1)
        # same (src, dst, t) skeleton — checked via the DuckDB oracle
        assert_equivalent(
            permuted.select("src", "dst", "t"),
            "SELECT src, dst, t FROM edges",
            edges=edges,
        )

    def test_flow_multiset_preserved(self, spark):
        edges = to_spark_edges(spark, random_edges(1, n_nodes=6, n_edges=30))
        a = sorted(r.f for r in edges.collect())
        b = sorted(r.f for r in permute_flows(edges, seed=5).collect())
        assert a == b

    def test_deterministic_in_seed(self, spark):
        edges = to_spark_edges(spark, random_edges(2, n_nodes=6, n_edges=25))
        x = sorted(map(tuple, permute_flows(edges, seed=9).collect()))
        y = sorted(map(tuple, permute_flows(edges, seed=9).collect()))
        z = sorted(map(tuple, permute_flows(edges, seed=10).collect()))
        assert x == y
        assert x != z

    def test_structural_matches_unchanged(self, spark):
        from repro.spark.structural import count_matches

        edges = to_spark_edges(spark, random_edges(3, n_nodes=6, n_edges=30))
        motif = MOTIFS["M(3,2)"]
        assert count_matches(distinct_pairs(edges), motif) == count_matches(
            distinct_pairs(permute_flows(edges, seed=4)), motif
        )

    def test_delta_only_instances_unchanged(self, spark):
        """With phi = 0 the instance sets of G and G_r coincide (§ 6.3)."""
        edges = to_spark_edges(spark, random_edges(4, n_nodes=6, n_edges=30))
        motif = MOTIFS["M(3,2)"]
        a = sp.count_instances(edges, motif, 12.0, 0.0)
        b = sp.count_instances(permute_flows(edges, seed=2), motif, 12.0, 0.0)
        assert a == b


class TestSignificance:
    def _coherent_graph(self):
        """Flows are concentrated on one time-coherent chain: permutation
        scatters them, so the real count beats the randomized ones."""
        edges = []
        t = 0.0
        # ten repeated high-flow chains 0 -> 1 -> 2 within delta
        for i in range(10):
            base = i * 100.0
            edges.append((0, 1, base + 1.0, 9.0))
            edges.append((1, 2, base + 2.0, 9.0))
        # plus scattered low-flow noise elsewhere
        for i in range(20):
            edges.append((3 + (i % 2), 5 + (i % 3), 1000.0 + i * 7.0, 1.0))
        return edges

    def test_positive_z_on_coherent_graph(self, spark):
        edges = to_spark_edges(spark, self._coherent_graph())
        res = significance(
            edges, MOTIFS["M(3,2)"], delta=10.0, phi=9.0, n_random=5, seed=0
        )
        assert isinstance(res, SignificanceResult)
        assert res.real_count == 10
        assert res.mean < res.real_count
        assert res.z_score > 1.0
        assert res.p_empirical == 0.0

    def test_random_counts_recorded(self, spark):
        edges = to_spark_edges(spark, self._coherent_graph())
        res = significance(
            edges, MOTIFS["M(3,2)"], delta=10.0, phi=9.0, n_random=3, seed=1
        )
        assert len(res.random_counts) == 3

    @pytest.mark.parametrize("n_random", [0, -2])
    def test_n_random_below_one_rejected(self, spark, n_random):
        edges = to_spark_edges(spark, self._coherent_graph())
        with pytest.raises(ValueError, match="n_random must be >= 1"):
            significance(
                edges, MOTIFS["M(3,2)"], delta=10.0, phi=9.0, n_random=n_random
            )

    def test_phi_zero_gives_zero_z(self, spark):
        """With phi = 0 real and random counts are identical by design."""
        edges = to_spark_edges(spark, random_edges(6, n_nodes=6, n_edges=30))
        res = significance(
            edges, MOTIFS["M(3,2)"], delta=12.0, phi=0.0, n_random=3, seed=0
        )
        assert res.real_count == res.mean
        assert res.z_score == 0.0

    def test_generated_dataset_significant(self, passenger_small):
        """Fig. 14's headline: real counts exceed randomized counts on the
        (cascade-bearing) generated networks."""
        from repro.networks.generators import SPECS

        spec = SPECS["passenger"]
        res = significance(
            passenger_small,
            MOTIFS["M(3,2)"],
            spec.delta_default,
            spec.phi_default,
            n_random=3,
            seed=0,
        )
        assert res.real_count > res.mean
        assert res.z_score > 0
