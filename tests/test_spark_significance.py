"""Flow-permutation randomization and z-scores (paper § 6.3 / Fig. 14)."""
import math

import pytest

from repro.core.motif import MOTIFS
from repro.oracle import assert_equivalent
from repro.spark import search as sp
from repro.spark.graph import distinct_pairs
from repro.spark.significance import SignificanceResult, permute_flows, significance
from tests.conftest import SCHEMA, random_edges, to_spark_edges


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
        from repro.spark.structural import structural_matches_df

        edges = to_spark_edges(spark, random_edges(3, n_nodes=6, n_edges=30))
        motif = MOTIFS["M(3,2)"]
        permuted = permute_flows(edges, seed=4)
        assert (
            structural_matches_df(distinct_pairs(edges), motif).count()
            == structural_matches_df(distinct_pairs(permuted), motif).count()
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

    @pytest.mark.parametrize("seed", range(4))
    def test_negative_z_when_random_counts_identical(self, spark, seed):
        """The coherent graph with chain and noise flows swapped: no chain
        reaches phi, while permuting moves high flows onto chains. With one
        random graph sigma = 0, and a real count below it must read -inf."""
        edges = to_spark_edges(
            spark, [(s, d, t, 10.0 - f) for s, d, t, f in self._coherent_graph()]
        )
        res = significance(
            edges, MOTIFS["M(3,2)"], delta=10.0, phi=9.0, n_random=1, seed=seed
        )
        assert res.real_count == 0 < res.mean
        assert res.std == 0.0
        assert res.z_score == -math.inf

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

    def test_no_instances_counts_zero(self, spark):
        edges = to_spark_edges(spark, self._coherent_graph())
        res = significance(
            edges, MOTIFS["M(3,2)"], delta=0.5, phi=1.0, n_random=3, seed=0
        )
        assert (res.real_count, res.random_counts) == (0, (0, 0, 0))
        assert res.z_score == 0.0

    def test_edge_set_off_the_interactions_rejected(self, spark, monkeypatch):
        """An instance whose edge-set bounds are not interactions of the
        collected network has no run of flows to fold."""
        from pyspark.sql import functions as F

        from repro.spark import significance as sig

        monkeypatch.setattr(
            sig,
            "find_instances",
            lambda *args: sp.find_instances(*args).withColumn("te1", F.col("te1") + 0.5),
        )
        edges = to_spark_edges(spark, self._coherent_graph())
        with pytest.raises(RuntimeError, match="edge-set 1 is not a run"):
            significance(edges, MOTIFS["M(3,2)"], delta=10.0, phi=9.0, n_random=2)

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


def _sorted_edge_list(df):
    """A Spark edge frame as a list sorted by (t, src, dst), the order the
    permutations index."""
    return sorted(
        ((r.src, r.dst, r.t, r.f) for r in df.collect()),
        key=lambda e: (e[2], e[0], e[1]),
    )


class TestSinglePassExact:
    """Counting every graph from one phi = 0 enumeration equals counting
    each permuted graph on its own, permutation by permutation."""

    @pytest.fixture(params=["bitcoin", "random", "bitcoin-tie"])
    def case(self, request, spark, bitcoin_small):
        """(edges, delta, phi): bitcoin's 4-dp log-normal flows at its
        default delta/phi, a small integer-flow random graph, and bitcoin
        with phi the median first edge-set flow of random graph 0 of seed 0
        at phi = 0, so that graph has an instance whose flow test is an
        exact tie."""
        from repro.networks.generators import SPECS

        spec = SPECS["bitcoin"]
        if request.param == "bitcoin":
            return bitcoin_small, spec.delta_default, spec.phi_default
        if request.param == "bitcoin-tie":
            inst = sp.find_instances(
                permute_flows(bitcoin_small, 0), MOTIFS["M(3,2)"], spec.delta_default, 0.0
            )
            f0 = sorted(r.f0 for r in inst.collect())
            return bitcoin_small, spec.delta_default, f0[len(f0) // 2]
        edges = to_spark_edges(spark, random_edges(7, n_nodes=6, n_edges=40))
        return edges, 12.0, 10.0

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_per_permutation_counts(self, case, seed):
        edges, delta, phi = case
        motif = MOTIFS["M(3,2)"]
        per_r = tuple(
            sp.count_instances(
                permute_flows(edges, seed * 1000 + r), motif, delta, phi
            )
            for r in range(3)
        )
        real = sp.count_instances(edges, motif, delta, phi)
        for n_random in (1, 3):
            res = significance(edges, motif, delta, phi, n_random=n_random, seed=seed)
            assert res.real_count == real
            assert res.random_counts == per_r[:n_random]

    def test_equals_pure_python_on_numpy_permutation(self, bitcoin_small):
        """Spark is not the only judge: permute the sorted edge list with
        NumPy and count it with ``core.search.count_graph``."""
        import numpy as np

        from repro.core.search import count_graph
        from repro.networks.generators import SPECS

        spec = SPECS["bitcoin"]
        delta, phi = spec.delta_default, spec.phi_default
        motif, seed = MOTIFS["M(3,2)"], 1
        edges = _sorted_edge_list(bitcoin_small)
        flows = [e[3] for e in edges]
        expected = []
        for r in range(3):
            perm = np.random.default_rng(seed * 1000 + r).permutation(len(edges))
            permuted = [e[:3] + (flows[j],) for e, j in zip(edges, perm)]
            expected.append(count_graph(permuted, motif, delta, phi))
        res = significance(bitcoin_small, motif, delta, phi, n_random=3, seed=seed)
        assert res.real_count == count_graph(edges, motif, delta, phi)
        assert res.random_counts == tuple(expected)
        assert len(set(expected)) > 1  # the permutations really differ

    def test_same_without_arrow_conversion(self, spark, case):
        """A session without Arrow-based pandas conversion (the jobs' default)
        collects the interactions to the driver through another ``toPandas``
        path; the counts are the same."""
        edges, delta, phi = case
        key = "spark.sql.execution.arrow.pyspark.enabled"
        args = (edges, MOTIFS["M(3,2)"], delta, phi)
        with_arrow = significance(*args, n_random=2)
        spark.conf.set(key, "false")
        try:
            assert significance(*args, n_random=2) == with_arrow
        finally:
            spark.conf.set(key, "true")


def test_run_sums_fold_like_range_sum():
    """Each run's sum, in each column, is ``Series.range_sum``'s left fold
    bit for bit, runs of every length side by side."""
    import numpy as np

    from repro.core.instances import Series
    from repro.spark.significance import _run_sums

    flows = np.random.default_rng(5).lognormal(size=(30, 4)).round(4)
    start = np.array([0, 3, 3, 10, 29, 7])
    length = np.array([1, 5, 2, 20, 1, 13])
    got = _run_sums(flows, start, length)
    for j, (s, n) in enumerate(zip(start, length)):
        for c in range(flows.shape[1]):
            series = Series((float(t), float(x)) for t, x in enumerate(flows[:, c]))
            assert got[j, c] == series.range_sum(s, s + n - 1)


def test_one_plan_for_any_n_random(spark, passenger_small, monkeypatch):
    """The Spark job count does not grow with the number of permutations,
    so the random graphs are not counted one plan at a time: each call
    enumerates instances once, with ``find_instances`` at phi = 0."""
    from repro.networks.generators import SPECS
    from repro.spark import significance as sig

    calls = []

    def spy(*args):
        calls.append(args)
        return sp.find_instances(*args)

    monkeypatch.setattr(sig, "find_instances", spy)
    sc = spark.sparkContext
    spec = SPECS["passenger"]
    motif = MOTIFS["M(3,2)"]
    jobs = {}
    try:
        for n_random in (1, 5):
            group = f"significance-jobs-{n_random}"
            sc.setJobGroup(group, group)
            significance(
                passenger_small,
                motif,
                spec.delta_default,
                spec.phi_default,
                n_random=n_random,
            )
            jobs[n_random] = len(sc.statusTracker().getJobIdsForGroup(group))
    finally:
        for key in ("jobGroup.id", "job.description", "job.interruptOnCancel"):
            sc.setLocalProperty(f"spark.{key}", None)
    assert jobs[1] > 0
    assert jobs[1] == jobs[5]
    assert calls == [(passenger_small, motif, spec.delta_default, 0.0)] * 2


class TestInputContract:
    """``significance`` checks its input on the driver before any counting."""

    BASE = [(0, 1, 1.0, 2.0), (1, 2, 2.0, 3.0), (0, 1, 3.0, 4.0)]

    def _significance(self, spark, edges):
        df = spark.createDataFrame(edges, schema=SCHEMA)
        return significance(df, MOTIFS["M(3,2)"], delta=10.0, phi=1.0, n_random=2)

    def test_valid_input_accepted(self, spark):
        assert self._significance(spark, self.BASE).real_count == 1

    def test_duplicate_interaction_rejected(self, spark):
        with pytest.raises(ValueError, match=r"share a \(src, dst, t\)"):
            self._significance(spark, self.BASE + [(0, 1, 1.0, 5.0)])

    @pytest.mark.parametrize("t", [None, float("nan"), float("inf")])
    def test_bad_timestamp_rejected(self, spark, t):
        with pytest.raises(ValueError, match="null, NaN or infinite timestamp"):
            self._significance(spark, self.BASE + [(2, 0, t, 5.0)])

    @pytest.mark.parametrize(
        "f", [None, float("nan"), float("inf"), float("-inf"), 0.0, -1.5]
    )
    def test_bad_flow_rejected(self, spark, f):
        with pytest.raises(ValueError, match="null, NaN, infinite or non-positive"):
            self._significance(spark, self.BASE + [(2, 0, 4.0, f)])
