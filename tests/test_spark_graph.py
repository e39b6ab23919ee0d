"""Spark graph layer: time-series graph construction and Table 3 stats."""
import gc
import itertools

import pytest

from repro import experiments
from repro.core.motif import MOTIFS
from repro.oracle import assert_equivalent
from repro.spark import search
from repro.spark.graph import STATS_SQL, dataset_stats, distinct_pairs, timeseries_graph
from repro.spark.significance import significance
from tests.conftest import random_edges, to_spark_edges

EDGES = [
    (1, 2, 13.0, 5.0),
    (1, 2, 15.0, 7.0),
    (3, 1, 10.0, 10.0),
    (2, 3, 18.0, 20.0),
]


class TestTimeseriesGraph:
    def test_merges_parallel_edges(self, spark):
        gt = timeseries_graph(to_spark_edges(spark, EDGES))
        rows = {(r.src, r.dst): (list(r.ts), list(r.fs)) for r in gt.collect()}
        assert rows[(1, 2)] == ([13.0, 15.0], [5.0, 7.0])
        assert rows[(3, 1)] == ([10.0], [10.0])
        assert rows[(2, 3)] == ([18.0], [20.0])
        assert len(rows) == 3

    def test_series_sorted_even_if_input_unsorted(self, spark):
        edges = [(1, 2, 15.0, 7.0), (1, 2, 13.0, 5.0), (1, 2, 14.0, 1.0)]
        gt = timeseries_graph(to_spark_edges(spark, edges))
        row = gt.collect()[0]
        assert list(row.ts) == [13.0, 14.0, 15.0]
        assert list(row.fs) == [5.0, 1.0, 7.0]

    def test_further_columns_aligned_with_ts(self, spark):
        """Any column besides src/dst/t becomes an array aligned with ts,
        named with an ``s`` suffix."""
        df = spark.createDataFrame(
            [(1, 2, 15.0, 7.0, [1.0, 2.0]), (1, 2, 13.0, 5.0, [3.0, 4.0])],
            schema="src long, dst long, t double, f double, fr array<double>",
        )
        row = timeseries_graph(df).collect()[0]
        assert timeseries_graph(df).columns == ["src", "dst", "ts", "fs", "frs"]
        assert list(row.ts) == [13.0, 15.0]
        assert list(row.fs) == [5.0, 7.0]
        assert [list(v) for v in row.frs] == [[3.0, 4.0], [1.0, 2.0]]

    def test_distinct_pairs(self, spark):
        pairs = distinct_pairs(to_spark_edges(spark, EDGES))
        assert {(r.src, r.dst) for r in pairs.collect()} == {
            (1, 2),
            (3, 1),
            (2, 3),
        }

    def test_pair_count_matches_timeseries_rowcount(self, bitcoin_small):
        assert (
            distinct_pairs(bitcoin_small).count()
            == timeseries_graph(bitcoin_small).count()
        )


class TestStoredTimeseriesGraph:
    """A cached network's G_T is built once, stored and freed with it; an
    uncached frame's G_T is built inside each query's plan."""

    #: Spark caches by plan, so each test caches a network of its own.
    seeds = itertools.count(100)

    def cached_network(self, spark):
        edges = to_spark_edges(spark, random_edges(next(self.seeds))).cache()
        edges.count()
        return edges

    @staticmethod
    def storage_info(spark):
        return len(spark.sparkContext._jsc.sc().getRDDStorageInfo())

    def test_one_gt_per_cached_network(self, spark):
        edges = self.cached_network(spark)
        assert timeseries_graph(edges) is timeseries_graph(edges)

    def test_stored_gt_is_cached(self, spark):
        edges = self.cached_network(spark)
        assert timeseries_graph(edges).storageLevel.useMemory

    def test_stored_gt_has_one_partition_per_core(self, spark):
        edges = self.cached_network(spark)
        gt = timeseries_graph(edges)
        assert gt.rdd.getNumPartitions() == spark.sparkContext.defaultParallelism

    def test_uncached_input_adds_no_cache(self, spark):
        edges = self.cached_network(spark)
        stored = timeseries_graph(edges)
        stored.count()
        before = self.storage_info(spark)
        uncached = to_spark_edges(spark, EDGES)
        gt = timeseries_graph(uncached)
        gt.count()
        assert self.storage_info(spark) == before
        assert stored.storageLevel.useMemory and not gt.storageLevel.useMemory

    def test_significance_adds_no_cache(self, spark):
        """Significance reads the stored G_T and caches nothing of its own."""
        edges = self.cached_network(spark)
        timeseries_graph(edges).count()
        before = self.storage_info(spark)
        significance(edges, MOTIFS["M(3,2)"], 10.0, 1.0, n_random=2)
        assert self.storage_info(spark) == before
        assert timeseries_graph(edges).storageLevel.useMemory

    def test_significance_reads_stored_gt(self, spark, monkeypatch):
        """Significance runs P1 over the network's own (stored) G_T, like
        every other query, not over a G_T of a frame of its own."""
        edges = self.cached_network(spark)
        inputs = []

        def spy(frame):
            inputs.append(frame)
            return timeseries_graph(frame)

        monkeypatch.setattr(search, "timeseries_graph", spy)
        significance(edges, MOTIFS["M(3,2)"], 10.0, 1.0, n_random=2)
        assert len(inputs) == 1 and inputs[0] is edges

    def test_stored_gt_freed_with_its_network(self, spark):
        sc = spark.sparkContext

        def persistent_rdds():
            return set(sc._jsc.getPersistentRDDs().keySet())

        edges = self.cached_network(spark)
        before = persistent_rdds()
        timeseries_graph(edges).count()
        stored = persistent_rdds() - before
        assert len(stored) == 1
        edges.unpersist()
        del edges
        gc.collect()
        assert not stored & persistent_rdds()


class TestDatasetStats:
    def test_stats_toy_graph_oracle(self, spark):
        edges = to_spark_edges(spark, EDGES)
        assert_equivalent(dataset_stats(spark, edges), STATS_SQL, edges=edges)

    def test_stats_values(self, spark):
        row = dataset_stats(spark, to_spark_edges(spark, EDGES)).collect()[0]
        assert row.n_nodes == 3
        assert row.n_pairs == 3
        assert row.n_edges == 4
        assert row.avg_flow == pytest.approx(10.5)

    @pytest.mark.parametrize("kind", ["bitcoin", "facebook", "passenger"])
    def test_stats_generated_oracle(self, spark, kind):
        edges = experiments.load(spark, kind, sf=0.1, seed=1)
        assert_equivalent(dataset_stats(spark, edges), STATS_SQL, edges=edges)

    def test_stats_match_pandas_generator_stats(self, spark):
        from repro.networks import generators as gen

        pdf = gen.generate("passenger", sf=0.3, seed=2)
        expected = gen.stats(pdf)
        row = dataset_stats(
            spark, spark.createDataFrame(pdf, schema="src long, dst long, t double, f double")
        ).collect()[0]
        assert row.n_nodes == expected["n_nodes"]
        assert row.n_pairs == expected["n_pairs"]
        assert row.n_edges == expected["n_edges"]
        assert row.avg_flow == pytest.approx(expected["avg_flow"])
