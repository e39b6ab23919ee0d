"""Interaction multigraph as Spark DataFrames: G(V, E) and G_T(V, E_T).

The input multigraph is a DataFrame with columns ``src``/``dst`` (long),
``t`` (double) and ``f`` (double) — one row per interaction. The
*time-series graph* G_T merges parallel edges into one row per connected
pair carrying the interaction series as two aligned, time-sorted arrays
``ts``/``fs`` (paper § 4, Figure 5). Like the paper, which converts G once
and runs every query over G_T, a cached network's G_T is built once and
stored beside it (:func:`timeseries_graph`). :func:`check_interactions` is the
input contract, checked where interactions enter. Table 3's dataset
statistics are computed here as a plain Spark SQL aggregate so the DuckDB
oracle can check them verbatim.
"""
from __future__ import annotations

import weakref

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

#: SQL that computes Table 3's statistics row over a table named `edges`.
#: Runs unchanged on Spark and DuckDB (oracle check in tests).
STATS_SQL = """
SELECT
  (SELECT COUNT(*) FROM (SELECT src AS v FROM edges UNION SELECT dst FROM edges) nodes) AS n_nodes,
  (SELECT COUNT(*) FROM (SELECT DISTINCT src, dst FROM edges) pairs) AS n_pairs,
  (SELECT COUNT(*) FROM edges) AS n_edges,
  (SELECT AVG(f) FROM edges) AS avg_flow
"""


def check_interactions(pdf: pd.DataFrame) -> pd.DataFrame:
    """The input contract, on the driver: no two interactions share a
    ``(src, dst, t)`` (G_T's series need unique timestamps), and every flow
    ``f`` is non-null, finite and > 0. Returns ``pdf``; raises
    ``ValueError`` on a violation.

    Self-loops (``src == dst``) are accepted and never match: every motif
    edge joins two distinct motif nodes, and Definition 3.2's bijection
    maps those to distinct vertices."""
    dup = pdf.duplicated(["src", "dst", "t"], keep=False)
    if dup.any():
        raise ValueError(
            f"{int(dup.sum())} interactions share a (src, dst, t), e.g. "
            f"{pdf[dup].iloc[0].to_dict()}; timestamps must be unique per pair"
        )
    f = pdf["f"].to_numpy(dtype=float, na_value=np.nan)
    bad = ~(np.isfinite(f) & (f > 0))
    if bad.any():
        raise ValueError(
            f"{int(bad.sum())} interactions have a null, NaN, infinite or "
            f"non-positive flow, e.g. {pdf[bad].iloc[0].to_dict()}; "
            "flows must be finite and > 0"
        )
    return pdf


#: G_T of each cached network, keyed by its interactions frame.
_STORED_GT: weakref.WeakKeyDictionary[DataFrame, DataFrame] = weakref.WeakKeyDictionary()


def timeseries_graph(edges: DataFrame) -> DataFrame:
    """Multigraph -> G_T: (src, dst, ts array<double>, fs array<double>).

    Parallel edges between the same pair are merged into a time-sorted
    interaction series; sorting by the (t, f, ...) struct is sorting by t
    since timestamps are unique within a pair. Every column other than
    ``src``/``dst``/``t`` becomes an array aligned with ``ts``, named with
    an ``s`` suffix: ``f`` -> ``fs``, ``fr`` -> ``frs``.

    G_T is the stored form of a cached network: the first call on a cached
    ``edges`` builds G_T in one partition per core (``defaultParallelism``;
    most of the group-by's shuffle partitions would be near-empty) and
    caches it, filled by its first action; every later call returns that
    frame. It is unpersisted when ``edges`` is garbage-collected. An
    uncached ``edges`` (e.g. an ad-hoc or permuted frame) gets G_T built
    inside each query's plan, and nothing is cached. Spark caches by plan,
    so frames with equal plans share one cache entry: freeing the stored
    G_T of one frees it for the other, as unpersisting one frees their
    interactions.
    """
    gt = _STORED_GT.get(edges)
    if gt is not None:
        return gt
    values = [c for c in edges.columns if c not in ("src", "dst", "t")]
    fields = ", ".join(f"`{c}`" for c in ("t", *values))
    # SQL text: one JVM round trip per call (see repro.spark.structural)
    gt = (
        edges.groupBy("src", "dst")
        .agg(F.expr(f"sort_array(collect_list(struct({fields}))) AS tf"))
        .selectExpr(
            "src", "dst", "tf.t AS ts", *[f"tf.`{c}` AS `{c}s`" for c in values]
        )
    )
    if edges.storageLevel.useMemory:
        parts = edges.sparkSession.sparkContext.defaultParallelism
        gt = gt.repartition(parts).cache()
        _STORED_GT[edges] = gt
        weakref.finalize(edges, gt.unpersist).atexit = False
    return gt


def distinct_pairs(edges: DataFrame) -> DataFrame:
    """Connected node pairs — the edge set of G_T (|rows| = Table 3 col 3)."""
    return edges.select("src", "dst").distinct()


def dataset_stats(spark: SparkSession, edges: DataFrame) -> DataFrame:
    """Table 3 statistics as a 1-row DataFrame (n_nodes, n_pairs, n_edges,
    avg_flow), via :data:`STATS_SQL`."""
    edges.createOrReplaceTempView("edges")
    return spark.sql(STATS_SQL)
