"""Interaction multigraph as Spark DataFrames: G(V, E) and G_T(V, E_T).

The input multigraph is a DataFrame with columns ``src``/``dst`` (long),
``t`` (double) and ``f`` (double) — one row per interaction. The
*time-series graph* G_T merges parallel edges into one row per connected
pair carrying the interaction series as two aligned, time-sorted arrays
``ts``/``fs`` (paper § 4, Figure 5). Table 3's dataset statistics are
computed here as a plain Spark SQL aggregate so the DuckDB oracle can check
them verbatim.
"""
from __future__ import annotations

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


def timeseries_graph(edges: DataFrame) -> DataFrame:
    """Multigraph -> G_T: (src, dst, ts array<double>, fs array<double>).

    Parallel edges between the same pair are merged into a time-sorted
    interaction series; sorting by the (t, f, ...) struct is sorting by t
    since timestamps are unique within a pair. Every column other than
    ``src``/``dst``/``t`` becomes an array aligned with ``ts``, named with
    an ``s`` suffix: ``f`` -> ``fs``, and e.g. the permuted flows ``fr`` of
    :mod:`repro.spark.significance` -> ``frs``.
    """
    values = [c for c in edges.columns if c not in ("src", "dst", "t")]
    fields = ", ".join(f"`{c}`" for c in ("t", *values))
    # SQL text: one JVM round trip per call (see repro.spark.structural)
    return (
        edges.groupBy("src", "dst")
        .agg(F.expr(f"sort_array(collect_list(struct({fields}))) AS tf"))
        .selectExpr(
            "src", "dst", "tf.t AS ts", *[f"tf.`{c}` AS `{c}s`" for c in values]
        )
    )


def distinct_pairs(edges: DataFrame) -> DataFrame:
    """Connected node pairs — the edge set of G_T (|rows| = Table 3 col 3)."""
    return edges.select("src", "dst").distinct()


def dataset_stats(spark: SparkSession, edges: DataFrame) -> DataFrame:
    """Table 3 statistics as a 1-row DataFrame (n_nodes, n_pairs, n_edges,
    avg_flow), via :data:`STATS_SQL`."""
    edges.createOrReplaceTempView("edges")
    return spark.sql(STATS_SQL)
