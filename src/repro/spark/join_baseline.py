"""The paper's baseline competitor (§ 6.2.1): progressive interval joins.

Per G_T edge, every time-interval of length <= delta becomes a quintuple
``(src, dst, ts, te, f)`` with the aggregated flow of the interactions it
covers (any contiguous run of a pair's series, identified by its first/last
timestamps). Sub-motif instances are then built up by joining quintuple
tables along the spanning path — head-to-tail connectivity, strict time
order between consecutive motif edges, running duration bound, and the
Definition 3.2 vertex bijection — exactly the paper's merge-join cascade,
expressed as one Catalyst join plan.

The paper's description stops at candidate construction; to produce the
same *maximal* instance set as the two-phase algorithm we attach to each
interval the timestamps of the pair's elements immediately before/after it
(``prev_t``/``next_t``) and apply Definition 3.3 as a final filter
predicate — still pure Catalyst. Tests assert the result set is identical
to ``repro.spark.search.find_instances``; the benchmark (Fig. 8) shows the
intermediate-result blow-up that makes this slower, as in the paper.
"""
from __future__ import annotations

from typing import Iterator

import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from repro.core.motif import Motif
from repro.spark.graph import timeseries_graph
from repro.spark.search import typed_frame
from repro.spark.structural import node_columns

_INTERVAL_SCHEMA = StructType(
    [
        StructField("src", LongType()),
        StructField("dst", LongType()),
        StructField("ts", DoubleType()),
        StructField("te", DoubleType()),
        StructField("f", DoubleType()),
        StructField("prev_t", DoubleType()),  # element just before ts, if any
        StructField("next_t", DoubleType()),  # element just after te, if any
    ]
)


def intervals(edges: DataFrame, delta: float, phi: float) -> DataFrame:
    """All per-pair time-intervals of span <= delta with flow >= phi.

    One row per contiguous run of a pair's interaction series;
    ``prev_t``/``next_t`` carry the neighbouring element timestamps used by
    the final maximality filter (null at the series boundary).
    """
    ts_graph = timeseries_graph(edges)

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            rows: list[tuple] = []
            for row in pdf.itertuples(index=False):
                ts, fs = list(row.ts), list(row.fs)
                n = len(ts)
                for i in range(n):
                    acc = 0.0
                    for j in range(i, n):
                        if ts[j] - ts[i] > delta:
                            break
                        acc += fs[j]
                        if acc >= phi:
                            rows.append(
                                (
                                    int(row.src),
                                    int(row.dst),
                                    float(ts[i]),
                                    float(ts[j]),
                                    float(acc),
                                    float(ts[i - 1]) if i > 0 else None,
                                    float(ts[j + 1]) if j + 1 < n else None,
                                )
                            )
            yield typed_frame(_INTERVAL_SCHEMA, rows)

    return ts_graph.mapInPandas(kernel, schema=_INTERVAL_SCHEMA)


def intervals_sql(delta: float, phi: float, table: str = "edges") -> str:
    """DuckDB-oracle SQL equivalent of :func:`intervals` (without the
    prev/next neighbour columns)."""
    return f"""
    SELECT * FROM (
      SELECT e1.src AS src, e1.dst AS dst, e1.t AS ts, e2.t AS te,
        (SELECT SUM(e3.f) FROM {table} e3
          WHERE e3.src = e1.src AND e3.dst = e1.dst
            AND e3.t >= e1.t AND e3.t <= e2.t) AS f
      FROM {table} e1, {table} e2
      WHERE e1.src = e2.src AND e1.dst = e2.dst
        AND e2.t >= e1.t AND e2.t - e1.t <= {delta}
    ) q WHERE q.f >= {phi}
    """


def _cascade(iv: DataFrame, motif: Motif, delta: float) -> list[DataFrame]:
    """The merge-join cascade over intervals ``iv`` along the spanning path.

    Returns the first motif edge's frame and then the frame after each join
    step; the last one holds the m-edge candidates before the vertex
    bijection filter.
    """
    path = motif.path

    def step(i: int) -> DataFrame:
        cols = [
            F.col("src").alias(f"_u{i}"),
            F.col("dst").alias(f"_w{i}"),
            F.col("ts").alias(f"ts{i}"),
            F.col("te").alias(f"te{i}"),
            F.col("f").alias(f"f{i}"),
            F.col("prev_t").alias(f"prev{i}"),
            F.col("next_t").alias(f"next{i}"),
        ]
        return iv.select(*cols)

    out = step(0).withColumnRenamed("_u0", f"v{path[0]}").withColumnRenamed(
        "_w0", f"v{path[1]}"
    )
    frames = [out]
    bound = {path[0], path[1]}
    for i in range(1, motif.m):
        a, b = path[i], path[i + 1]
        cond: Column = (F.col(f"_u{i}") == F.col(f"v{a}")) & (
            F.col(f"ts{i}") > F.col(f"te{i-1}")  # strict time order
        ) & (
            F.col(f"te{i}") - F.col("ts0") <= F.lit(delta)  # running duration
        )
        out = out.join(step(i), on=cond, how="inner").drop(f"_u{i}")
        if b in bound:
            out = out.filter(F.col(f"_w{i}") == F.col(f"v{b}")).drop(f"_w{i}")
        else:
            out = out.withColumnRenamed(f"_w{i}", f"v{b}")
            bound.add(b)
        frames.append(out)
    return frames


def candidate_instances_join(
    edges: DataFrame, motif: Motif, delta: float, phi: float
) -> DataFrame:
    """The join cascade's raw output *before* the maximality filter.

    These candidate tuples are the "intermediate results" the paper blames
    for the baseline's slowness (every combination of per-edge intervals
    that is structurally, temporally and flow-wise compatible); counting
    them quantifies the blow-up relative to the final maximal instances.
    """
    out = _cascade(intervals(edges, delta, phi), motif, delta)[-1]
    for i in range(motif.n_nodes):
        for j in range(i + 1, motif.n_nodes):
            out = out.filter(F.col(f"v{i}") != F.col(f"v{j}"))
    return out


def join_intermediate_counts(
    edges: DataFrame, motif: Motif, delta: float, phi: float
) -> list[int]:
    """Cardinality of the join cascade after each step (Fig. 8 mechanism).

    ``[#intervals, #2-edge sub-instances, ..., #m-edge candidates]`` — the
    sub-motif instances the paper identifies as the baseline's redundant
    intermediate work ("many ... do not end up as components of any
    instance of the complete motif"). Compare the peak against the final
    maximal-instance count.
    """
    return [f.count() for f in _cascade(intervals(edges, delta, phi), motif, delta)]


def find_instances_join(
    edges: DataFrame, motif: Motif, delta: float, phi: float
) -> DataFrame:
    """Maximal motif instances via the progressive interval-join plan.

    Output: ``v0..v{n-1}``, per-edge ``ts{i}``/``te{i}``/``f{i}``, plus
    ``flow`` (Equation 1), ``t_start``, ``t_end``.
    """
    m = motif.m
    out = candidate_instances_join(edges, motif, delta, phi)

    # Definition 3.3 as a Catalyst predicate: an instance survives iff no
    # edge-set can absorb its neighbouring element. Middle edges are bounded
    # by the adjacent edge-sets; the first/last edge by the duration delta.
    extendable = F.lit(False)
    for i in range(m):
        if i == 0:
            front = F.col(f"te{m-1}") - F.col(f"prev{i}") <= F.lit(delta)
        else:
            front = F.col(f"prev{i}") > F.col(f"te{i-1}")
        if i == m - 1:
            back = F.col(f"next{i}") - F.col("ts0") <= F.lit(delta)
        else:
            back = F.col(f"next{i}") < F.col(f"ts{i+1}")
        extendable = (
            extendable
            | (F.col(f"prev{i}").isNotNull() & front)
            | (F.col(f"next{i}").isNotNull() & back)
        )
    out = out.filter(~extendable)

    flow = F.least(*[F.col(f"f{i}") for i in range(m)])
    keep = node_columns(motif) + [
        c for i in range(m) for c in (f"ts{i}", f"te{i}", f"f{i}")
    ]
    return out.select(
        *keep,
        flow.alias("flow"),
        F.col("ts0").alias("t_start"),
        F.col(f"te{m-1}").alias("t_end"),
    )


def count_instances_join(
    edges: DataFrame, motif: Motif, delta: float, phi: float
) -> int:
    """Instance count via the join baseline (must equal the two-phase count)."""
    return find_instances_join(edges, motif, delta, phi).count()
