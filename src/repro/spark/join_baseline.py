"""The paper's baseline competitor (§ 6.2.1): progressive interval joins.

Per G_T edge, every time-interval of length <= delta becomes a quintuple
``(src, dst, ts, te, f)`` with the aggregated flow of the interactions it
covers (any contiguous run of a pair's series, identified by its first/last
timestamps). The paper's merge-join cascade joins quintuple tables along
the spanning path: here it is P1's join chain over the quintuple table
(:func:`repro.spark.structural.structural_matches_df`), whose step condition
is strict time order and the running duration bound.

The quintuples are one Catalyst projection over G_T built from SQL array
functions (:func:`intervals`); no Python runs on the executors. For the
element at position i with timestamp a, the interval ends j are the
positions j >= i with ``ts[j] - a <= delta``. Those form a contiguous run
starting at i (a prefix of ``ts[i:]``): ``ts`` is sorted and IEEE
subtraction rounds monotonically, so ``ts[j] - a`` never decreases in j
(DESIGN.md § 2.1). Each interval's flow is ``aggregate`` over
``fs[i..j]`` from left to right: the one flow rule (DESIGN.md § 2.2), so
``f`` and the ``f >= phi`` test match Algorithm 1 and the brute force bit
for bit.

The paper's description stops at candidate construction; to produce the
same *maximal* instance set as the two-phase algorithm each interval
carries the timestamps of the pair's elements immediately before/after it
(``prev_t``/``next_t``), and Definition 3.3 is a final filter predicate —
still pure Catalyst. Tests assert the rows are identical to
``repro.spark.search.find_instances``'s; the benchmark (Fig. 8) shows the
intermediate-result blow-up that makes this slower, as in the paper.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core.motif import Motif
from repro.spark.graph import timeseries_graph
from repro.spark.structural import instance_schema, sql_double, structural_matches_df


def intervals(edges: DataFrame, delta: float, phi: float) -> DataFrame:
    """All per-pair time-intervals of span <= delta with flow >= phi.

    One row per contiguous run of a pair's interaction series:
    ``src, dst, ts, te, f, prev_t, next_t``, where ``prev_t``/``next_t``
    carry the neighbouring element timestamps used by the final maximality
    filter (null at the series boundary).
    """
    d = sql_double(delta)
    return (
        timeseries_graph(edges)
        .selectExpr("src", "dst", "ts", "fs", "posexplode(ts) AS (i, a)")
        .selectExpr(
            "*",
            f"explode(filter(sequence(i, size(ts) - 1), k -> ts[k] - a <= {d})) AS j",
        )
        .selectExpr(
            "src",
            "dst",
            "a AS ts",
            "ts[j] AS te",
            "aggregate(slice(fs, i + 1, j - i + 1), 0D, (s, x) -> s + x) AS f",
            "get(ts, i - 1) AS prev_t",
            "get(ts, j + 1) AS next_t",
        )
        .filter(f"f >= {sql_double(phi)}")
    )


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


def candidate_instances_join(
    edges: DataFrame, motif: Motif, delta: float, phi: float
) -> DataFrame:
    """The join cascade's raw output *before* the maximality filter.

    These candidate tuples are the "intermediate results" the paper blames
    for the baseline's slowness (every combination of per-edge intervals
    that is structurally, temporally and flow-wise compatible); counting
    them quantifies the blow-up relative to the final maximal instances.
    """
    d = sql_double(delta)
    return structural_matches_df(
        intervals(edges, delta, phi),
        motif,
        link=lambda i: f"ts{i} > te{i - 1} AND te{i} - ts0 <= {d}",
    )


def join_intermediate_counts(
    edges: DataFrame, motif: Motif, delta: float, phi: float
) -> list[int]:
    """Cardinality of the join cascade after each step (Fig. 8 mechanism).

    ``[#intervals, #2-edge sub-instances, ..., #m-edge candidates]``: step i
    counts the candidates of the motif's first i + 1 edges, the sub-motif
    instances the paper identifies as the baseline's redundant intermediate
    work ("many ... do not end up as components of any instance of the
    complete motif"). Compare the peak against the final maximal-instance
    count.
    """
    return [
        candidate_instances_join(
            edges, Motif(motif.name, motif.path[: i + 2]), delta, phi
        ).count()
        for i in range(motif.m)
    ]


def find_instances_join(
    edges: DataFrame, motif: Motif, delta: float, phi: float
) -> DataFrame:
    """Maximal motif instances via the progressive interval-join plan, in
    the two-phase search's schema
    (:func:`repro.spark.structural.instance_schema`).
    """
    m = motif.m
    out = candidate_instances_join(edges, motif, delta, phi)

    # Definition 3.3 as a Catalyst predicate: an instance survives iff no
    # edge-set can absorb its neighbouring element. Middle edges are bounded
    # by the adjacent edge-sets; the first/last edge by the duration delta.
    d = sql_double(delta)
    extendable = []
    for i in range(m):
        front = f"te{m - 1} - prev_t{i} <= {d}" if i == 0 else f"prev_t{i} > te{i - 1}"
        back = f"next_t{i} - ts0 <= {d}" if i == m - 1 else f"next_t{i} < ts{i + 1}"
        extendable += [
            f"(prev_t{i} IS NOT NULL AND {front})",
            f"(next_t{i} IS NOT NULL AND {back})",
        ]
    out = out.filter(f"NOT ({' OR '.join(extendable)})")

    derived = {
        # least() needs two or more arguments; a single-edge motif has one
        "flow": f"array_min(array({', '.join(f'f{i}' for i in range(m))})) AS flow",
        "t_start": "ts0 AS t_start",
        "t_end": f"te{m - 1} AS t_end",
    }
    return out.selectExpr(
        *[derived.get(c, c) for c in instance_schema(motif).fieldNames()]
    )


def count_instances_join(
    edges: DataFrame, motif: Motif, delta: float, phi: float
) -> int:
    """Instance count via the join baseline (must equal the two-phase count)."""
    return find_instances_join(edges, motif, delta, phi).count()
