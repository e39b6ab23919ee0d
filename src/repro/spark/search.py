"""The distributed two-phase flow-motif search (the paper's § 4 + § 5).

One plan per query, all DataFrame-level until the per-match kernel:

1. **G_T** — ``timeseries_graph``: one row per connected pair carrying its
   interaction series ``ts``/``fs`` (Figure 5). G_T is built once per
   cached network, stored and read by every later query on it (both engines
   share it); an uncached input gets G_T built inside the query's plan.
2. **P1** — ``structural_matches_df`` over G_T: the self-join chain along
   the spanning path, so each match row already carries the series of every
   motif edge. Given delta, each join also drops (partial) matches whose
   consecutive motif edges have no time-ordered pair of interactions within
   delta (DESIGN.md § 2.1); such matches hold no instance.
3. **P2** — one ``mapInPandas`` driver runs the pure-Python per-match kernel
   (Algorithm 1, the top-k heap, or the Algorithm 2 DP) on executor-side
   Arrow batches; counts, top-k flows and max flows come back as per-batch
   aggregates (a few rows, combined on the driver), instances as rows.

The per-match kernel is inherently sequential/recursive, which is why P2 is
a DataFrame -> DataFrame transformation over grouped data rather than a
Catalyst operator (DESIGN.md § 2); everything before and after it is a
plain Catalyst plan.
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from repro.core.dp import max_flow as dp_max_flow
from repro.core.instances import Series, enumerate_instances
from repro.core.motif import Motif
from repro.core.topk import TopKHeap, topk_scan_match
from repro.spark.graph import timeseries_graph
from repro.spark.structural import instance_schema, node_columns, structural_matches_df

#: One P2 input: a match row (column name -> value) and its per-edge series.
_Match = tuple[dict, list[Series]]

_FLOW_SCHEMA = StructType([StructField("flow", DoubleType())])


def matches_with_series(
    edges: DataFrame, motif: Motif, delta: float | None = None
) -> DataFrame:
    """P1 over G_T: structural matches with every motif edge's series.

    Output columns: ``v0..v{n-1}``, then ``ts{i}``/``fs{i}`` (and ``{c}s{i}``
    for any further column ``c`` of ``edges``) for each motif edge i.
    Without ``delta`` there is one row per structural match; with it,
    matches that cannot hold an instance of duration <= delta are pruned in
    the join chain.
    """
    return structural_matches_df(timeseries_graph(edges), motif, delta=delta)


_PD_DTYPES = {
    "long": "int64",
    "integer": "int32",
    "double": "float64",
}


def _typed_frame(schema: StructType, rows: list[tuple]) -> pd.DataFrame:
    """Rows -> pandas frame with the schema's dtypes, for a ``mapInPandas``
    kernel to yield.

    Empty batches must still carry the right dtypes or the Arrow conversion
    back to Spark rejects the (object-typed) empty columns.
    """
    return pd.DataFrame(rows, columns=schema.fieldNames()).astype(
        {f.name: _PD_DTYPES[f.dataType.typeName()] for f in schema.fields}
    )


def match_series(row, m: int) -> list[Series]:
    """A :func:`matches_with_series` row's per-edge :class:`Series`.

    ``row`` is anything indexable by column name (a Spark ``Row`` or a
    dict); ``m`` is the motif's edge count.
    """
    return [Series(zip(row[f"ts{i}"], row[f"fs{i}"])) for i in range(m)]


def p2(
    edges: DataFrame,
    motif: Motif,
    delta: float,
    per_batch: Callable[[Iterator[_Match]], Iterable[tuple]],
    schema: StructType,
) -> DataFrame:
    """The P2 driver: ``per_batch`` maps one Arrow batch's matches to rows.

    The input is :func:`matches_with_series` pruned by ``delta``; each match
    reaches ``per_batch`` as its row and its per-edge :class:`Series` list.
    Any further column of ``edges`` rides along in the row, per motif edge
    (see :func:`repro.spark.graph.timeseries_graph`).
    """
    m = motif.m

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            matches = (
                (rd, match_series(rd, m))
                for rd in (row._asdict() for row in pdf.itertuples(index=False))
            )
            yield _typed_frame(schema, list(per_batch(matches)))

    return matches_with_series(edges, motif, delta).mapInPandas(kernel, schema=schema)


def find_instances(
    edges: DataFrame, motif: Motif, delta: float, phi: float
) -> DataFrame:
    """All maximal instances of ``motif``: one row per instance, in the
    join baseline's schema (:func:`repro.spark.structural.instance_schema`).
    """
    vcols = node_columns(motif)

    def per_batch(matches: Iterator[_Match]) -> Iterator[tuple]:
        for rd, series in matches:
            binding = tuple(rd[c] for c in vcols)
            for inst in enumerate_instances(series, delta, phi):
                edge_sets = tuple(
                    x
                    for r, (s, e), f in zip(series, inst.ranges, inst.flows)
                    for x in (r.ts[s], r.ts[e], f)
                )
                yield binding + edge_sets + (inst.flow, inst.t_start, inst.t_end)

    return p2(edges, motif, delta, per_batch, instance_schema(motif))


def count_instances(
    edges: DataFrame, motif: Motif, delta: float, phi: float
) -> int:
    """Number of maximal instances in the graph (Figs. 9/10/13/14)."""

    def per_batch(matches: Iterator[_Match]) -> list[tuple]:
        return [(sum(len(enumerate_instances(s, delta, phi)) for _, s in matches),)]

    out = p2(
        edges, motif, delta, per_batch, StructType([StructField("n", LongType())])
    )
    return sum(r.n for r in out.collect())


def topk_flows(
    edges: DataFrame, motif: Motif, delta: float, k: int
) -> list[float]:
    """Flows of the global top-k instances, best first (Fig. 11).

    Each executor runs the floating-threshold heap of § 5 (phi = 0 plus the
    k-th-best-so-far prune) over one batch of matches at a time, emitting
    at most k flows per batch; the driver keeps the k best of those
    candidates. Raises ``ValueError`` unless ``k >= 1``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def per_batch(matches: Iterator[_Match]) -> list[tuple]:
        heap = TopKHeap(k)
        for _, series in matches:
            topk_scan_match(series, delta, heap)
        return [(f,) for f in heap.flows()]

    out = p2(edges, motif, delta, per_batch, _FLOW_SCHEMA)
    return sorted((r.flow for r in out.collect()), reverse=True)[:k]


def max_flow(edges: DataFrame, motif: Motif, delta: float) -> float:
    """Top-1 instance flow via the Algorithm 2 DP module (Fig. 12)."""

    def per_batch(matches: Iterator[_Match]) -> list[tuple]:
        return [(max((dp_max_flow(s, delta) for _, s in matches), default=0.0),)]

    out = p2(edges, motif, delta, per_batch, _FLOW_SCHEMA)
    return max((r.flow for r in out.collect()), default=0.0)
