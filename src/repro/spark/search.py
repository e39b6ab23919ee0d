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

import sys
import zipimport
from typing import Callable, Iterable, Iterator, Sequence

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from repro.core import topk
from repro.core.dp import max_flow as dp_max_flow
from repro.core.instances import Series, enumerate_instances
from repro.core.motif import Motif
from repro.core.search import _finite
from repro.spark.graph import timeseries_graph
from repro.spark.structural import instance_schema, sql_double, structural_matches_df

#: One P2 input: a match's vertex binding ``v0..v{n-1}`` and its per-edge
#: series.
_Match = tuple[tuple, list[Series]]

_FLOW_SCHEMA = StructType([StructField("flow", DoubleType())])


def matches_with_series(
    edges: DataFrame, motif: Motif, delta: float | None = None
) -> DataFrame:
    """P1 over G_T: structural matches with every motif edge's series.

    Output columns: ``v0..v{n-1}``, then ``ts{i}``/``fs{i}`` for each motif
    edge i. Without ``delta`` there is one row per structural match; with it,
    matches that cannot hold an instance of duration <= delta are pruned in
    the join chain: the join that adds motif edge i also requires some
    element x of ``ts{i}`` and y of ``ts{i-1}`` with ``x > y`` and
    ``x - y <= delta``. Every instance's last element of edge-set i-1 and
    first of edge-set i form such a pair (DESIGN.md § 2.1), so this drops
    only matches, and partial matches, that hold no instance.
    """
    if delta is None:
        return structural_matches_df(timeseries_graph(edges), motif)
    d = sql_double(delta)
    return structural_matches_df(
        timeseries_graph(edges),
        motif,
        link=lambda i: f"exists(ts{i}, x -> exists(ts{i - 1}, y -> x > y AND x - y <= {d}))",
    )


def parse_match(row: Sequence, motif: Motif) -> _Match:
    """A :func:`matches_with_series` row as ``(binding, series)``: the
    vertices ``v0..v{n-1}`` and each motif edge's :class:`Series`.

    ``row`` is any sequence in that column order (a Spark ``Row`` or a
    plain tuple).
    """
    n = motif.n_nodes
    return tuple(row[:n]), [Series(zip(t, f)) for t, f in zip(row[n::2], row[n + 1 :: 2])]


def drop_zip_finders() -> None:
    """Delete every zip-archive finder from ``sys.path_importer_cache``.

    A PySpark worker calls ``importlib.invalidate_caches()`` at the start of
    every task, and before CPython 3.13 each cached ``zipimporter`` then
    re-reads its whole archive directory: about 0.25 s of CPU a task for the
    pyspark, py4j and Spark jar entries of a worker's ``sys.path``. Deleting
    an entry is the documented way to drop a cached finder; imported modules
    stay in ``sys.modules``, and a later import from an archive rebuilds its
    finder from ``zipimport``'s own directory cache.
    """
    for path, finder in list(sys.path_importer_cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            del sys.path_importer_cache[path]


def p2(
    edges: DataFrame,
    motif: Motif,
    delta: float,
    per_batch: Callable[[Iterator[_Match]], Iterable[tuple]],
    schema: StructType,
) -> DataFrame:
    """The P2 driver: ``per_batch`` maps one Arrow batch's matches to rows.

    The input is :func:`matches_with_series` pruned by ``delta``; each match
    reaches ``per_batch`` once parsed by :func:`parse_match`. Each batch
    first drops its worker's zip finders (:func:`drop_zip_finders`), so the
    worker's next task does not re-read Spark's archives; not before the
    first batch, because fetching it imports modules on a fresh worker,
    which caches those finders again.
    """

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            drop_zip_finders()
            matches = (
                parse_match(row, motif) for row in pdf.itertuples(index=False, name=None)
            )
            yield pd.DataFrame(per_batch(matches), columns=schema.fieldNames())

    return matches_with_series(edges, motif, delta).mapInPandas(kernel, schema=schema)


def find_instances(
    edges: DataFrame, motif: Motif, delta: float, phi: float
) -> DataFrame:
    """All maximal instances of ``motif``: one row per instance, in the
    join baseline's schema (:func:`repro.spark.structural.instance_schema`).
    Raises ``ValueError`` if ``delta`` or ``phi`` is NaN or infinite.
    """
    _finite(phi)

    def per_batch(matches: Iterator[_Match]) -> Iterator[tuple]:
        for binding, series in matches:
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
    """Number of maximal instances in the graph (Figs. 9/10/13/14).
    Raises ``ValueError`` if ``delta`` or ``phi`` is NaN or infinite."""
    _finite(phi)

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
        return [(f,) for f in topk.topk_flows((s for _, s in matches), delta, k)]

    out = p2(edges, motif, delta, per_batch, _FLOW_SCHEMA)
    return sorted((r.flow for r in out.collect()), reverse=True)[:k]


def max_flow(edges: DataFrame, motif: Motif, delta: float) -> float:
    """Top-1 instance flow via the Algorithm 2 DP module (Fig. 12)."""

    def per_batch(matches: Iterator[_Match]) -> list[tuple]:
        return [(max((dp_max_flow(s, delta) for _, s in matches), default=0.0),)]

    out = p2(edges, motif, delta, per_batch, _FLOW_SCHEMA)
    return max((r.flow for r in out.collect()), default=0.0)
