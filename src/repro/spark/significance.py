"""Motif significance via flow-permuted random graphs (paper § 6.3).

The randomization keeps the graph structure and every timestamp fixed and
permutes the multiset of flow values over the edges, so structural matches
and delta-only instances are identical between the real and random graphs;
only the flow constraint phi discriminates. A motif is significant when the
real instance count exceeds the randomized counts — quantified by the
z-score z_M = (r_M - mu_M) / sigma_M over R random graphs. When every
random count is the same (sigma_M = 0, always so for R = 1), z_M is +inf or
-inf by the sign of r_M - mu_M, and 0 when they are equal.

Because only flows change, the R + 1 graphs share G_T, the delta-pruned
P1 matches and every delta-window, and :func:`significance` runs one plan
for all of them: P1 over the network's own G_T (the stored one of a cached
network, see :func:`repro.spark.graph.timeseries_graph`), so a
significance query reads the same G_T as every other query. The driver
collects the interactions once, checks the input contract on them and
draws the R seeded permutations into one matrix (row i: the R permuted
flows of interaction i), whose rows it orders by connected pair and time,
as G_T orders each pair's series. That matrix and each pair's row range
ship with the P2 kernel, which counts every match R + 1 times (real flows
``fs``, then column r of each motif edge's rows). The driver holds
O(n * (R + 1)) flows for n interactions, as many doubles as the R permuted
edge lists it replaces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import IntegerType, LongType, StructField, StructType

from repro.core.instances import Series, enumerate_instances
from repro.core.motif import Motif
from repro.spark.graph import check_interactions
from repro.spark.search import p2

#: Deterministic row order used to index interactions before permuting.
_ORDER = ["t", "src", "dst"]

_COUNTS_SCHEMA = StructType(
    [StructField("r", IntegerType()), StructField("n", LongType())]
)


def _sorted_interactions(edges: DataFrame) -> pd.DataFrame:
    """``edges`` on the driver, checked by
    :func:`repro.spark.graph.check_interactions` (a duplicate ``(src, dst,
    t)`` would also make the permutation order ambiguous) and sorted by
    ``(t, src, dst)``."""
    pdf = check_interactions(edges.select("src", "dst", "t", "f").toPandas())
    return pdf.sort_values(_ORDER, ignore_index=True)


def _permuted_flows(f: np.ndarray, seeds: Sequence[int]) -> np.ndarray:
    """Column j holds ``f`` permuted by ``default_rng(seeds[j])``: entry i
    is the flow of interaction ``perm[i]`` in the same order as ``f``."""
    n = len(f)
    return np.column_stack(
        [f[np.random.default_rng(s).permutation(n)] for s in seeds]
    )


def _flows_by_pair(
    pdf: pd.DataFrame, fr: np.ndarray
) -> tuple[np.ndarray, dict[tuple[int, int], tuple[int, int]]]:
    """``fr`` (one row per interaction of ``pdf``) with its rows ordered by
    ``(src, dst, t)``, and each connected pair's ``(start, stop)`` rows in
    it: a pair's rows follow its series in G_T, which is sorted by ``t``."""
    src, dst = pdf["src"].to_numpy(), pdf["dst"].to_numpy()
    order = np.lexsort((pdf["t"].to_numpy(), dst, src))
    src, dst = src[order], dst[order]
    starts = np.flatnonzero(np.r_[True, (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])])
    stops = np.r_[starts[1:], len(order)]
    rows = {
        (int(src[a]), int(dst[a])): (int(a), int(b)) for a, b in zip(starts, stops)
    }
    return fr[order], rows


def permute_flows(edges: DataFrame, seed: int) -> DataFrame:
    """Random graph G_r: same (src, dst, t) skeleton, permuted flows.

    The permutation is drawn on the driver from a seeded NumPy generator
    over the interactions sorted by ``(t, src, dst)``, so the result is
    deterministic regardless of Spark partitioning (F.rand() is not).
    Raises ``ValueError`` when ``edges`` breaks the input contract (see
    :func:`significance`).
    """
    pdf = _sorted_interactions(edges)
    pdf["f"] = _permuted_flows(pdf["f"].to_numpy(), [seed])[:, 0]
    schema = edges.select("src", "dst", "t", "f").schema
    return edges.sparkSession.createDataFrame(pdf, schema=schema)


@dataclass(frozen=True)
class SignificanceResult:
    """Fig. 14 cell for one (dataset, motif) pair."""

    motif: str
    real_count: int
    random_counts: tuple[int, ...]
    mean: float
    std: float
    z_score: float
    p_empirical: float  # fraction of random graphs with count >= real


def significance(
    edges: DataFrame,
    motif: Motif,
    delta: float,
    phi: float,
    *,
    n_random: int = 20,
    seed: int = 0,
) -> SignificanceResult:
    """Real vs randomized instance counts and the z-score for one motif.

    Random graph r (0 <= r < ``n_random``; the paper uses 20) is
    ``permute_flows(edges, seed * 1000 + r)``, and all of them are counted
    in one plan with the real graph. Raises ``ValueError`` unless
    ``n_random >= 1``, and when ``edges`` has a duplicate ``(src, dst, t)``
    or a null, NaN, infinite or non-positive flow.
    """
    if n_random < 1:
        raise ValueError(f"n_random must be >= 1, got {n_random}")
    pdf = _sorted_interactions(edges)
    seeds = [seed * 1000 + r for r in range(n_random)]
    fr, rows = _flows_by_pair(pdf, _permuted_flows(pdf["f"].to_numpy(), seeds))
    m = motif.m
    ends = [(f"v{a}", f"v{b}") for a, b in motif.edges]

    def per_batch(matches: Iterator[tuple[dict, list[Series]]]) -> list[tuple]:
        counts = [0] * (n_random + 1)
        for rd, series in matches:
            counts[0] += len(enumerate_instances(series, delta, phi))
            ts = [rd[f"ts{i}"] for i in range(m)]
            frs = [fr[slice(*rows[rd[a], rd[b]])] for a, b in ends]
            for r in range(n_random):
                permuted = [Series(zip(t, f[:, r])) for t, f in zip(ts, frs)]
                counts[r + 1] += len(enumerate_instances(permuted, delta, phi))
        return list(enumerate(counts))

    totals = [0] * (n_random + 1)
    for r, n in p2(edges, motif, delta, per_batch, _COUNTS_SCHEMA).collect():
        totals[r] += n
    real, counts = totals[0], totals[1:]
    mu = float(np.mean(counts))
    sigma = float(np.std(counts))
    if sigma > 0:
        z = (real - mu) / sigma
    else:
        z = math.copysign(math.inf, real - mu) if real != mu else 0.0
    p = sum(c >= real for c in counts) / len(counts)
    return SignificanceResult(
        motif=motif.name,
        real_count=real,
        random_counts=tuple(counts),
        mean=mu,
        std=sigma,
        z_score=z,
        p_empirical=p,
    )
