"""Motif significance via flow-permuted random graphs (paper § 6.3).

The randomization keeps the graph structure and every timestamp fixed and
permutes the multiset of flow values over the edges, so structural matches
and delta-only instances are identical between the real and random graphs;
only the flow constraint phi discriminates. A motif is significant when the
real instance count exceeds the randomized counts — quantified by the
z-score z_M = (r_M - mu_M) / sigma_M over R random graphs. When every
random count is the same (sigma_M = 0, always so for R = 1), z_M is +inf or
-inf by the sign of r_M - mu_M, and 0 when they are equal.

Maximality (Definition 3.3) does not depend on phi, so the phi-instances of
each of the R + 1 graphs are exactly the phi = 0 maximal instances whose
edge-set flows, under that graph's flows, are all >= phi. :func:`significance`
therefore runs one ``find_instances`` at phi = 0, over the network's own
G_T like every other query, and collects its rows. The driver holds one
(n, R + 1) flow matrix for n interactions, column 0 the real flows and
column r the r-th permutation, with its rows ordered by ``(src, dst, t)`` as
G_T orders each pair's series; each instance's edge-set is then a run of
rows, found by one index lookup per motif edge for all instances, and the
driver left-folds every run over all columns at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.motif import Motif
from repro.core.search import _finite
from repro.spark.graph import check_interactions
from repro.spark.search import find_instances

#: Deterministic row order used to index interactions before permuting.
_ORDER = ["t", "src", "dst"]


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


def permute_flows(edges: DataFrame, seed: int) -> DataFrame:
    """Random graph G_r: same (src, dst, t) skeleton, permuted flows.

    The permutation is drawn on the driver from a seeded NumPy generator
    over the interactions sorted by ``(t, src, dst)``, so the result is
    deterministic regardless of Spark partitioning (F.rand() is not).
    Raises ``ValueError`` when ``edges`` breaks the input contract, e.g. by
    a null, NaN or infinite timestamp (see :func:`significance`).
    """
    pdf = _sorted_interactions(edges)
    pdf["f"] = _permuted_flows(pdf["f"].to_numpy(), [seed])[:, 0]
    schema = edges.select("src", "dst", "t", "f").schema
    return edges.sparkSession.createDataFrame(pdf, schema=schema)


def _run_sums(flows: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Row j is the left fold of ``flows[start[j] : start[j] + length[j]]``
    from 0.0: the same additions, in the same order, as ``Series.range_sum``
    makes on each column. The fold runs over run offsets, adding offset o to
    every run longer than o at once."""
    acc = np.zeros((len(start), flows.shape[1]))
    for o in range(length.max(initial=0)):
        live = length > o
        acc[live] += flows[start[live] + o]
    return acc


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
    ``permute_flows(edges, seed * 1000 + r)``. One ``find_instances`` at
    phi = 0 enumerates the instances of all R + 1 graphs; each edge-set's
    flow in each graph is the left fold of its run of the flow matrix (the
    one flow rule of ``Series.range_sum``), and a graph counts an instance
    when all its edge-set flows are >= ``phi``. Raises ``ValueError``
    unless ``n_random >= 1``, when ``delta`` or ``phi`` is NaN or infinite,
    and when ``edges`` has a duplicate ``(src, dst, t)``, a null, NaN or
    infinite timestamp, or a null, NaN, infinite or non-positive flow.
    """
    if n_random < 1:
        raise ValueError(f"n_random must be >= 1, got {n_random}")
    _finite(delta)
    _finite(phi)
    pdf = _sorted_interactions(edges)
    f = pdf["f"].to_numpy()
    seeds = [seed * 1000 + r for r in range(n_random)]
    by_pair = pdf.sort_values(["src", "dst", "t"])
    flows = np.column_stack([f, _permuted_flows(f, seeds)])[by_pair.index]
    rows = pd.MultiIndex.from_frame(by_pair[["src", "dst", "t"]])
    inst = find_instances(edges, motif, delta, 0.0).toPandas()
    ok = np.ones((len(inst), n_random + 1), dtype=bool)
    for i, (a, b) in enumerate(motif.edges):
        start, end = (
            rows.get_indexer(pd.MultiIndex.from_arrays([inst[f"v{a}"], inst[f"v{b}"], inst[t]]))
            for t in (f"ts{i}", f"te{i}")
        )
        if (start < 0).any() or (end < 0).any():
            raise RuntimeError(
                f"an instance's edge-set {i} is not a run of the collected interactions"
            )
        ok &= _run_sums(flows, start, end - start + 1) >= phi
    totals = ok.sum(axis=0)
    real, counts = int(totals[0]), totals[1:].tolist()
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
