"""Motif significance via flow-permuted random graphs (paper § 6.3).

The randomization keeps the graph structure and every timestamp fixed and
permutes the multiset of flow values over the edges, so structural matches
and delta-only instances are identical between the real and random graphs;
only the flow constraint phi discriminates. A motif is significant when the
real instance count exceeds the randomized counts — quantified by the
z-score z_M = (r_M - mu_M) / sigma_M over R random graphs. When every
random count is the same (sigma_M = 0, always so for R = 1), z_M is +inf or
-inf by the sign of r_M - mu_M, and 0 when they are equal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.motif import Motif
from repro.spark.search import count_instances

#: Deterministic row order used to index interactions before permuting.
_ORDER = ("t", "src", "dst")


def permute_flows(edges: DataFrame, seed: int) -> DataFrame:
    """Random graph G_r: same (src, dst, t) skeleton, permuted flows.

    The permutation is drawn on the driver from a seeded NumPy generator
    and applied via a rid -> rid join, so the result is deterministic
    regardless of Spark partitioning (F.rand() is not).
    """
    n = edges.count()
    perm = np.random.default_rng(seed).permutation(n)
    spark = edges.sparkSession
    mapping = spark.createDataFrame(
        pd.DataFrame(
            {"rid": np.arange(1, n + 1, dtype=np.int64),
             "take_rid": (perm + 1).astype(np.int64)}
        )
    )
    w = Window.orderBy(*_ORDER)
    with_rid = edges.withColumn("rid", F.row_number().over(w))
    flows = with_rid.select(F.col("rid").alias("take_rid"), F.col("f").alias("f_new"))
    return (
        with_rid.drop("f")
        .join(mapping, on="rid")
        .join(flows, on="take_rid")
        .select("src", "dst", "t", F.col("f_new").alias("f"))
    )


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
    n_random: int = 5,
    seed: int = 0,
) -> SignificanceResult:
    """Real vs randomized instance counts and the z-score for one motif.

    The paper uses 20 random graphs; ``n_random`` defaults to 5 for
    runtime (EXPERIMENTS.md reports which value each run used). Raises
    ``ValueError`` unless ``n_random >= 1``.
    """
    if n_random < 1:
        raise ValueError(f"n_random must be >= 1, got {n_random}")
    real = count_instances(edges, motif, delta, phi)
    counts = []
    for r in range(n_random):
        g_r = permute_flows(edges, seed=seed * 1000 + r)
        counts.append(count_instances(g_r, motif, delta, phi))
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
