"""Interaction networks as Spark DataFrames (DESIGN.md § 3).

The paper's Bitcoin / Facebook / Passenger networks are replaced by the
synthetic generators in :mod:`repro.networks.generators`; this loader
exposes them with schema (src long, dst long, t double, f double) — the
input multigraph G(V, E) of the paper.
"""
from pyspark.sql import DataFrame, SparkSession

from repro.networks.generators import generate


def interactions(
    spark: SparkSession, kind: str, *, sf: float = 1.0, seed: int = 0
) -> DataFrame:
    """Interaction multigraph as a Spark DataFrame (src, dst, t, f)."""
    return spark.createDataFrame(generate(kind, sf=sf, seed=seed))
