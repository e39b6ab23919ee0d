"""Shared fixtures/helpers for the Spark-level tests.

The session-scoped ``spark`` fixture comes from the repo-root conftest.
Here we add small deterministic interaction graphs (hand-built and
generator-sampled) and the one instance-row comparison between the two
Spark engines and the pure-Python reference.
"""
import random

import pandas as pd
import pytest

from repro.core.motif import Motif
from repro.core.search import Edge, search_graph

SCHEMA = "src long, dst long, t double, f double"


def to_spark_edges(spark, edges: list[Edge]):
    """Edge list -> Spark DataFrame with the interaction schema."""
    pdf = pd.DataFrame(edges, columns=["src", "dst", "t", "f"]).astype(
        {"src": "int64", "dst": "int64", "t": "float64", "f": "float64"}
    )
    return spark.createDataFrame(pdf, schema=SCHEMA)


def random_edges(seed: int, n_nodes: int = 8, n_edges: int = 40,
                 t_max: float = 50.0) -> list[Edge]:
    """Small random multigraph with unique timestamps and int node ids."""
    rng = random.Random(seed)
    ts = rng.sample(range(int(t_max * 10)), n_edges)
    out: list[Edge] = []
    for t in ts:
        u, v = rng.sample(range(n_nodes), 2)
        out.append((u, v, t / 10.0, float(rng.randint(1, 9))))
    return sorted(out, key=lambda e: e[2])


def py_instance_rows(edges: list[Edge], motif: Motif, delta: float, phi: float):
    """The pure-Python reference in the Spark engines' instance schema
    (``repro.spark.structural.instance_schema``), as sorted tuples."""
    from repro.core.search import build_series
    from repro.core.structural import match_edge_pairs

    series_map = build_series(edges)
    rows = []
    for match, inst in search_graph(edges, motif, delta, phi):
        row = tuple(match)
        for pair, (s, e) in zip(match_edge_pairs(motif, match), inst.ranges):
            r = series_map[pair]
            row += (r.ts[s], r.ts[e], r.range_sum(s, e))
        rows.append(row + (inst.flow, inst.t_start, inst.t_end))
    return sorted(rows)


def instance_rows(df):
    """A ``find_instances`` or ``find_instances_join`` frame's rows as sorted
    tuples, compared exactly: no rounding, no parsing."""
    return sorted(tuple(r) for r in df.collect())


@pytest.fixture(scope="session")
def bitcoin_small(spark):
    from repro import experiments

    return experiments.load(spark, "bitcoin", sf=0.15, seed=0)


@pytest.fixture(scope="session")
def passenger_small(spark):
    from repro import experiments

    return experiments.load(spark, "passenger", sf=0.5, seed=0)
