"""Phase P1 as a Catalyst join plan: vs the DFS reference and the DuckDB oracle."""
import pandas as pd
import pytest

from repro.core.motif import MOTIF_ORDER, MOTIFS
from repro.core.structural import structural_matches
from repro.oracle import assert_equivalent
from repro.spark.graph import distinct_pairs
from repro.spark.structural import (
    matches_sql,
    node_columns,
    sql_double,
    structural_matches_df,
)
from tests.conftest import random_edges, to_spark_edges

PAIRS = [
    (0, 1),
    (1, 2),
    (2, 0),
    (2, 3),
    (3, 4),
    (3, 0),
]


def pairs_df(spark, pairs):
    pdf = pd.DataFrame(pairs, columns=["src", "dst"]).astype("int64")
    return spark.createDataFrame(pdf, schema="src long, dst long")


def spark_match_set(df, motif):
    return {
        tuple(int(r[c]) for c in node_columns(motif)) for r in df.collect()
    }


class TestAgainstDFSReference:
    @pytest.mark.parametrize("name", MOTIF_ORDER)
    def test_toy_graph_all_motifs(self, spark, name):
        motif = MOTIFS[name]
        got = spark_match_set(
            structural_matches_df(pairs_df(spark, PAIRS), motif), motif
        )
        assert got == set(structural_matches(PAIRS, motif))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", ["M(3,2)", "M(3,3)", "M(4,4)B", "M(5,4)"])
    def test_random_graphs(self, spark, seed, name):
        motif = MOTIFS[name]
        edges = random_edges(seed, n_nodes=7, n_edges=30)
        pairs = sorted({(u, v) for u, v, _, _ in edges})
        got = spark_match_set(
            structural_matches_df(pairs_df(spark, pairs), motif), motif
        )
        assert got == set(structural_matches(pairs, motif))

    def test_generated_dataset(self, passenger_small):
        motif = MOTIFS["M(3,3)"]
        pairs_sp = distinct_pairs(passenger_small)
        got = spark_match_set(structural_matches_df(pairs_sp, motif), motif)
        pairs = {(r.src, r.dst) for r in pairs_sp.collect()}
        assert got == set(structural_matches(pairs, motif))


class TestAgainstDuckDBOracle:
    @pytest.mark.parametrize("name", ["M(3,2)", "M(3,3)", "M(4,3)", "M(4,4)A", "M(4,4)C", "M(5,5)B"])
    def test_join_plan_oracle(self, spark, name):
        motif = MOTIFS[name]
        df = pairs_df(spark, PAIRS)
        assert_equivalent(
            structural_matches_df(df, motif),
            matches_sql(motif, table="pairs"),
            pairs=df,
        )

    @pytest.mark.parametrize("seed", [11, 12])
    def test_join_plan_oracle_random(self, spark, seed):
        motif = MOTIFS["M(4,4)B"]
        edges = random_edges(seed, n_nodes=6, n_edges=25)
        pairs = sorted({(u, v) for u, v, _, _ in edges})
        df = pairs_df(spark, pairs)
        assert_equivalent(
            structural_matches_df(df, motif),
            matches_sql(motif, table="pairs"),
            pairs=df,
        )


class TestCountsAndShape:
    def test_count_matches(self, spark):
        df = pairs_df(spark, PAIRS)
        # triangle rotations
        assert structural_matches_df(df, MOTIFS["M(3,3)"]).count() == 3

    def test_empty_graph(self, spark):
        df = pairs_df(spark, [])
        assert structural_matches_df(df, MOTIFS["M(3,2)"]).count() == 0

    def test_complex_motifs_have_fewer_matches(self, passenger_small):
        """Table 4's qualitative shape: match counts shrink as the motif
        grows (within the same family chain -> longer chain)."""
        pairs = distinct_pairs(passenger_small)
        c32 = structural_matches_df(pairs, MOTIFS["M(3,2)"]).count()
        c43 = structural_matches_df(pairs, MOTIFS["M(4,3)"]).count()
        assert c32 > 0
        # longer chains require distinct extra vertices, so (on our sparse
        # sample) they cannot outnumber short ones by much; the paper's
        # Table 4 shows them strictly decreasing
        assert c43 < c32 * 10


def test_sql_double_reads_back_as_the_same_double(spark):
    xs = [0.30000000000000004, 5e-324, 1e-05, 1.7976931348623157e308, -1.0, 600.0]
    df = spark.range(1).selectExpr(*[f"{sql_double(x)} AS c{i}" for i, x in enumerate(xs)])
    assert {f.dataType.typeName() for f in df.schema} == {"double"}
    assert tuple(df.first()) == tuple(xs)
