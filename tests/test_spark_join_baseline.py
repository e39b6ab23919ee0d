"""Join-baseline competitor: interval oracle + exact equality with two-phase."""
import pytest

from repro.core.motif import MOTIFS
from repro.networks.generators import SPECS
from repro.oracle import assert_equivalent
from repro.spark import search as sp
from repro.spark.join_baseline import (
    candidate_instances_join,
    count_instances_join,
    find_instances_join,
    intervals,
    intervals_sql,
    join_intermediate_counts,
)
from tests.conftest import random_edges, spark_instance_set, to_spark_edges

FIG2_EDGES = [(3, 1, 10.0, 10.0), (1, 2, 13.0, 5.0), (1, 2, 15.0, 7.0), (2, 3, 18.0, 20.0)]

#: ``join_intermediate_counts`` on two fixed graphs, recorded when the counts
#: had their own copy of the join cascade:
#: (random_edges seed, n_edges, delta, phi) -> motif -> counts.
CASCADE_PINS = {
    (6, 35, 12.0, 0.0): {"M(3,2)": [45, 48], "M(3,3)": [45, 48, 5], "M(4,3)": [45, 48, 34]},
    (7, 30, 10.0, 2.0): {"M(3,2)": [31, 26], "M(3,3)": [31, 26, 1], "M(4,3)": [31, 26, 17]},
}


class TestIntervals:
    def test_toy_intervals(self, spark):
        df = intervals(to_spark_edges(spark, FIG2_EDGES), delta=10, phi=0)
        rows = {
            (r.src, r.dst, r.ts, r.te, r.f) for r in df.collect()
        }
        # pair (1,2): single elements + the combined run
        assert (1, 2, 13.0, 13.0, 5.0) in rows
        assert (1, 2, 15.0, 15.0, 7.0) in rows
        assert (1, 2, 13.0, 15.0, 12.0) in rows
        assert (3, 1, 10.0, 10.0, 10.0) in rows
        assert (2, 3, 18.0, 18.0, 20.0) in rows
        assert len(rows) == 5

    def test_phi_filters_intervals(self, spark):
        df = intervals(to_spark_edges(spark, FIG2_EDGES), delta=10, phi=7)
        rows = {(r.src, r.dst, r.ts, r.te) for r in df.collect()}
        # (1,2,15,15) qualifies too: its flow is exactly phi = 7
        assert rows == {
            (1, 2, 13.0, 15.0),
            (1, 2, 15.0, 15.0),
            (3, 1, 10.0, 10.0),
            (2, 3, 18.0, 18.0),
        }

    def test_delta_bounds_interval_span(self, spark):
        df = intervals(to_spark_edges(spark, FIG2_EDGES), delta=1, phi=0)
        assert all(r.te - r.ts <= 1 for r in df.collect())

    @pytest.mark.parametrize("delta,phi", [(10.0, 0.0), (5.0, 3.0), (20.0, 6.0)])
    def test_oracle_toy(self, spark, delta, phi):
        edges = to_spark_edges(spark, FIG2_EDGES)
        got = intervals(edges, delta, phi).select("src", "dst", "ts", "te", "f")
        assert_equivalent(got, intervals_sql(delta, phi), edges=edges)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_oracle_random(self, spark, seed):
        edges = to_spark_edges(spark, random_edges(seed, n_nodes=5, n_edges=30))
        got = intervals(edges, 8.0, 2.0).select("src", "dst", "ts", "te", "f")
        assert_equivalent(got, intervals_sql(8.0, 2.0), edges=edges)

    def test_neighbour_columns(self, spark):
        df = intervals(to_spark_edges(spark, FIG2_EDGES), delta=10, phi=0)
        by_key = {(r.src, r.dst, r.ts, r.te): r for r in df.collect()}
        r = by_key[(1, 2, 15.0, 15.0)]
        assert r.prev_t == 13.0 and r.next_t is None
        r = by_key[(1, 2, 13.0, 13.0)]
        assert r.prev_t is None and r.next_t == 15.0


def reference_intervals(ts, fs, delta, phi):
    """Reference for :func:`intervals` over one pair's time-sorted series:
    every run ``ts[i..j]`` with span <= delta and flow >= phi, as
    ``(ts, te, f, prev_t, next_t)``, with flows summed left to right."""
    n = len(ts)
    out = []
    for i in range(n):
        acc = 0.0
        for j in range(i, n):
            if ts[j] - ts[i] > delta:
                break
            acc += fs[j]
            if acc >= phi:
                prev_t = ts[i - 1] if i > 0 else None
                next_t = ts[j + 1] if j + 1 < n else None
                out.append((ts[i], ts[j], acc, prev_t, next_t))
    return out


class TestExactIntervals:
    """``intervals`` equals the reference loop on every column, unrounded
    (``assert_equivalent`` rounds ``f`` and does not see ``prev_t``/``next_t``)."""

    @pytest.mark.parametrize(
        "scale", [(1.0, 1.0), (2.0, 0.0), (0.5, 2.0)], ids=["x1-x1", "x2-x0", "x0.5-x2"]
    )
    @pytest.mark.parametrize("kind", ["bitcoin", "passenger"])
    def test_equals_reference_loop(self, request, kind, scale):
        edges = request.getfixturevalue(f"{kind}_small")
        spec = SPECS[kind]
        delta, phi = scale[0] * spec.delta_default, scale[1] * spec.phi_default
        expected = []
        pdf = edges.toPandas().sort_values("t")
        for (src, dst), g in pdf.groupby(["src", "dst"]):
            ts, fs = g.t.tolist(), g.f.tolist()
            for row in reference_intervals(ts, fs, delta, phi):
                expected.append((int(src), int(dst)) + row)
        got = [tuple(r) for r in intervals(edges, delta, phi).collect()]
        assert len(expected) > 0
        # (src, dst, ts, te) is unique, so sorting never compares the NULLs
        assert sorted(got) == sorted(expected)

    def test_zero_delta_gives_singletons(self, passenger_small):
        rows = intervals(passenger_small, 0.0, 0.0).collect()
        assert all(r.ts == r.te for r in rows)
        assert len(rows) == passenger_small.count()

    def test_negative_delta_gives_no_rows(self, passenger_small):
        assert intervals(passenger_small, -1.0, 0.0).count() == 0


def join_instance_set(df, motif):
    out = set()
    for row in df.collect():
        match = tuple(int(row[f"v{i}"]) for i in range(motif.n_nodes))
        windows = tuple(
            (row[f"ts{i}"], row[f"te{i}"]) for i in range(motif.m)
        )
        out.add((match, windows, round(row.flow, 6)))
    return out


class TestEqualityWithTwoPhase:
    def test_fig4(self, spark):
        motif = MOTIFS["M(3,3)"]
        edges = to_spark_edges(spark, FIG2_EDGES)
        got = join_instance_set(find_instances_join(edges, motif, 10, 7), motif)
        expected = spark_instance_set(
            sp.find_instances(edges, motif, 10, 7), motif.n_nodes
        )
        assert got == expected == {
            ((3, 1, 2), ((10.0, 10.0), (13.0, 15.0), (18.0, 18.0)), 10.0)
        }

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("name", ["M(3,2)", "M(3,3)"])
    def test_random_graphs(self, spark, seed, name):
        motif = MOTIFS[name]
        edges = to_spark_edges(spark, random_edges(seed, n_nodes=6, n_edges=35, t_max=40))
        delta, phi = 12.0, 3.0
        got = join_instance_set(find_instances_join(edges, motif, delta, phi), motif)
        expected = spark_instance_set(
            sp.find_instances(edges, motif, delta, phi), motif.n_nodes
        )
        assert got == expected

    @pytest.mark.parametrize("name", ["M(4,3)", "M(4,4)C"])
    def test_larger_motifs(self, spark, name):
        motif = MOTIFS[name]
        edges = to_spark_edges(spark, random_edges(42, n_nodes=6, n_edges=45, t_max=30))
        delta, phi = 15.0, 2.0
        got = join_instance_set(find_instances_join(edges, motif, delta, phi), motif)
        expected = spark_instance_set(
            sp.find_instances(edges, motif, delta, phi), motif.n_nodes
        )
        assert got == expected

    @pytest.mark.parametrize("kind", ["passenger", "bitcoin"])
    def test_generated_dataset_count(self, request, kind):
        # bitcoin's flows are 4-dp floats; passenger's are integers
        edges = request.getfixturevalue(f"{kind}_small")
        delta, phi = SPECS[kind].delta_default, SPECS[kind].phi_default
        for name in ("M(3,2)", "M(4,3)"):
            a = count_instances_join(edges, MOTIFS[name], delta, phi)
            b = sp.count_instances(edges, MOTIFS[name], delta, phi)
            assert a == b > 0, name


class TestIntermediateInstrumentation:
    def test_candidates_superset_of_maximal(self, spark):
        from repro.spark.join_baseline import candidate_instances_join

        motif = MOTIFS["M(3,2)"]
        edges = to_spark_edges(spark, random_edges(5, n_nodes=6, n_edges=35))
        n_cand = candidate_instances_join(edges, motif, 12.0, 0.0).count()
        n_final = find_instances_join(edges, motif, 12.0, 0.0).count()
        assert n_cand >= n_final > 0

    def test_join_intermediate_counts_shape(self, spark):
        from repro.spark.join_baseline import join_intermediate_counts

        motif = MOTIFS["M(4,3)"]
        edges = to_spark_edges(spark, random_edges(6, n_nodes=6, n_edges=35))
        counts = join_intermediate_counts(edges, motif, 12.0, 0.0)
        # [#intervals, #2-edge subinstances, #3-edge candidates]
        assert len(counts) == motif.m
        assert counts[0] > 0
        # sub-instances can only shrink or grow via fan-out; all non-negative
        assert all(c >= 0 for c in counts)

    def test_interval_count_matches_intervals_df(self, spark):
        from repro.spark.join_baseline import join_intermediate_counts

        motif = MOTIFS["M(3,2)"]
        edges = to_spark_edges(spark, random_edges(7, n_nodes=6, n_edges=30))
        counts = join_intermediate_counts(edges, motif, 10.0, 2.0)
        assert counts[0] == intervals(edges, 10.0, 2.0).count()

    @pytest.mark.parametrize("name", ["M(3,2)", "M(3,3)", "M(4,3)"])
    @pytest.mark.parametrize("graph", sorted(CASCADE_PINS))
    def test_cascade_counts_pinned(self, spark, graph, name):
        seed, n_edges, delta, phi = graph
        motif = MOTIFS[name]
        edges = to_spark_edges(spark, random_edges(seed, n_nodes=6, n_edges=n_edges))
        counts = join_intermediate_counts(edges, motif, delta, phi)
        assert counts == CASCADE_PINS[graph][name]
        # the bijection filter only removes rows from the last step
        assert candidate_instances_join(edges, motif, delta, phi).count() <= counts[-1]
