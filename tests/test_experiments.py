"""Experiment harness tests: structure and shape of each table/figure frame,
and the harness counts pinned to the pure-Python reference.

Run at a small scale factor; the full-scale numbers live in EXPERIMENTS.md
(regenerated by ``jobs/run_experiments.py``).
"""
import pandas as pd
import pytest

from repro import experiments as ex
from repro.core.motif import MOTIFS
from repro.core.search import count_graph
from repro.core.structural import structural_matches
from repro.networks.generators import SPECS, generate
from repro.spark import search as sp

SF = 0.15


def _edges(kind):
    """The network the harness loads for ``kind``, as an edge list."""
    return list(generate(kind, sf=SF, seed=0).itertuples(index=False, name=None))


class TestLoad:
    """``load`` checks the input contract before any Spark work."""

    @pytest.mark.parametrize(
        "broken, match",
        [
            (lambda pdf: pd.concat([pdf, pdf.head(1)]), r"share a \(src, dst, t\)"),
            (lambda pdf: pdf.assign(f=pdf.f.where(pdf.index != 3, 0.0)), "non-positive"),
            (lambda pdf: pdf.assign(f=pdf.f.where(pdf.index != 3)), "null, NaN"),
            (lambda pdf: pdf.assign(t=pdf.t.where(pdf.index != 3)), "infinite timestamp"),
            (
                lambda pdf: pdf.assign(t=pdf.t.where(pdf.index != 3, float("inf"))),
                "infinite timestamp",
            ),
        ],
        ids=["duplicate", "zero-flow", "null-flow", "nan-time", "inf-time"],
    )
    def test_rejects_broken_input(self, spark, monkeypatch, broken, match):
        monkeypatch.setattr(
            ex, "generate", lambda kind, sf, seed: broken(generate(kind, sf=sf, seed=seed))
        )
        with pytest.raises(ValueError, match=match):
            ex.load(spark, "passenger", sf=SF, seed=901)
        assert ("passenger", SF, 901) not in ex._LOAD_CACHE

    def test_cache_filled_before_return(self, spark):
        """The first timed query on a network must not also fill its caches:
        the interactions and the stored G_T."""
        def cached_rdds():
            return len(spark.sparkContext._jsc.sc().getRDDStorageInfo())

        before = cached_rdds()
        edges = ex.load(spark, "passenger", sf=SF, seed=902)
        assert cached_rdds() == before + 2
        spec = SPECS["passenger"]
        delta, phi = spec.delta_default, spec.phi_default
        sp.count_instances(edges, MOTIFS["M(3,2)"], delta, phi)
        assert cached_rdds() == before + 2


class TestTable3:
    def test_columns_and_rows(self, spark):
        df = ex.table3(spark, sf=SF)
        assert list(df.dataset) == ["bitcoin", "facebook", "passenger"]
        for col in ("n_nodes", "n_pairs", "n_edges", "avg_flow",
                    "paper_n_nodes", "paper_avg_flow"):
            assert col in df.columns

    def test_avg_flow_tracks_paper(self, spark):
        df = ex.table3(spark, sf=SF)
        for _, row in df.iterrows():
            assert row.avg_flow == pytest.approx(row.paper_avg_flow, rel=0.3)


class TestTable4:
    def test_matches_and_paper_cells(self, spark):
        df = ex.table4(spark, sf=SF, motifs=["M(3,2)", "M(3,3)"])
        assert len(df) == 6  # 3 datasets x 2 motifs
        assert (df.p1_seconds > 0).all()
        assert (df.paper_matches > 0).all()

    def test_chains_have_more_matches_than_cycles(self, spark):
        """Table 4 shape: M(3,2) has more structural matches than M(3,3)."""
        df = ex.table4(spark, sf=SF, motifs=["M(3,2)", "M(3,3)"])
        wide = df.pivot(index="dataset", columns="motif", values="matches")
        assert (wide["M(3,2)"] >= wide["M(3,3)"]).all()


    def test_matches_equal_reference(self, spark):
        df = ex.table4(spark, sf=SF, motifs=["M(3,2)", "M(3,3)"])
        for _, row in df.iterrows():
            pairs = {(u, v) for u, v, _, _ in _edges(row.dataset)}
            assert row.matches == len(structural_matches(pairs, MOTIFS[row.motif]))


@pytest.fixture(scope="module")
def fig8_df(spark):
    """One fig8 run shared by the count and the intermediate-size checks."""
    return ex.fig8(spark, sf=SF, motifs=["M(3,2)"])


@pytest.fixture(scope="module")
def fig12_df(spark):
    """One fig12 run shared by the flow and the kernel-timing checks."""
    return ex.fig12(spark, sf=SF, motifs=["M(3,2)"])


@pytest.fixture(scope="module")
def fig13_df(spark):
    """One fig13 run shared by the growth and the reference checks."""
    return ex.fig13_scalability(spark, sf=SF, fractions=(0.5, 1.0))


class TestFig8:
    def test_counts_agree_between_algorithms(self, fig8_df):
        df = fig8_df
        assert (df.instances == df.instances_join).all()
        assert (df.twophase_seconds > 0).all() and (df.join_seconds > 0).all()


class TestFig8Intermediates:
    def test_redundancy_reported(self, fig8_df):
        df = fig8_df
        assert (df.peak_intermediate >= df.instances).all()
        assert "redundancy" in df.columns


class TestFig9And10:
    def test_delta_sweep_monotone_instances(self, spark):
        df = ex.fig9_delta(spark, sf=SF, motifs=["M(3,2)"],
                           delta_factors=(0.5, 2.0))
        for kind, grp in df.groupby("dataset"):
            grp = grp.sort_values("delta")
            assert grp.instances.iloc[-1] >= grp.instances.iloc[0]

    def test_phi_sweep_monotone_instances(self, spark):
        df = ex.fig10_phi(spark, sf=SF, motifs=["M(3,2)"],
                          phi_factors=(0.0, 1.0, 2.0))
        for kind, grp in df.groupby("dataset"):
            grp = grp.sort_values("phi")
            inst = list(grp.instances)
            assert inst == sorted(inst, reverse=True)


    @pytest.mark.parametrize(
        "harness, swept, factors",
        [(ex.fig9_delta, "delta", (0.5, 2.0)), (ex.fig10_phi, "phi", (0.0, 1.0, 2.0))],
        ids=["fig9_delta", "fig10_phi"],
    )
    def test_sweep_matches_reference(self, spark, harness, swept, factors):
        """Each row counts the instances at its own (delta, phi); only the
        swept parameter moves off its default."""
        df = harness(spark, sf=SF, motifs=["M(3,2)", "M(3,3)"],
                     **{f"{swept}_factors": factors})
        assert len(df) == 3 * 2 * len(factors)
        fixed = "phi" if swept == "delta" else "delta"
        for (kind, name), grp in df.groupby(["dataset", "motif"]):
            default = dict(delta=SPECS[kind].delta_default, phi=SPECS[kind].phi_default)
            assert list(grp[swept]) == [default[swept] * fac for fac in factors]
            assert (grp[fixed] == default[fixed]).all()
            edges = _edges(kind)
            for _, row in grp.iterrows():
                assert row.instances == count_graph(
                    edges, MOTIFS[name], row.delta, row.phi
                )


class TestFig11And12:
    def test_kth_flow_non_increasing(self, spark):
        df = ex.fig11_topk(spark, sf=SF, ks=(1, 5, 20))
        for kind, grp in df.groupby("dataset"):
            flows = [f for f in grp.sort_values("k").kth_flow if f is not None]
            assert flows == sorted(flows, reverse=True)

    def test_dp_agrees_with_heap_top1(self, fig12_df):
        for _, row in fig12_df.iterrows():
            assert row.dp_flow == pytest.approx(row.top1_flow)


class TestFig12Kernel:
    def test_kernels_agree_on_top1(self, fig12_df):
        df = fig12_df
        for _, row in df.iterrows():
            assert row.dp_flow == pytest.approx(row.top1_flow)
        assert (df.heap_kernel_seconds > 0).all()
        assert (df.dp_kernel_seconds > 0).all()

    def test_kernels_see_the_pruned_matches(self, spark, fig12_df):
        """The kernels are timed on the δ-pruned matches that the Spark
        queries feed P2, not on every structural match."""
        for _, row in fig12_df.iterrows():
            edges = ex.load(spark, row.dataset, sf=SF)
            delta = SPECS[row.dataset].delta_default
            pruned = sp.matches_with_series(edges, MOTIFS[row.motif], delta)
            assert row.matches == pruned.count()


class TestFig13:
    def test_prefix_growth(self, fig13_df):
        for kind, grp in fig13_df.groupby("dataset"):
            grp = grp.sort_values("fraction")
            assert grp.n_edges.iloc[-1] >= grp.n_edges.iloc[0]
            assert grp.instances.iloc[-1] >= grp.instances.iloc[0]

    def test_counts_equal_reference(self, fig13_df):
        """Each row counts the interactions with ``t <= span * fraction``
        and the instances among them."""
        for _, row in fig13_df.iterrows():
            spec = SPECS[row.dataset]
            prefix = [e for e in _edges(row.dataset) if e[2] <= spec.span * row.fraction]
            assert row.n_edges == len(prefix)
            assert row.instances == count_graph(
                prefix, MOTIFS[row.motif], spec.delta_default, spec.phi_default
            )

    def test_checks_input_contract(self, spark, monkeypatch):
        def duplicated(kind, sf, seed):
            pdf = generate(kind, sf=sf, seed=seed)
            return pd.concat([pdf, pdf.head(1)])

        monkeypatch.setattr(ex, "generate", duplicated)
        with pytest.raises(ValueError, match=r"share a \(src, dst, t\)"):
            # a seed no other test loads, so that load's memo cannot answer
            ex.fig13_scalability(spark, sf=SF, seed=903, fractions=(1.0,))


class TestFig14:
    def test_real_beats_random(self, spark):
        df = ex.fig14_significance(spark, sf=SF, motifs=["M(3,2)"], n_random=2)
        assert (df.real >= df.random_mean).all()


class TestTable2:
    def test_last_row_is_best_window_flow(self, spark):
        """The DP trace ends at the window's top-1 flow, 5, as in the paper."""
        df = ex.table2(spark, sf=SF)
        assert list(df.columns) == ["kappa", "t", "flow", "paper_flow"]
        assert tuple(df.iloc[-1]) == (3, 19, 5, 5)

