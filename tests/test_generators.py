"""Tests for the synthetic interaction-network generators (DESIGN.md § 3)."""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.core import MOTIFS, count_graph
from repro.core.structural import structural_matches
from repro.networks import generators as gen

SF = 0.4  # small but structurally non-trivial

#: sha256 of ``hash_pandas_object(generate(kind, sf=sf, seed=seed),
#: index=True)``, recorded with a row-wise ``DataFrame.nunique`` as
#: ``_close_cycles``' distinct-node filter: an independent implementation
#: of the same predicate.
PINNED = {
    ("bitcoin", 0.15, 0): "9fbf72c03df98f75f88014850f2bf1807d31093a79b27ad52c55997ab54cb450",
    ("bitcoin", 0.15, 1): "c426019b737be6a767e233904ece94e68296f3f170253b60554fbf8f40892e81",
    ("bitcoin", 0.5, 0): "559b0775f3b0fca4b9f988ac75a6b184dbbb61db5bec57f393538a3358d64ce9",
    ("bitcoin", 0.5, 2): "30b7cf81cda63deba5b64a1832bb77103686b7cdaca44de4198aefa0a9a82c25",
    ("bitcoin", 1.5, 0): "fd8e9ab0b7a91fbc4540972da14e4dba64f4375e3aa1dd719efe50d34b0f5aaa",
    ("facebook", 0.15, 0): "f307f57f6794d7ef338bf841f85c8445f08dd8dca1c6ce437d40aaa84eb18f9a",
    ("facebook", 0.15, 1): "53a0ffbda4ba9823c538083884128253d8173e121784614c7c645ce9b0b5bed7",
    ("facebook", 0.5, 0): "850763864c496012f2c9c08308c2166da58a377ffef79676e775284978d7ebe4",
    ("facebook", 0.5, 2): "474f5774a27de52e7307471e6ba89d125be4f88c98024ae57c48e8321085c3a5",
    ("facebook", 1.5, 0): "72892b89a50bb6b4dd56d85dc9e9b558e6903c697f0b2e3531d4854e9c551d24",
    ("passenger", 0.15, 0): "b92b7e2c25eb8cee22ad6aad25af2ca410cf4ad517de0978a51e50bb69d0e5b0",
    ("passenger", 0.15, 1): "54767173346379322f96fdd437fe1f5270057ead2e1bf28862561ed49354fc23",
    ("passenger", 0.5, 0): "93ec11ac2474d67c6add8fe89a34f49a4fa42ea856f3145d88931611c44ac10c",
    ("passenger", 0.5, 2): "a349605f6efde8d5761c45db0877de9e1a185261d094a1048f1541621eb7f3c9",
    ("passenger", 1.5, 0): "1d81ae2999c3065f357e1f2bf5179c22c95b05fffb9e31f8a32c352791597116",
}


@pytest.fixture(scope="module", params=gen.DATASETS)
def kind(request):
    return request.param


@pytest.fixture(scope="module")
def pdf(kind):
    return gen.generate(kind, sf=SF, seed=0)


class TestSchemaAndInvariants:
    def test_columns_and_dtypes(self, pdf):
        assert list(pdf.columns) == ["src", "dst", "t", "f"]
        assert pdf.src.dtype == np.int64 and pdf.dst.dtype == np.int64
        assert pdf.t.dtype == np.float64 and pdf.f.dtype == np.float64

    def test_timestamps_globally_unique(self, pdf):
        assert pdf.t.is_unique, "paper assumes unique timestamps"

    def test_sorted_by_time(self, pdf):
        assert pdf.t.is_monotonic_increasing

    def test_flows_positive(self, pdf):
        assert (pdf.f > 0).all()

    def test_no_self_loops(self, pdf):
        assert (pdf.src != pdf.dst).all()

    def test_within_span(self, pdf, kind):
        assert pdf.t.min() >= 0
        assert pdf.t.max() <= gen.SPECS[kind].span * 1.5  # cascades may spill


class TestDeterminism:
    def test_same_seed_same_data(self, kind):
        a = gen.generate(kind, sf=0.2, seed=3)
        b = gen.generate(kind, sf=0.2, seed=3)
        pd.testing.assert_frame_equal(a, b)

    def test_different_seed_different_data(self, kind):
        a = gen.generate(kind, sf=0.2, seed=3)
        b = gen.generate(kind, sf=0.2, seed=4)
        assert not a.equals(b)

    def test_sf_scales_size(self, kind):
        small = gen.generate(kind, sf=0.2, seed=0)
        big = gen.generate(kind, sf=0.6, seed=0)
        assert len(big) > len(small) * 1.5

    @pytest.mark.parametrize("kind, sf, seed", list(PINNED), ids=str)
    def test_output_pinned(self, kind, sf, seed):
        """Every generated frame is byte-identical to a recorded one, so no
        count pinned elsewhere can move with a change to the generator."""
        pdf = gen.generate(kind, sf=sf, seed=seed)
        got = pd.util.hash_pandas_object(pdf, index=True).to_numpy().tobytes()
        assert hashlib.sha256(got).hexdigest() == PINNED[kind, sf, seed]


class TestPaperShape:
    """The Table 3 traits each generator must preserve (DESIGN.md § 3)."""

    def test_avg_flow_near_paper(self, pdf, kind):
        paper = {"bitcoin": 4.845, "facebook": 3.014, "passenger": 1.933}[kind]
        assert gen.stats(pdf)["avg_flow"] == pytest.approx(paper, rel=0.25)

    def test_multi_edge_density_near_paper(self, pdf, kind):
        paper = {"bitcoin": 1.38, "facebook": 3.24, "passenger": 2.76}[kind]
        s = gen.stats(pdf)
        ratio = s["n_edges"] / s["n_pairs"]
        assert ratio == pytest.approx(paper, rel=0.35)

    def test_facebook_counts_are_integers(self):
        pdf = gen.generate("facebook", sf=0.2, seed=1)
        assert (pdf.f == pdf.f.round()).all()

    def test_passenger_counts_are_integers(self):
        pdf = gen.generate("passenger", sf=0.5, seed=1)
        assert (pdf.f == pdf.f.round()).all()

    def test_cyclic_structure_exists_in_bitcoin_and_facebook(self):
        for kind in ("bitcoin", "facebook"):
            pdf = gen.generate(kind, sf=0.5, seed=0)
            pairs = set(
                pdf[["src", "dst"]].drop_duplicates().itertuples(index=False, name=None)
            )
            assert len(structural_matches(pairs, MOTIFS["M(3,3)"])) > 0

    def test_passenger_acyclic_dominates(self):
        """Paper § 6.2.2: on Passenger, acyclic motifs dominate cyclic ones."""
        pdf = gen.generate("passenger", sf=1.0, seed=0)
        edges = list(pdf.itertuples(index=False, name=None))
        spec = gen.SPECS["passenger"]
        chain = count_graph(edges, MOTIFS["M(3,2)"], spec.delta_default, spec.phi_default)
        cycle = count_graph(edges, MOTIFS["M(3,3)"], spec.delta_default, spec.phi_default)
        assert chain > cycle

    def test_instances_exist_at_default_parameters(self, kind):
        pdf = gen.generate(kind, sf=1.0, seed=0)
        edges = list(pdf.itertuples(index=False, name=None))
        spec = gen.SPECS[kind]
        assert (
            count_graph(edges, MOTIFS["M(3,2)"], spec.delta_default, spec.phi_default)
            > 0
        )


class TestHelpers:
    def test_time_prefix(self, kind):
        pdf = gen.generate(kind, sf=0.3, seed=0)
        half = gen.time_prefix(pdf, 0.5, kind)
        assert len(half) < len(pdf)
        assert (half.t <= gen.SPECS[kind].span * 0.5).all()

    def test_time_prefix_full_keeps_most(self, kind):
        pdf = gen.generate(kind, sf=0.3, seed=0)
        # cascades may spill past the nominal span, so allow a small tail
        assert len(gen.time_prefix(pdf, 1.0, kind)) >= 0.9 * len(pdf)

    def test_stats_keys(self, pdf):
        s = gen.stats(pdf)
        assert set(s) == {"n_nodes", "n_pairs", "n_edges", "avg_flow"}

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            gen.generate("twitter")

    def test_ensure_unique(self):
        g = np.random.default_rng(0)
        ts = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 5.0])
        out = gen._ensure_unique(ts, g)
        assert len(np.unique(out)) == len(out)
        assert np.allclose(out, ts, atol=0.01)
