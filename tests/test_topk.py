"""Top-k search (§ 5) tests: heap semantics and equivalence to ranking the
full enumeration."""
import random

import pytest

from repro.core.instances import Series, enumerate_instances
from repro.core.motif import MOTIFS
from repro.core.search import (
    build_series,
    max_flow_graph,
    search_graph,
    topk_graph,
)
from repro.core.topk import TopKHeap, topk_flows, topk_scan_match
from tests.test_bruteforce_crosscheck import random_series


class TestTopKHeap:
    def test_threshold_floats_up(self):
        h = TopKHeap(2)
        assert h.threshold() == 0.0
        h.offer(5.0)
        assert h.threshold() == 0.0  # not full yet
        h.offer(3.0)
        assert h.threshold() == 3.0
        h.offer(4.0)
        assert h.threshold() == 4.0
        assert h.flows() == [5.0, 4.0]

    def test_low_offers_ignored_when_full(self):
        h = TopKHeap(1)
        h.offer(5.0, "a")
        h.offer(4.0, "b")
        assert h.items() == [(5.0, "a")]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            TopKHeap(0)

    def test_ties_keep_k_items(self):
        h = TopKHeap(3)
        for f in [2.0, 2.0, 2.0, 2.0]:
            h.offer(f)
        assert h.flows() == [2.0, 2.0, 2.0]


class TestTopKEqualsRankedEnumeration:
    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_single_match(self, seed, k):
        rng = random.Random(5_000 + seed)
        series = random_series(rng, rng.choice([1, 2, 3]))
        delta = rng.choice([5, 12, 40])
        all_flows = sorted(
            (i.flow for i in enumerate_instances(series, delta, phi=0)),
            reverse=True,
        )
        got = topk_flows([series], delta, k)
        assert got == all_flows[:k]

    @pytest.mark.parametrize("seed", range(12))
    def test_shared_heap_across_matches(self, seed):
        rng = random.Random(6_000 + seed)
        matches = [random_series(rng, 2) for _ in range(4)]
        delta = 15
        all_flows = sorted(
            (
                i.flow
                for s in matches
                for i in enumerate_instances(s, delta, phi=0)
            ),
            reverse=True,
        )
        assert topk_flows(matches, delta, 3) == all_flows[:3]

    def test_k_larger_than_result_count(self):
        series = [Series([(1, 2.0)]), Series([(2, 3.0)])]
        assert topk_flows([series], delta=5, k=10) == [2.0]


class TestGraphLevelTopK:
    EDGES = [
        ("a", "b", 1.0, 4.0),
        ("a", "b", 2.0, 2.0),
        ("b", "c", 3.0, 3.0),
        ("b", "c", 8.0, 9.0),
        ("c", "a", 9.0, 7.0),
        ("c", "d", 4.0, 6.0),
    ]

    def test_topk_graph_equals_ranked_search(self):
        motif = MOTIFS["M(3,2)"]
        flows = sorted(
            (inst.flow for _, inst in search_graph(self.EDGES, motif, 8, 0)),
            reverse=True,
        )
        assert topk_graph(self.EDGES, motif, 8, 3) == flows[:3]

    def test_top1_equals_dp_max_flow(self):
        for name in ["M(3,2)", "M(3,3)", "M(4,3)"]:
            motif = MOTIFS[name]
            top = topk_graph(self.EDGES, motif, 8, 1)
            dp = max_flow_graph(self.EDGES, motif, 8)
            assert dp == (top[0] if top else 0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_top1_equals_dp_on_random_graphs(self, seed):
        rng = random.Random(8_800 + seed)
        nodes = list("abcde")
        edges = []
        used_t = set()
        for _ in range(25):
            u, v = rng.sample(nodes, 2)
            t = rng.uniform(0, 50)
            while t in used_t:
                t = rng.uniform(0, 50)
            used_t.add(t)
            edges.append((u, v, t, float(rng.randint(1, 9))))
        for name in ["M(3,2)", "M(3,3)"]:
            motif = MOTIFS[name]
            top = topk_graph(edges, motif, 10, 1)
            assert max_flow_graph(edges, motif, 10) == pytest.approx(
                top[0] if top else 0.0
            )

    def test_build_series_groups_pairs(self):
        series = build_series(self.EDGES)
        assert set(series) == {("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")}
        ab = series[("a", "b")]
        assert tuple(zip(ab.ts, ab.fs)) == ((1.0, 4.0), (2.0, 2.0))
