"""The paper's worked examples, encoded verbatim as unit tests.

Figure 7 (Algorithm 1 walk-through), Figure 2/4 (maximal vs non-maximal
instance of M(3,3)), Figure 1 (chain motif with aggregated flow), and the
Table 2 DP bottom line. See DESIGN.md § 3 for the documented inconsistency
between Figure 7's prose series and Table 2's intermediate cells.
"""
import pytest

from repro.core.dp import dp_window_table, max_flow
from repro.core.instances import Series, enumerate_instances
from repro.core.motif import MOTIFS
from repro.core.search import count_graph, search_graph, topk_graph
from repro.core.topk import TopKHeap, topk_scan_match
from tests.test_instances import edge_sets

# --- Figure 7: structural match of M(3,3) with series (prose of § 4) -----
FIG7 = [
    Series([(10, 5), (13, 2), (15, 3)]),  # R(e1): u2 -> u3
    Series([(9, 4), (11, 3), (16, 3)]),   # R(e2): u3 -> u1  (black dots)
    Series([(14, 4), (19, 6)]),           # R(e3): u1 -> u2
]
DELTA7 = 10


class TestFigure7:
    def test_prose_instance_1_is_found(self):
        # [e1 <- {(10,5)}, e2 <- {(11,3)}, e3 <- {(14,4),(19,6)}]
        insts = enumerate_instances(FIG7, DELTA7, phi=0)
        sets = {edge_sets(inst, FIG7) for inst in insts}
        assert (((10, 5),), ((11, 3),), ((14, 4), (19, 6))) in sets

    def test_prose_instance_2_is_found(self):
        # [e1 <- {(10,5)}, e2 <- {(11,3),(16,3)}, e3 <- {(19,6)}]
        insts = enumerate_instances(FIG7, DELTA7, phi=0)
        sets = {edge_sets(inst, FIG7) for inst in insts}
        assert (((10, 5),), ((11, 3), (16, 3)), ((19, 6),)) in sets

    def test_flows_of_prose_instances(self):
        # "the flow in the former case is 5, while in the latter is 3"
        # (paper text swaps them relative to listing order: instance with
        # e3 <- both elements has flow 3; with e2 <- both has flow 5).
        by_sets = {
            edge_sets(inst, FIG7): inst.flow
            for inst in enumerate_instances(FIG7, DELTA7, phi=0)
        }
        assert by_sets[(((10, 5),), ((11, 3),), ((14, 4), (19, 6)))] == 3
        assert by_sets[(((10, 5),), ((11, 3), (16, 3)), ((19, 6),))] == 5

    def test_phi_5_rejects_flow_3_instances(self):
        # "the latter instance would be rejected for phi = 5"
        insts = enumerate_instances(FIG7, DELTA7, phi=5)
        assert all(inst.flow >= 5 for inst in insts)
        sets = {edge_sets(inst, FIG7) for inst in insts}
        assert (((10, 5),), ((11, 3),), ((14, 4), (19, 6))) not in sets
        assert (((10, 5),), ((11, 3), (16, 3)), ((19, 6),)) in sets

    def test_no_instance_with_first_two_e1_elements_only(self):
        # "there is no instance which contains just the first two elements
        # of e1 but not the third" — such a candidate is non-maximal
        # because (15,3) can always be added.
        for inst in enumerate_instances(FIG7, DELTA7, phi=0):
            e1 = edge_sets(inst, FIG7)[0]
            assert e1 != ((10, 5), (13, 2))

    def test_all_maximal_instances(self):
        # Full maximal set for delta=10, phi=0 (hand-derived; brute-force
        # cross-checked in test_bruteforce_crosscheck).
        sets = {edge_sets(inst, FIG7) for inst in enumerate_instances(FIG7, DELTA7, 0)}
        assert sets == {
            (((10, 5),), ((11, 3),), ((14, 4), (19, 6))),
            (((10, 5),), ((11, 3), (16, 3)), ((19, 6),)),
            (((10, 5), (13, 2), (15, 3)), ((16, 3),), ((19, 6),)),
        }

    def test_table2_final_dp_value(self):
        # Table 2's bottom-right cell: best instance flow in [10,20] is 5.
        assert dp_window_table(FIG7, 10, 20)[1][-1][-1] == 5

    def test_dp_over_all_windows_matches_enumeration(self):
        best_enum = max(i.flow for i in enumerate_instances(FIG7, DELTA7, 0))
        assert max_flow(FIG7, DELTA7) == best_enum == 5

    def test_topk_on_match(self):
        heap = TopKHeap(3)
        topk_scan_match(FIG7, DELTA7, heap)
        assert heap.flows() == [5, 3, 3]


# --- Figure 2 / Figure 4: bitcoin toy graph, M(3,3), delta=10, phi=7 -----
FIG2_EDGES = [
    ("u3", "u1", 10.0, 10.0),
    ("u1", "u2", 13.0, 5.0),
    ("u1", "u2", 15.0, 7.0),
    ("u2", "u3", 18.0, 20.0),
]


class TestFigure4:
    def test_maximal_instance_of_fig4a(self):
        results = search_graph(FIG2_EDGES, MOTIFS["M(3,3)"], delta=10, phi=7)
        assert len(results) == 1
        match, inst = results[0]
        # u3, u1, u2 mapped to the first, second, third motif node
        assert match == ("u3", "u1", "u2")
        series = [Series([(10, 10)]), Series([(13, 5), (15, 7)]), Series([(18, 20)])]
        assert edge_sets(inst, series) == (
            ((10, 10),),
            ((13, 5), (15, 7)),
            ((18, 20),),
        )
        # aggregate flows 10, 12, 20 -> instance flow 10; span 18-10=8 <= 10
        assert inst.flow == 10
        assert inst.t_end - inst.t_start == 8

    def test_fig4b_subset_is_not_reported(self):
        # Figure 4(b): e2 <- {(15,7)} alone is valid but NOT maximal,
        # because (13,5) can be added to recover Figure 4(a).
        results = search_graph(FIG2_EDGES, MOTIFS["M(3,3)"], delta=10, phi=7)
        series = [Series([(10, 10)]), Series([(13, 5), (15, 7)]), Series([(18, 20)])]
        for _, inst in results:
            assert edge_sets(inst, series)[1] != ((15, 7),)

    def test_phi_above_min_aggregate_kills_instance(self):
        # Instance flow is 10 -> phi=11 leaves nothing.
        assert count_graph(FIG2_EDGES, MOTIFS["M(3,3)"], delta=10, phi=11) == 0

    def test_delta_below_span_kills_instance(self):
        # Span is 8 -> delta=7 leaves nothing.
        assert count_graph(FIG2_EDGES, MOTIFS["M(3,3)"], delta=7, phi=0) == 0


# --- Figure 1: chain motif with multi-edge aggregation, delta=5, phi=5 ---
FIG1_EDGES = [
    ("u1", "u2", 2.0, 5.0),
    ("u2", "u3", 4.0, 3.0),
    ("u2", "u3", 5.0, 5.0),
]


class TestFigure1:
    def test_chain_instance_aggregates_both_transfers(self):
        results = search_graph(FIG1_EDGES, MOTIFS["M(3,2)"], delta=5, phi=5)
        assert len(results) == 1
        match, inst = results[0]
        assert match == ("u1", "u2", "u3")
        series = [Series([(2, 5)]), Series([(4, 3), (5, 5)])]
        # both u2->u3 edges instantiate e2; aggregated flow 8 >= phi
        assert edge_sets(inst, series) == (((2, 5),), ((4, 3), (5, 5)))
        assert inst.flow == 5  # min(5, 8)
        assert inst.t_end - inst.t_start == 3  # "5 - 2 = 3 <= delta"

    def test_top1_flow(self):
        assert topk_graph(FIG1_EDGES, MOTIFS["M(3,2)"], delta=5, k=1) == [5]
