"""Pure-Python core of the reproduction: the paper's algorithms.

Modules: :mod:`motif` (Definition 3.1 + Figure 3 catalog), :mod:`structural`
(phase P1 DFS), :mod:`instances` (phase P2, Algorithm 1 + maximality),
:mod:`dp` (Algorithm 2), :mod:`topk` (§ 5), :mod:`search` (end-to-end),
:mod:`bruteforce` (definition-direct test oracle).
"""
from .instances import Instance, Series, enumerate_instances
from .motif import MOTIF_ORDER, MOTIFS, Motif
from .search import build_series, count_graph, max_flow_graph, search_graph, topk_graph
from .structural import structural_matches

__all__ = [
    "Instance",
    "Series",
    "enumerate_instances",
    "MOTIF_ORDER",
    "MOTIFS",
    "Motif",
    "build_series",
    "count_graph",
    "max_flow_graph",
    "search_graph",
    "topk_graph",
    "structural_matches",
]
