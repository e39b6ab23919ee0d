"""Pure-Python end-to-end two-phase search over a whole interaction graph.

Reference implementation wiring P1 (:mod:`repro.core.structural`) to P2
(:mod:`repro.core.instances` / :mod:`repro.core.dp` / :mod:`repro.core.topk`)
on an in-memory edge list. The distributed pipeline in
``repro.spark.search`` is asserted equal to these functions on small graphs;
they also drive the significance study's per-graph counting in tests.
"""
from __future__ import annotations

import math
from collections import defaultdict
from typing import Hashable, Iterable, Sequence

from .dp import max_flow as _dp_max_flow
from .instances import Instance, Series, enumerate_instances
from .motif import Motif
from .structural import Match, match_edge_pairs, structural_matches
from .topk import topk_flows

Edge = tuple[Hashable, Hashable, float, float]  # (src, dst, t, f)


def build_series(edges: Iterable[Edge]) -> dict[tuple[Hashable, Hashable], Series]:
    """Multigraph -> time-series graph G_T: one Series per connected pair."""
    acc: dict[tuple[Hashable, Hashable], list[tuple[float, float]]] = defaultdict(list)
    for u, v, t, f in edges:
        acc[(u, v)].append((t, f))
    return {pair: Series(pts) for pair, pts in acc.items()}


def _finite(x: float) -> float:
    """``x`` as a float; raises ``ValueError`` if it is NaN or infinite.
    Every search entry point checks its delta and phi with it up front."""
    if not math.isfinite(x):
        raise ValueError(f"{x!r} is not finite")
    return float(x)


def _match_series(
    series: dict[tuple[Hashable, Hashable], Series], motif: Motif, match: Match
) -> list[Series]:
    return [series[pair] for pair in match_edge_pairs(motif, match)]


def search_graph(
    edges: Sequence[Edge], motif: Motif, delta: float, phi: float
) -> list[tuple[Match, Instance]]:
    """All maximal instances of ``motif`` in the graph, with their matches.
    Raises ``ValueError`` if ``delta`` or ``phi`` is NaN or infinite."""
    _finite(delta)
    _finite(phi)
    series = build_series(edges)
    out: list[tuple[Match, Instance]] = []
    for match in structural_matches(series.keys(), motif):
        for inst in enumerate_instances(_match_series(series, motif, match), delta, phi):
            out.append((match, inst))
    return out


def count_graph(edges: Sequence[Edge], motif: Motif, delta: float, phi: float) -> int:
    """Number of maximal instances in the whole graph (Figs. 9/10/13/14)."""
    return len(search_graph(edges, motif, delta, phi))


def topk_graph(edges: Sequence[Edge], motif: Motif, delta: float, k: int) -> list[float]:
    """Flows of the global top-k instances (Fig. 11), best first."""
    _finite(delta)
    series = build_series(edges)
    matches = structural_matches(series.keys(), motif)
    return topk_flows((_match_series(series, motif, m) for m in matches), delta, k)


def max_flow_graph(edges: Sequence[Edge], motif: Motif, delta: float) -> float:
    """Top-1 instance flow via the DP module (Fig. 12), 0 if none exists."""
    _finite(delta)
    series = build_series(edges)
    best = 0.0
    for match in structural_matches(series.keys(), motif):
        best = max(best, _dp_max_flow(_match_series(series, motif, match), delta))
    return best
