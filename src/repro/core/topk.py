"""Top-k flow-motif search (§ 5): phi = 0 plus a floating heap threshold.

Phase P1 is unchanged; in phase P2 the static phi of Algorithm 1 is replaced
by the flow of the k-th best instance found so far, read from a size-k
min-heap at every prune point. The threshold only grows, so any pruned
candidate's flow is strictly below the final k-th flow — no top-k instance
is lost. Maximality is checked against the raw series (it is independent of
phi), so pruning cannot promote a non-maximal candidate.
"""
from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .instances import Series, _maximal_ranges


class TopKHeap:
    """Size-k min-heap of instance flows, shared across structural matches.

    ``threshold()`` is the floating phi: 0 until k instances are held, then
    the k-th best flow so far.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._heap: list[float] = []

    def threshold(self) -> float:
        """Current floating phi: the k-th best flow, 0 while under-full."""
        return self._heap[0] if len(self._heap) >= self.k else 0.0

    def offer(self, flow: float) -> None:
        """Insert a flow, evicting the current k-th if beaten."""
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, flow)
        elif flow > self._heap[0]:
            heapq.heapreplace(self._heap, flow)

    def flows(self) -> list[float]:
        """Held flows, best first."""
        return sorted(self._heap, reverse=True)


def topk_scan_match(
    series: Sequence[Series], delta: float, heap: TopKHeap
) -> None:
    """Feed one structural match's maximal instances into a shared heap.

    Runs Algorithm 1's window/prefix enumeration with the heap's floating
    threshold in place of phi, checking maximality before offering.
    """
    for _, flows in _maximal_ranges(series, delta, heap.threshold):
        heap.offer(min(flows))


def topk_flows(
    matches_series: Iterable[Sequence[Series]], delta: float, k: int
) -> list[float]:
    """Flows of the top-k maximal instances over many structural matches.

    The heap (and hence the pruning threshold) is shared across matches, as
    in the paper's sequential variant. Returns at most k flows, best first.
    """
    heap = TopKHeap(k)
    for series in matches_series:
        topk_scan_match(series, delta, heap)
    return heap.flows()
