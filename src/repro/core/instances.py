"""Phase P2 of the paper's two-phase search: Algorithm 1 plus maximality.

Given one structural match ``G_s`` — represented as one interaction
:class:`Series` per motif edge — enumerate all *maximal* flow-motif
instances (Definitions 3.2/3.3) under a duration constraint ``delta`` and a
flow constraint ``phi``.

The paper's Algorithm 1 slides a window of length ``delta`` anchored at the
interactions of the first motif edge and recursively splits the window into
prefixes, one per motif edge (procedure FindInstances). A maximal instance
assigns to each motif edge a *contiguous* run of that edge's interactions
(any skipped interior interaction could be added back without violating the
ordering or the duration, contradicting maximality), so instances are
represented compactly as per-edge index ranges into the series.

Algorithm 1 can emit candidates that a later window subsumes; we keep its
candidate generation verbatim and apply an O(m) maximality check per
candidate straight from Definition 3.3. Each maximal instance comes out
once, in ``(t_start, ranges)`` order, with its edge-set flows.
``tests/test_bruteforce_crosscheck`` proves the output equals the
definition-direct brute force.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence


class Series:
    """One edge's interaction time series ``R(u, v)``, sorted by time.

    Timestamps within a series are unique (the input multigraph annotates
    every edge with a unique timestamp, paper § 3).
    """

    __slots__ = ("ts", "fs")

    def __init__(self, pairs: Iterable[tuple[float, float]]) -> None:
        pts = sorted(pairs)
        self.ts: tuple[float, ...] = tuple(t for t, _ in pts)
        self.fs: tuple[float, ...] = tuple(f for _, f in pts)
        if len(set(self.ts)) != len(self.ts):
            raise ValueError("duplicate timestamps within one edge series")

    def __len__(self) -> int:
        return len(self.ts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Series({list(zip(self.ts, self.fs))})"

    def range_sum(self, i: int, j: int) -> float:
        """Total flow of elements ``i..j`` inclusive, summed left to right.

        This is the one flow rule (DESIGN.md § 2.2): the brute force and the
        join baseline add the same flows in the same order, so every phi
        test agrees bit for bit. Not builtin ``sum()``: since Python 3.12 it
        compensates float rounding, and a difference of prefix sums rounds
        differently again.
        """
        acc = 0.0
        for f in self.fs[i : j + 1]:
            acc += f
        return acc


def window_end(a: float, delta: float) -> float:
    """The largest float ``t`` with ``t - a <= delta``: where the window of
    duration ``delta`` anchored at ``a`` ends, inclusive.

    Definition 3.2 bounds an instance's duration as ``t_end - t_start <=
    delta``, and the maximality check, the brute force and the join
    baseline test it in that form. The float ``a + delta`` can round past
    that bound (a=0.1, delta=0.2: t=0.30000000000000004 is <= a + delta yet
    t - a > delta) or short of it, so it is only the first guess. ``t - a``
    is monotone in ``t``, hence ``t <= window_end(a, delta)`` exactly when
    ``t - a <= delta``, and the correction is a step or two.
    """
    hi = a + delta
    while hi - a > delta:
        hi = math.nextafter(hi, -math.inf)
    while (up := math.nextafter(hi, math.inf)) > hi and up - a <= delta:
        hi = up
    return hi


Ranges = tuple[tuple[int, int], ...]  # per motif edge: (start, end) inclusive


@dataclass(frozen=True)
class Instance:
    """A maximal flow-motif instance within one structural match.

    ``ranges[i]`` is the inclusive index range of motif edge ``e_{i+1}``'s
    edge-set inside that edge's :class:`Series` and ``flows[i]`` that
    edge-set's flow; ``t_start``/``t_end`` delimit the span.
    """

    ranges: Ranges
    flows: tuple[float, ...]
    t_start: float
    t_end: float

    @property
    def flow(self) -> float:
        """Equation 1: the minimum edge-set flow."""
        return min(self.flows)


def is_maximal(series: Sequence[Series], ranges: Ranges, delta: float) -> bool:
    """Definition 3.3: no single interaction can be added to any edge-set.

    Because edge-sets are contiguous runs, the only addable elements are the
    ones adjacent to each run. Ordering with the neighbouring motif edges
    constrains middle edges; the duration constraint only bites when
    extending the first edge-set backwards or the last edge-set forwards
    (any other addition lies strictly inside the instance's span). Flow can
    never be violated by an addition (phi is a lower bound and flows are
    positive), so maximality is independent of phi.
    """
    m = len(series)
    t_start = series[0].ts[ranges[0][0]]
    t_end = series[-1].ts[ranges[-1][1]]
    for i, (r, (s, e)) in enumerate(zip(series, ranges)):
        if s > 0:
            t = r.ts[s - 1]
            order_ok = i == 0 or t > series[i - 1].ts[ranges[i - 1][1]]
            span_ok = i > 0 or t_end - t <= delta
            if order_ok and span_ok:
                return False
        if e + 1 < len(r):
            t = r.ts[e + 1]
            order_ok = i == m - 1 or t < series[i + 1].ts[ranges[i + 1][0]]
            span_ok = i < m - 1 or t - t_start <= delta
            if order_ok and span_ok:
                return False
    return True


def _find_instances(
    series: Sequence[Series],
    edge_i: int,
    start_idx: int,
    hi: float,
    phi_fn: Callable[[], float],
    prefix: Ranges,
    flows: tuple[float, ...],
) -> Iterator[tuple[Ranges, tuple[float, ...]]]:
    """Procedure FindInstances of Algorithm 1 (recursive over the path).

    ``start_idx`` is the first eligible element of ``series[edge_i]`` (the
    one right after the previous edge-set's last timestamp), ``hi`` the
    inclusive window end. ``phi_fn`` is re-read at every prune point so the
    top-k variant can tighten it while enumeration is in flight. Yields
    each candidate as its ``(ranges, flows)``.
    """
    r = series[edge_i]
    last = bisect_right(r.ts, hi) - 1  # last element at or before hi
    if start_idx > last:
        return
    if edge_i == len(series) - 1:
        # Last motif edge takes every remaining element in the window
        # (anything less would not be maximal).
        f = r.range_sum(start_idx, last)
        if f >= phi_fn():
            yield prefix + ((start_idx, last),), flows + (f,)
        return
    acc = 0.0  # range_sum(start_idx, e), one addition per step
    for e in range(start_idx, last + 1):
        acc += r.fs[e]
        if acc >= phi_fn():  # phi prefix-pruning (line 16)
            yield from _find_instances(
                series,
                edge_i + 1,
                bisect_right(series[edge_i + 1].ts, r.ts[e]),
                hi,
                phi_fn,
                prefix + ((start_idx, e),),
                flows + (acc,),
            )


def _maximal_ranges(
    series: Sequence[Series], delta: float, phi_fn: Callable[[], float]
) -> Iterator[tuple[Ranges, tuple[float, ...]]]:
    """Each maximal instance of one structural match, once, as ``(ranges,
    flows)`` in ``(t_start, ranges)`` order.

    Windows of length ``delta`` are anchored at every interaction of the
    first motif edge (a maximal instance's temporally first element belongs
    to ``R(e_1)``); the stream of FindInstances candidates is filtered
    through the Definition 3.3 maximality check. No window repeats
    another's candidate: window k's all start at k. ``phi_fn`` is Algorithm
    1's phi or the top-k heap's floating threshold, which may rise between
    two candidates of one window.
    """
    for k, a in enumerate(series[0].ts):
        for ranges, flows in _find_instances(
            series, 0, k, window_end(a, delta), phi_fn, (), ()
        ):
            if is_maximal(series, ranges, delta):
                yield ranges, flows


def enumerate_instances(
    series: Sequence[Series], delta: float, phi: float
) -> list[Instance]:
    """All maximal instances of the motif within one structural match, in
    ``(t_start, ranges)`` order: windows follow the first edge's timestamps,
    and FindInstances' prefix loop is lexicographic."""
    return [
        Instance(
            ranges=ranges,
            flows=flows,
            t_start=series[0].ts[ranges[0][0]],
            t_end=series[-1].ts[ranges[-1][1]],
        )
        for ranges, flows in _maximal_ranges(series, delta, lambda: phi)
    ]
