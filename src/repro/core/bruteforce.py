"""Definition-direct oracle for flow-motif instances (test-only, exponential).

Enumerates *every* assignment of non-empty interaction subsets to motif
edges (Definition 3.2 allows arbitrary subsets, not just contiguous runs),
checks the time-respecting / duration / flow constraints literally, and then
filters maximality literally per Definition 3.3 (an instance is maximal iff
adding any single remaining interaction to any edge-set yields no valid
instance).

This is intentionally the dumbest possible correct implementation — it
shares no code with Algorithm 1 — so agreement between the two is strong
evidence of correctness. Only feasible for series of a handful of elements.
"""
from __future__ import annotations

from itertools import chain, combinations, product
from typing import Sequence

from .instances import Series

IdxSets = tuple[tuple[int, ...], ...]  # per motif edge: sorted element indices


def _nonempty_subsets(n: int) -> list[tuple[int, ...]]:
    idx = range(n)
    return [
        s for r in range(1, n + 1) for s in combinations(idx, r)
    ]


def _flow(r: Series, s: tuple[int, ...]) -> float:
    """Flow of edge-set ``s`` of ``r``: an explicit left fold, as
    Definition 3.2's sum is computed everywhere (DESIGN.md § 2.2). Builtin
    ``sum()`` compensates float rounding since Python 3.12."""
    acc = 0.0
    for j in s:
        acc += r.fs[j]
    return acc


def _valid(series: Sequence[Series], sets: IdxSets, delta: float, phi: float) -> bool:
    times = [[series[i].ts[j] for j in s] for i, s in enumerate(sets)]
    # time-respecting between consecutive motif edges (transitively total)
    for a, b in zip(times, times[1:]):
        if not max(a) < min(b):
            return False
    all_t = list(chain.from_iterable(times))
    if max(all_t) - min(all_t) > delta:
        return False
    for i, s in enumerate(sets):
        if _flow(series[i], s) < phi:
            return False
    return True


def valid_instances(
    series: Sequence[Series], delta: float, phi: float
) -> set[IdxSets]:
    """All valid (not necessarily maximal) instances, as index-set tuples."""
    if any(len(r) == 0 for r in series):
        return set()
    options = [_nonempty_subsets(len(r)) for r in series]
    return {
        sets for sets in product(*options) if _valid(series, sets, delta, phi)
    }


def maximal_instances(
    series: Sequence[Series], delta: float, phi: float
) -> set[IdxSets]:
    """Definition 3.3 applied literally on top of :func:`valid_instances`."""
    out: set[IdxSets] = set()
    for sets in valid_instances(series, delta, phi):
        extendable = False
        for i, s in enumerate(sets):
            for j in range(len(series[i])):
                if j in s:
                    continue
                grown = tuple(
                    tuple(sorted((*t, j))) if k == i else t
                    for k, t in enumerate(sets)
                )
                if _valid(series, grown, delta, phi):
                    extendable = True
                    break
            if extendable:
                break
        if not extendable:
            out.add(sets)
    return out


def instance_flow(series: Sequence[Series], sets: IdxSets) -> float:
    """Equation 1 on an index-set instance."""
    return min(_flow(series[i], s) for i, s in enumerate(sets))


def ranges_to_idxsets(ranges) -> IdxSets:
    """Convert Algorithm 1's contiguous ranges to brute-force index sets."""
    return tuple(tuple(range(s, e + 1)) for s, e in ranges)
