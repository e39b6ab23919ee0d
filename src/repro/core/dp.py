"""Algorithm 2: dynamic-programming module for top-1 instance search (§ 5.1).

Per structural match and per delta-window, Equation 2 computes

    Flow([t1, ti], k) = max_{j<=i} min( Flow([t1, t_{j-1}], k-1),
                                        flow([tj, ti], k) )

over the sequence ``t1..t_tau`` of all interaction timestamps of the match
inside the window; ``flow([tj, ti], k)`` is the total flow of the k-th motif
edge's interactions within ``[tj, ti]``. ``Flow([t1, t_tau], m)`` is the
flow of the best instance in the window; maximising over windows and
matches yields the global top-1 flow.

Empty edge-sets are encoded as flow 0 (all flows are positive, so 0 means
"no valid instance"), matching the paper's Table 2 convention.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

from .instances import Series, window_end


def _window_timestamps(series: Sequence[Series], lo: float, hi: float) -> list[float]:
    return sorted(
        {t for r in series for t in r.ts[bisect_left(r.ts, lo) : bisect_right(r.ts, hi)]}
    )


def _flow_in(r: Series, lo: float, hi: float) -> float:
    """Total flow of r's elements with lo <= t <= hi (0 if none)."""
    i = bisect_left(r.ts, lo)
    j = bisect_right(r.ts, hi) - 1
    return r.range_sum(i, j) if i <= j else 0.0


def dp_window_table(
    series: Sequence[Series], lo: float, hi: float
) -> tuple[list[float], list[list[float]]]:
    """Full Equation 2 table for window ``[lo, hi]`` (Table 2 reproduction).

    Returns ``(timestamps, table)`` where ``table[k-1][i]`` is
    ``Flow([t1, ti], k)``; 0 encodes "no valid instance of the k-edge
    prefix ends by ti".
    """
    ts = _window_timestamps(series, lo, hi)
    tau = len(ts)
    m = len(series)
    if tau == 0:
        return ts, [[] for _ in range(m)]
    table: list[list[float]] = []
    row1 = [_flow_in(series[0], lo, ts[i]) for i in range(tau)]
    table.append(row1)
    for k in range(2, m + 1):
        prev = table[-1]
        row = [0.0] * tau
        for i in range(tau):
            best = 0.0
            # j ranges over window timestamps; j-1 must exist so the
            # (k-1)-edge prefix has a non-empty window before tj.
            for j in range(1, i + 1):
                left = prev[j - 1]
                if left <= best:
                    continue  # min() can't beat current best
                right = _flow_in(series[k - 1], ts[j], ts[i])
                best = max(best, min(left, right))
            row[i] = best
        table.append(row)
    return ts, table


def max_flow(series: Sequence[Series], delta: float) -> float:
    """Top-1 instance flow within one structural match (0 if none exists).

    Windows are anchored at the interactions of the first motif edge, as in
    Algorithm 1: the temporally first element of any maximal instance (and
    the top-1 instance is WLOG maximal — adding interactions never lowers
    Equation 1's min) lies on ``R(e_1)``.
    """
    best = 0.0
    for a in series[0].ts:
        _, table = dp_window_table(series, a, window_end(a, delta))
        # Flow([t1, t_tau], m); a negative delta leaves the window empty
        best = max([best, *table[-1][-1:]])
    return best
