"""Answer checks over one round of queries (no Spark needed).

Every query's answer is checked; a query fails when it raised or when a
check it takes part in disagrees. A disagreement fails every query in it:
the benchmark does not guess which side is wrong. The checks are

* per cell, ``count`` == ``join`` == the number of ``find`` rows == the real
  count of ``signif``;
* per cell, the heap top-1 (``topk[0]``, 0 when there is no instance) ==
  the DP ``maxflow``, and ``topk`` holds at most k flows, best first;
* every instance count == the pure-Python reference, where one was computed;
* every default-(delta, phi) count on seed 0 == its pinned value.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from perfbench.workloads import TOPK_K, Cell, Query

#: Query kinds whose answer is (or carries) the cell's instance count.
COUNTING = ("count", "find", "join", "signif")


@dataclass
class Outcome:
    """One timed query: its latency and either an answer or an error.

    Answers: ``count``/``find``/``join`` the instance count (``find`` as the
    number of collected rows), ``topk`` the list of flows, ``maxflow`` the
    flow, ``signif`` a ``(real_count, random_counts)`` pair.
    """

    query: Query
    seconds: float
    answer: Any = None
    error: str | None = None
    #: Spark engine counters of the query's job group (traced runs only)
    counters: dict[str, int] | None = None


def instance_count(o: Outcome) -> int:
    return o.answer[0] if o.query.kind == "signif" else o.answer


def check(
    outcomes: Sequence[Outcome],
    *,
    reference: Mapping[Cell, int] | None = None,
    pinned: Mapping[Cell, int] | None = None,
) -> tuple[set[int], list[str]]:
    """Indices (into ``outcomes``) of failed queries, and why they failed."""
    failed: set[int] = set()
    why: list[str] = []

    def fail(idx: Sequence[int], msg: str) -> None:
        failed.update(idx)
        why.append(msg)

    ok: dict[Cell, dict[str, list[int]]] = {}
    for i, o in enumerate(outcomes):
        if o.error is not None:
            fail([i], f"{o.query.kind} {o.query.cell.label()} raised: {o.error}")
        else:
            ok.setdefault(o.query.cell, {}).setdefault(o.query.kind, []).append(i)

    for cell, by_kind in ok.items():
        label = cell.label()
        counting = [i for k in COUNTING for i in by_kind.get(k, [])]
        got = {outcomes[i].query.kind: instance_count(outcomes[i]) for i in counting}
        if len({instance_count(outcomes[i]) for i in counting}) > 1:
            fail(counting, f"{label}: instance counts disagree {got}")
        for name, table in (("reference", reference), ("pinned", pinned)):
            want = (table or {}).get(cell)
            bad = [i for i in counting if instance_count(outcomes[i]) != want]
            if want is not None and bad:
                fail(bad, f"{label}: {name} count {want}, got {got}")
        for i in by_kind.get("topk", []):
            flows = outcomes[i].answer
            if len(flows) > TOPK_K or list(flows) != sorted(flows, reverse=True):
                fail([i], f"{label}: topk not at most {TOPK_K} flows best first: {flows}")
        for i in by_kind.get("topk", []):
            flows = outcomes[i].answer
            top1 = flows[0] if flows else 0.0
            for j in by_kind.get("maxflow", []):
                if top1 != outcomes[j].answer:
                    fail([i, j], f"{label}: topk[0]={top1!r} != maxflow={outcomes[j].answer!r}")
    return failed, why
