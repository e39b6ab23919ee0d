"""The benchmark's workloads: which queries one round runs, on which inputs.

A *cell* is one (dataset, motif, delta, phi) combination; a *query* is one
call into the public API on one cell. A round is a fixed list of queries, so
every run of a workload measures the same mix whatever its seed: the seed
only changes the generated networks. delta and phi are multiples of the
paper's per-dataset defaults (section 6.2).
"""
from __future__ import annotations

from dataclasses import dataclass

#: The query types, in the order a full cell runs them.
KINDS = ("count", "find", "topk", "maxflow", "join", "signif")
#: The kinds a *full* cell runs: their answers cross-check each other.
FULL_KINDS = KINDS[:5]

#: k of the top-k query (Fig. 11's default).
TOPK_K = 10

#: Flow permutations per significance query (the paper's R). One keeps a
#: significance query within a few counts' time.
N_RANDOM = 1


@dataclass(frozen=True)
class Cell:
    dataset: str
    motif: str
    delta_mul: float = 1.0
    phi_mul: float = 1.0

    def is_default(self) -> bool:
        return self.delta_mul == self.phi_mul == 1.0

    def label(self) -> str:
        s = f"{self.dataset}/{self.motif}"
        if self.delta_mul != 1.0:
            s += f"/dx{self.delta_mul:g}"
        if self.phi_mul != 1.0:
            s += f"/px{self.phi_mul:g}"
        return s


@dataclass(frozen=True)
class Query:
    kind: str
    cell: Cell


@dataclass(frozen=True)
class Workload:
    name: str
    sf: float
    datasets: tuple[str, ...]
    queries: tuple[Query, ...]
    #: whether the pure-Python reference (repro.core.search) is cheap enough
    #: to check every count answer against
    reference_counts: bool


def latency_group(q: Query) -> str:
    """The latency metric a query's time counts towards: its kind, except
    that counts at the sweep's delta/phi multiples form ``sweep``."""
    return "sweep" if q.kind == "count" and not q.cell.is_default() else q.kind


#: Latency metrics in the order they are reported.
LATENCY_GROUPS = ("count", "sweep") + KINDS[1:]


def _full(cell: Cell) -> tuple[Query, ...]:
    return tuple(Query(k, cell) for k in FULL_KINDS)


_MIX_SMALL_FULL = (
    Cell("bitcoin", "M(3,2)"),
    Cell("bitcoin", "M(4,3)"),
    Cell("facebook", "M(3,3)"),
    Cell("facebook", "M(4,3)"),
)
# Fig. 9/10 sweep: delta x {0.5, 2, 4} and phi x {0, 0.5, 2} on M(3,2).
_SWEEP = tuple(Cell("facebook", "M(3,2)", delta_mul=d) for d in (0.5, 2.0, 4.0)) + tuple(
    Cell("facebook", "M(3,2)", phi_mul=p) for p in (0.0, 0.5, 2.0)
)

_MIX_LARGE_FULL = (Cell("facebook", "M(3,2)"), Cell("facebook", "M(4,3)"))
_MIX_LARGE_SWEEP = (
    Cell("facebook", "M(3,2)", delta_mul=4.0),
    Cell("facebook", "M(4,3)", delta_mul=4.0),
)

# A median over a few samples is steady only when it does not fall between
# groups of samples of very different cost, so every kind has at least two
# samples, the sweep's counts (queries on one motif back to back, cheaper
# than a count on a fresh cell) are a metric of their own, and a workload's
# full cells are of similar cost.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Spark's fixed cost per query dominates: the Algorithm 1 kernel is a
        # few percent of a query, so plan changes show here and kernel
        # changes should not.
        Workload(
            name="mix-sf0.5",
            sf=0.5,
            datasets=("bitcoin", "facebook", "passenger"),
            queries=tuple(q for c in _MIX_SMALL_FULL for q in _full(c))
            + tuple(Query("count", c) for c in _SWEEP)
            + (
                Query("signif", Cell("passenger", "M(3,2)")),
                Query("signif", Cell("facebook", "M(3,2)")),
            ),
            reference_counts=True,
        ),
        # 18k interactions and 46k M(4,3) structural matches: series
        # building and Algorithm 1 in mapInPandas (P2) are about 45% of a
        # count, and generation is most of set-up. With only two full cells,
        # each runs twice so that every median has four samples. Without a
        # pure-Python reference at this size, every sweep count is paired
        # with a join.
        Workload(
            name="mix-sf1.5",
            sf=1.5,
            datasets=("facebook",),
            queries=tuple(q for c in _MIX_LARGE_FULL for q in _full(c)) * 2
            + tuple(Query(k, c) for c in _MIX_LARGE_SWEEP for k in ("count", "join"))
            + (Query("signif", _MIX_LARGE_FULL[0]),) * 2,
            reference_counts=False,
        ),
    )
}

#: Seed-0 instance counts at the default (delta, phi), keyed by
#: (sf, dataset, motif): a sanity pin on top of the cross-checks.
PINNED_SEED0 = {
    (0.5, "bitcoin", "M(3,2)"): 160,
    (0.5, "bitcoin", "M(3,3)"): 9,
    (0.5, "bitcoin", "M(4,3)"): 38,
    (0.5, "facebook", "M(3,2)"): 424,
    (0.5, "facebook", "M(3,3)"): 32,
    (0.5, "facebook", "M(4,3)"): 132,
    (0.5, "passenger", "M(3,2)"): 63,
    (0.5, "passenger", "M(3,3)"): 4,
    (0.5, "passenger", "M(4,3)"): 21,
    (1.5, "facebook", "M(3,2)"): 1304,
    (1.5, "facebook", "M(4,3)"): 460,
}
