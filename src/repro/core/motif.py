"""Flow-motif model (paper Definition 3.1) and the Figure 3 catalog.

A motif ``M = (G_M, delta, phi)`` is a directed graph whose ``m`` edges are
labeled with a total order 1..m that forms a *spanning path*: the target of
edge ``e_i`` is the source of edge ``e_{i+1}``. The path may revisit
vertices (e.g. cycles), but a motif *edge* (an ordered vertex pair) appears
only once, so each motif edge maps to a distinct edge of the time-series
graph in any instance.

We represent the spanning path by its node sequence ``nodes[0..m]`` where
edge ``e_i`` goes from ``nodes[i-1]`` to ``nodes[i]``; node names are small
ints ``0..|V_M|-1`` assigned in order of first appearance, which makes the
bijection constraints of Definition 3.2 explicit: equal ints must map to the
same graph vertex, distinct ints to distinct vertices.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Motif:
    """Graph structure ``G_M`` of a flow motif, given by its spanning path.

    ``delta`` and ``phi`` are search-time parameters in this codebase (they
    vary per experiment), so the dataclass carries only the structure.
    """

    name: str
    path: tuple[int, ...]  # node sequence along the spanning path, len m+1

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError(f"{self.name}: spanning path needs >= 1 edge")
        # Node ids must be 0..k-1 in order of first appearance (canonical form).
        seen: list[int] = []
        for v in self.path:
            if v not in seen:
                if v != len(seen):
                    raise ValueError(
                        f"{self.name}: nodes must be numbered in order of "
                        f"first appearance, got path {self.path}"
                    )
                seen.append(v)
        if len(set(self.edges)) != len(self.edges):
            raise ValueError(f"{self.name}: repeated motif edge in {self.path}")

    @property
    def m(self) -> int:
        """Number of motif edges (length of the spanning path)."""
        return len(self.path) - 1

    @property
    def n_nodes(self) -> int:
        """Number of distinct motif vertices |V_M|."""
        return len(set(self.path))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Motif edges in spanning-path order: edges[i] is ``e_{i+1}``."""
        return tuple(
            (self.path[i], self.path[i + 1]) for i in range(len(self.path) - 1)
        )

    def is_cyclic(self) -> bool:
        """True iff the spanning path revisits any vertex."""
        return len(set(self.path)) < len(self.path)


def _m(name: str, *path: int) -> Motif:
    return Motif(name, tuple(path))


#: The ten motifs of Figure 3 (see DESIGN.md § 3 for the M(n,n)
#: A/B/C reconstruction: the last edge returns to node 0 / 1 / 2).
MOTIFS: dict[str, Motif] = {
    m.name: m
    for m in [
        _m("M(3,2)", 0, 1, 2),
        _m("M(3,3)", 0, 1, 2, 0),
        _m("M(4,3)", 0, 1, 2, 3),
        _m("M(4,4)A", 0, 1, 2, 3, 0),
        _m("M(4,4)B", 0, 1, 2, 3, 1),
        _m("M(4,4)C", 0, 1, 2, 3, 2),
        _m("M(5,4)", 0, 1, 2, 3, 4),
        _m("M(5,5)A", 0, 1, 2, 3, 4, 0),
        _m("M(5,5)B", 0, 1, 2, 3, 4, 1),
        _m("M(5,5)C", 0, 1, 2, 3, 4, 2),
    ]
}

#: Catalog order used by every table/figure harness (matches Table 4 columns).
MOTIF_ORDER: tuple[str, ...] = (
    "M(3,2)",
    "M(3,3)",
    "M(4,3)",
    "M(4,4)A",
    "M(4,4)B",
    "M(4,4)C",
    "M(5,4)",
    "M(5,5)A",
    "M(5,5)B",
    "M(5,5)C",
)
