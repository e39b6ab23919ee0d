"""Synthetic interaction networks standing in for the paper's datasets.

The paper evaluates on three real networks (Table 3) that are not
redistributable/downloadable here, so each is replaced by a deterministic
generator preserving the properties the algorithms are sensitive to —
degree skew, multi-edge density (interactions per connected pair), flow
distribution (matching the paper's "avg flow per edge"), temporal density
relative to the default delta, and cyclicity. DESIGN.md § 3 documents each
substitution.

All generators return a pandas DataFrame with columns ``src``/``dst``
(int64 node ids), ``t`` (float seconds, globally unique — the paper assumes
unique timestamps) and ``f`` (positive float flow), sorted by ``t``.

``sf`` scales the number of connected pairs (and hence interactions); the
time span is fixed per dataset so that time-prefix sampling (Fig. 13's
B1..B5 / F1..F5 / T1..T4) behaves like the paper's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class Spec:
    """Scale-1.0 parameters of one synthetic network."""

    n_nodes: int
    n_pairs: int
    mult_mean: float  # target mean interactions per connected pair (Table 3)
    bg_mult: float  # mean *background* interactions per pair (Poisson, may be 0;
    # cascades supply the rest of the multi-edge budget)
    span: float  # seconds covered by the dataset
    delta_default: float  # paper's default duration constraint
    phi_default: float  # paper's default flow constraint


#: Paper defaults (§ 6.2): Bitcoin delta=600 phi=5, Facebook delta=600 phi=3,
#: Passenger delta=900 phi=2. Spans are chosen so the interaction rate per
#: delta-window is non-trivial at sf=1 (see DESIGN.md § 3).
SPECS: dict[str, Spec] = {
    "bitcoin": Spec(n_nodes=4000, n_pairs=6000, mult_mean=1.4, bg_mult=0.75,
                    span=201_600.0, delta_default=600.0, phi_default=5.0),
    "facebook": Spec(n_nodes=1500, n_pairs=3500, mult_mean=3.2, bg_mult=2.40,
                     span=324_000.0, delta_default=600.0, phi_default=3.0),
    "passenger": Spec(n_nodes=40, n_pairs=300, mult_mean=2.8, bg_mult=1.15,
                      span=93_600.0, delta_default=900.0, phi_default=2.0),
}

DATASETS: tuple[str, ...] = ("bitcoin", "facebook", "passenger")


def _dedupe_pairs(src: np.ndarray, dst: np.ndarray, n_pairs: int) -> pd.DataFrame:
    pairs = pd.DataFrame({"src": src, "dst": dst})
    pairs = pairs[pairs.src != pairs.dst].drop_duplicates()
    return pairs.head(n_pairs).reset_index(drop=True)


Cycles = list[tuple[int, ...]]  # node tuples n0..nk of created (k+1)-cycles


def _close_cycles(
    pairs: pd.DataFrame, fracs: dict[int, float], g: np.random.Generator
) -> tuple[pd.DataFrame, Cycles]:
    """Add closing edges (path end -> path start) for sampled k-paths.

    ``fracs`` maps path length k (2, 3, 4) to the fraction of |pairs| to
    close, creating directed (k+1)-cycles. This gives the generated graphs
    triangles, 4-cycles and 5-cycles so the cyclic motifs of Figure 3
    (M(3,3), M(4,4)A, M(5,5)A, ...) have structural matches, as they do in
    the paper's Bitcoin and Facebook networks. Returns the extended pair
    set plus the node tuples of the created cycles — generate() emits
    temporal cascades along a sample of them so the cycles are realized in
    time, not just in structure.

    k-paths are grown one pair-merge at a time. After each merge a
    vectorised sorted-row test keeps the paths whose nodes are all
    distinct, and a uniform sample caps them at 200 000 rows, so the cost
    is linear in the merge output and sf=64 networks (the size of the
    paper's Facebook) generate in seconds.
    """
    out = pairs
    cycles: Cycles = []
    for k, frac in sorted(fracs.items()):
        walk = out.rename(columns={"src": "n0", "dst": "n1"})
        step = out.rename(columns={"src": "a", "dst": "b"})
        for i in range(1, k):
            walk = walk.merge(
                step.rename(columns={"a": f"n{i}", "b": f"n{i+1}"}), on=f"n{i}"
            )
            node_cols = [f"n{j}" for j in range(i + 2)]
            # Keep paths whose nodes are all distinct. The merged node
            # columns are all int64 with no NaN, so a sorted row has
            # all-distinct values exactly when no two neighbours are equal.
            a = np.sort(walk[node_cols].to_numpy(), axis=1)
            distinct = (a[:, 1:] != a[:, :-1]).all(axis=1)
            walk = walk[distinct]
            if len(walk) > 200_000:
                walk = walk.iloc[
                    g.choice(len(walk), size=200_000, replace=False)
                ]
        n_close = int(len(out) * frac)
        if len(walk) == 0 or n_close == 0:
            continue
        take = walk.iloc[
            g.choice(len(walk), size=min(n_close, len(walk)), replace=False)
        ]
        closing = pd.DataFrame(
            {"src": take[f"n{k}"].values, "dst": take["n0"].values}
        )
        cols = [take[f"n{j}"].to_numpy() for j in range(k + 1)]
        cycles.extend(tuple(int(x) for x in tup) for tup in zip(*cols))
        out = (
            pd.concat([out, closing], ignore_index=True)
            .drop_duplicates()
            .reset_index(drop=True)
        )
    return out, cycles


def _zipf_weights(n: int, alpha: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** alpha
    return w / w.sum()


def _bitcoin_pairs(
    n_nodes: int, n_pairs: int, g: np.random.Generator
) -> tuple[pd.DataFrame, Cycles]:
    # Skewed endpoint sampling (hub users), then triangle closure. The skew
    # exponent is kept moderate: real-Bitcoin-grade hub skew makes the number
    # of length-4 paths explode combinatorially at laptop scale (DESIGN.md).
    w = _zipf_weights(n_nodes, 0.35)
    over = int(n_pairs * 2.5)
    src = g.choice(n_nodes, size=over, p=w)
    dst = g.choice(n_nodes, size=over, p=w)
    pairs = _dedupe_pairs(src, dst, n_pairs)
    return _close_cycles(pairs, {2: 0.12, 3: 0.12 / 2, 4: 0.12 / 3}, g)


def _facebook_pairs(
    n_nodes: int, n_pairs: int, g: np.random.Generator
) -> tuple[pd.DataFrame, Cycles]:
    # Community structure + reciprocity + triangle closure.
    n_comm = max(2, n_nodes // 50)
    comm = g.integers(0, n_comm, n_nodes)
    over = int(n_pairs * 2.0)
    src = g.integers(0, n_nodes, over)
    # 80% of targets land in the source's community.
    members: list[np.ndarray] = [np.flatnonzero(comm == c) for c in range(n_comm)]
    in_comm = g.random(over) < 0.8
    dst = g.integers(0, n_nodes, over)
    for i in np.flatnonzero(in_comm):
        ms = members[comm[src[i]]]
        dst[i] = ms[g.integers(0, len(ms))]
    pairs = _dedupe_pairs(src, dst, int(n_pairs * 0.75))
    recip = pairs.sample(frac=0.35, random_state=int(g.integers(0, 2**31)))
    pairs = pd.concat(
        [pairs, recip.rename(columns={"src": "dst", "dst": "src"})],
        ignore_index=True,
    ).drop_duplicates().reset_index(drop=True)
    return _close_cycles(pairs, {2: 0.08, 3: 0.08 / 2, 4: 0.08 / 3}, g)


def _passenger_pairs(
    n_zones: int, n_pairs: int, g: np.random.Generator
) -> tuple[pd.DataFrame, Cycles]:
    # Zones on a line; trips are distance-decayed and mostly "forward",
    # biasing the graph towards acyclic flow (the paper observes acyclic
    # motifs dominating on Passenger).
    over = int(n_pairs * 20)
    src = g.integers(0, n_zones, over)
    hop = 1 + g.geometric(0.5, over)
    sign = np.where(g.random(over) < 0.85, 1, -1)
    dst = src + sign * hop
    ok = (dst >= 0) & (dst < n_zones)
    # No explicit cycle closure: the paper finds acyclic motifs dominate on
    # Passenger (trips rarely loop); the 15% backward hops alone provide the
    # few cycles it does have.
    return _dedupe_pairs(src[ok], dst[ok], n_pairs), []


def _unique_timestamps(n: int, span: float, g: np.random.Generator,
                       grid: float | None = None) -> np.ndarray:
    """n globally unique timestamps in [0, span).

    With ``grid`` (Facebook's 30 s bucketing), timestamps snap to the grid
    and a per-row epsilon (< grid) restores global uniqueness — the paper's
    bucketing aggregates interactions per interval; the epsilon is only a
    uniqueness device and is far below delta.
    """
    if grid is None:
        ticks = g.choice(int(span * 10), size=n, replace=False)
        return np.sort(ticks.astype(np.float64) / 10.0)
    buckets = g.integers(0, int(span // grid), size=n)
    eps = (g.permutation(n) + 1) * (grid * 0.9 / (n + 1))
    return np.sort(buckets.astype(np.float64) * grid + eps)


def _bitcoin_flows(n: int, g: np.random.Generator) -> np.ndarray:
    # Log-normal; the base mean is set below Table 3's 4.845 BTC target so
    # that the max-of-two cascade draws bring the overall mean back to it.
    sigma = 1.2
    mu = math.log(3.9) - sigma**2 / 2
    return np.maximum(np.round(g.lognormal(mu, sigma, n), 4), 0.0001)


def _facebook_flows(n: int, g: np.random.Generator) -> np.ndarray:
    # Interaction counts per 30 s bucket: 1 + Poisson; base mean slightly
    # below Table 3's 3.014 to offset the cascade draws.
    return (1 + g.poisson(1.87, n)).astype(np.float64)


def _passenger_flows(n: int, g: np.random.Generator) -> np.ndarray:
    # Passengers per trip: 1 + Poisson; base mean slightly below Table 3's
    # 1.933 to offset the cascade draws.
    return (1 + g.poisson(0.74, n)).astype(np.float64)


def _cascades(
    pairs: pd.DataFrame,
    n_cascades: int,
    delta: float,
    span: float,
    g: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flow cascades: time-ordered interaction chains along random walks.

    Real interaction networks transfer flow along paths (the paper's core
    finding — Fig. 14's z-scores exist *because* flow is propagated, not
    generated/consumed arbitrarily). Each cascade walks the pair graph for
    2–5 hops, emitting 1–2 interactions per hop with inter-hop gaps in
    [delta/20, delta/4], so most cascades fit inside the default
    delta-window and instantiate chain/cycle motifs. Returns (src, dst, t)
    arrays; flows are assigned by the caller (flow-coherent: see generate).
    """
    from collections import defaultdict

    adj: dict[int, list[int]] = defaultdict(list)
    for u, v in zip(pairs.src.values, pairs.dst.values):
        adj[int(u)].append(int(v))
    starts = list(adj.keys())
    if not starts or n_cascades <= 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.float64))
    srcs: list[int] = []
    dsts: list[int] = []
    ts: list[float] = []
    for _ in range(n_cascades):
        start = starts[g.integers(0, len(starts))]
        u = start
        visited = [start]
        t = float(g.uniform(0, span * 0.95))
        hops = int(g.integers(2, 6))
        for hop in range(hops):
            outs = adj.get(u)
            if not outs:
                break
            # Bias late hops back to an already-visited node when the
            # structure allows, realizing *temporal* cycles — including the
            # return-to-middle variants M(4,4)B/C and M(5,5)B/C.
            back = [w for w in visited if w in outs] if hop >= 1 else []
            if back and g.random() < 0.5:
                v = back[g.integers(0, len(back))]
            else:
                v = outs[g.integers(0, len(outs))]
            reps = 2 if g.random() < 0.3 else 1
            for r in range(reps):
                srcs.append(u)
                dsts.append(v)
                ts.append(t + r * delta / 40)
            t += float(g.uniform(delta / 20, delta / 4))
            u = v
            if v not in visited:
                visited.append(v)
    return (
        np.asarray(srcs, np.int64),
        np.asarray(dsts, np.int64),
        np.asarray(ts, np.float64),
    )


def _cycle_cascades(
    cycles: Cycles,
    n_cascades: int,
    delta: float,
    span: float,
    g: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Temporal cascades along structural cycles created by closure.

    A sampled cycle (n0, ..., nk) emits time-ordered interactions along
    n0->n1->...->nk->n0 within roughly one delta-window, so cyclic motifs
    are realized in time as well as structure (the paper observes cyclic
    flow to be common in Bitcoin/Facebook).
    """
    if not cycles or n_cascades <= 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.float64))
    srcs: list[int] = []
    dsts: list[int] = []
    ts: list[float] = []
    for _ in range(n_cascades):
        cyc = cycles[g.integers(0, len(cycles))]
        edges = list(zip(cyc, cyc[1:])) + [(cyc[-1], cyc[0])]
        t = float(g.uniform(0, span * 0.95))
        for u, v in edges:
            reps = 2 if g.random() < 0.25 else 1
            for r in range(reps):
                srcs.append(u)
                dsts.append(v)
                ts.append(t + r * delta / 40)
            t += float(g.uniform(delta / 20, delta / 6))
    return (
        np.asarray(srcs, np.int64),
        np.asarray(dsts, np.int64),
        np.asarray(ts, np.float64),
    )


def _ensure_unique(ts: np.ndarray, g: np.random.Generator) -> np.ndarray:
    """Nudge duplicate timestamps by tiny epsilons (uniqueness assumption)."""
    ts = ts.copy()
    while True:
        order = np.argsort(ts, kind="stable")
        sorted_ts = ts[order]
        dup = np.flatnonzero(np.diff(sorted_ts) == 0)
        if len(dup) == 0:
            return ts
        ts[order[dup + 1]] += g.uniform(1e-4, 1e-3, size=len(dup))


def generate(kind: str, *, sf: float = 1.0, seed: int = 0) -> pd.DataFrame:
    """Generate the ``kind`` network ('bitcoin'|'facebook'|'passenger')."""
    spec = SPECS[kind]
    # Stable per-(kind, seed) stream: Python's hash() is process-salted,
    # so derive the seed arithmetically instead.
    g = np.random.default_rng(seed * 7919 + list(SPECS).index(kind) + 1)
    n_pairs = max(8, int(spec.n_pairs * sf))
    n_nodes = max(10, int(spec.n_nodes * sf)) if kind != "passenger" else max(
        12, min(spec.n_nodes, int(spec.n_nodes * max(sf, 0.2)))
    )
    if kind == "bitcoin":
        pairs, cycles = _bitcoin_pairs(n_nodes, n_pairs, g)
        flow_fn = _bitcoin_flows
        grid = None
    elif kind == "facebook":
        pairs, cycles = _facebook_pairs(n_nodes, n_pairs, g)
        flow_fn = _facebook_flows
        grid = 30.0
    elif kind == "passenger":
        pairs, cycles = _passenger_pairs(n_nodes, n_pairs, g)
        flow_fn = _passenger_flows
        grid = None
    else:  # pragma: no cover - guarded by SPECS lookup above
        raise ValueError(kind)
    # Background interactions: uniform in time over the connected pairs.
    # Cascades supply the rest of the multi-edge budget (mult_mean is the
    # combined target), so background multiplicity is a plain Poisson that
    # may be 0 — a pair touched by no interaction at all simply does not
    # appear in the realized multigraph.
    mult = g.poisson(spec.bg_mult, len(pairs))
    bg_src = np.repeat(pairs.src.values, mult).astype(np.int64)
    bg_dst = np.repeat(pairs.dst.values, mult).astype(np.int64)
    n_bg = len(bg_src)
    bg_t = _unique_timestamps(n_bg, spec.span, g, grid=grid)
    order = g.permutation(n_bg)  # decouple (pair -> time) correlation
    bg_src, bg_dst = bg_src[order], bg_dst[order]
    bg_f = flow_fn(n_bg, g)

    # Flow cascades (see _cascades): flows drawn as the max of two base
    # draws, making cascade flows coherently high — the signal that the
    # Fig. 14 flow-permutation destroys, yielding positive z-scores.
    walk_frac = {"bitcoin": 0.05, "facebook": 0.10, "passenger": 0.26}[kind]
    cycle_frac = {"bitcoin": 0.20, "facebook": 0.30, "passenger": 0.0}[kind]
    w_src, w_dst, w_t = _cascades(
        pairs, int(len(pairs) * walk_frac), spec.delta_default, spec.span, g
    )
    y_src, y_dst, y_t = _cycle_cascades(
        cycles, int(len(cycles) * cycle_frac), spec.delta_default, spec.span, g
    )
    c_src = np.concatenate([w_src, y_src])
    c_dst = np.concatenate([w_dst, y_dst])
    c_t = np.concatenate([w_t, y_t])
    c_f = np.maximum(flow_fn(len(c_src), g), flow_fn(len(c_src), g))

    pdf = pd.DataFrame(
        {
            "src": np.concatenate([bg_src, c_src]),
            "dst": np.concatenate([bg_dst, c_dst]),
            "t": _ensure_unique(np.concatenate([bg_t, c_t]), g),
            "f": np.concatenate([bg_f, c_f]),
        }
    )
    return pdf.sort_values("t", ignore_index=True)


def time_prefix(pdf: pd.DataFrame, frac: float, kind: str) -> pd.DataFrame:
    """Fig. 13 sampling: interactions in the first ``frac`` of the span."""
    return pdf[pdf.t <= SPECS[kind].span * frac].reset_index(drop=True)


def stats(pdf: pd.DataFrame) -> dict[str, float]:
    """Table 3 statistics of a generated network."""
    return {
        "n_nodes": int(pd.concat([pdf.src, pdf.dst]).nunique()),
        "n_pairs": int(pdf[["src", "dst"]].drop_duplicates().shape[0]),
        "n_edges": int(len(pdf)),
        "avg_flow": float(pdf.f.mean()),
    }
