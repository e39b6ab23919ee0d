"""Experiment harnesses: one function per paper table/figure (§ 6).

Each function takes a SparkSession and returns a pandas DataFrame whose rows
mirror what the paper reports, with the paper's own numbers alongside where
the artifact is a table (Tables 3 and 4). ``jobs/run_experiments.py``
runs them by name and is the only table/figure harness; EXPERIMENTS.md
records paper-vs-measured. Speed claims come from ``perfbench/``.

Absolute counts/runtimes are not comparable to the paper (our networks are
~1000x smaller synthetic stand-ins and the substrate is local-mode Spark);
the *shape* claims are: instances and runtime grow with delta, shrink with
phi; complex motifs have fewer matches but cost more in P1; the two-phase
algorithm beats the join baseline; the DP module beats heap top-1; real
counts beat flow-permuted counts (positive z-scores).
"""
from __future__ import annotations

import statistics
import time
from typing import Callable, Iterator, Sequence

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.dp import dp_window_table
from repro.core.dp import max_flow as dp_max_flow
from repro.core.instances import Series
from repro.core.motif import MOTIF_ORDER, MOTIFS, Motif
from repro.core.topk import topk_flows
from repro.networks.generators import DATASETS, SPECS, generate
from repro.spark import search as sp
from repro.spark.graph import (
    check_interactions,
    dataset_stats,
    distinct_pairs,
    timeseries_graph,
)
from repro.spark.join_baseline import count_instances_join, join_intermediate_counts
from repro.spark.significance import significance
from repro.spark.structural import sql_double, structural_matches_df

#: Paper Table 3 — statistics of the real datasets.
PAPER_TABLE3 = {
    "bitcoin": dict(n_nodes=24_600_000, n_pairs=88_900_000, n_edges=123_000_000, avg_flow=4.845),
    "facebook": dict(n_nodes=45_800, n_pairs=264_000, n_edges=856_000, avg_flow=3.014),
    "passenger": dict(n_nodes=289, n_pairs=77_896, n_edges=215_175, avg_flow=1.933),
}

#: Paper Table 4 — structural matches and P1 runtime (seconds).
PAPER_TABLE4 = {
    "bitcoin": {
        "M(3,2)": (634_000, 47.02), "M(3,3)": (485_000, 49.23),
        "M(4,3)": (484_000, 50.15), "M(4,4)A": (210_000, 57.05),
        "M(4,4)B": (205_000, 60.0), "M(4,4)C": (213_000, 61.16),
        "M(5,4)": (145_000, 64.35), "M(5,5)A": (122_000, 69.11),
        "M(5,5)B": (124_000, 73.02), "M(5,5)C": (121_000, 75.15),
    },
    "facebook": {
        "M(3,2)": (415_000, 40.02), "M(3,3)": (276_000, 43.43),
        "M(4,3)": (272_000, 44.21), "M(4,4)A": (113_000, 48.45),
        "M(4,4)B": (113_000, 49.32), "M(4,4)C": (114_000, 49.01),
        "M(5,4)": (97_000, 52.33), "M(5,5)A": (90_000, 50.12),
        "M(5,5)B": (91_000, 52.07), "M(5,5)C": (90_000, 54.31),
    },
    "passenger": {
        "M(3,2)": (27_893, 19.14), "M(3,3)": (16_455, 21.33),
        "M(4,3)": (25_778, 22.15), "M(4,4)A": (14_877, 26.22),
        "M(4,4)B": (14_569, 29.03), "M(4,4)C": (14_903, 29.11),
        "M(5,4)": (22_134, 25.04), "M(5,5)A": (12_345, 30.45),
        "M(5,5)B": (12_567, 31.14), "M(5,5)C": (12_009, 32.0),
    },
}

DEFAULT_SF = 0.5


_LOAD_CACHE: dict[tuple, DataFrame] = {}


def load(spark: SparkSession, kind: str, *, sf: float = DEFAULT_SF, seed: int = 0) -> DataFrame:
    """One synthetic network as a cached Spark DataFrame (src long, dst long,
    t double, f double): the input multigraph G(V, E) (DESIGN.md § 3).

    Memoized per ``(kind, sf, seed)`` so repeated harness calls reuse the
    same cached RDD. It and the network's stored G_T
    (:func:`repro.spark.graph.timeseries_graph`) are filled here, one
    ``count()`` each, so that no timed query pays for them. The input
    contract is checked once, here
    (:func:`repro.spark.graph.check_interactions`).
    """
    key = (kind, sf, seed)
    if key not in _LOAD_CACHE:
        pdf = check_interactions(generate(kind, sf=sf, seed=seed))
        edges = spark.createDataFrame(pdf).cache()
        edges.count()
        timeseries_graph(edges).count()
        _LOAD_CACHE[key] = edges
    return _LOAD_CACHE[key]


def _cells(
    spark: SparkSession, sf: float, seed: int, motifs: Sequence[str]
) -> Iterator[tuple[str, DataFrame, float, float, Motif]]:
    """``(kind, edges, delta, phi, motif)`` for every dataset and motif, at
    the dataset's default (delta, phi)."""
    for kind in DATASETS:
        edges = load(spark, kind, sf=sf, seed=seed)
        delta, phi = SPECS[kind].delta_default, SPECS[kind].phi_default
        for name in motifs:
            yield kind, edges, delta, phi, MOTIFS[name]


def _timed(fn: Callable, *args) -> tuple:
    """``(fn(*args), wall-clock seconds)``."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _median_seconds(fn: Callable, *args) -> float:
    """Median wall-clock seconds of 5 back-to-back ``fn(*args)`` calls."""
    return statistics.median(_timed(fn, *args)[1] for _ in range(5))


# --- Table 2 ---------------------------------------------------------------
#: Figure 7's structural match: the series of its three motif edges.
FIG7 = (
    Series([(10, 5), (13, 2), (15, 3)]),
    Series([(9, 4), (11, 3), (16, 3)]),
    Series([(14, 4), (19, 6)]),
)

#: Paper Table 2 — Flow([t1, t], kappa) over the window [10, 20], per kappa
#: and t as printed; blank cells are absent.
PAPER_TABLE2 = {
    1: {10: 5, 11: 5, 13: 7, 14: 7, 15: 7, 16: 7, 18: 10, 19: 10},
    2: {11: 3, 13: 3, 14: 3, 15: 3, 16: 5, 18: 5, 19: 5},
    3: {13: 0, 14: 4, 15: 4, 16: 4, 18: 4, 19: 5},
}


def table2(spark: SparkSession, *, sf: float = DEFAULT_SF, seed: int = 0) -> pd.DataFrame:
    """The DP module's trace: Equation 2 on Figure 7's match over the window
    [10, 20], one row per (kappa, t), ours vs the paper's (``paper_flow`` is
    NaN where the paper's cell is blank). The last row is the window's top-1
    flow. DESIGN.md § 3 explains the cells that differ.

    A single-match computation on the driver: ``spark``, ``sf`` and ``seed``
    are unused, so the runner calls it like every other harness.
    """
    ts, table = dp_window_table(FIG7, 10, 20)
    return pd.DataFrame(
        [
            dict(kappa=kappa, t=t, flow=flow, paper_flow=PAPER_TABLE2[kappa].get(t))
            for kappa, row in enumerate(table, start=1)
            for t, flow in zip(ts, row)
        ]
    )


# --- Table 3 ---------------------------------------------------------------
def table3(spark: SparkSession, *, sf: float = DEFAULT_SF, seed: int = 0) -> pd.DataFrame:
    """Dataset statistics, ours vs the paper's."""
    rows = []
    for kind in DATASETS:
        edges = load(spark, kind, sf=sf, seed=seed)
        got = dataset_stats(spark, edges).collect()[0]
        paper = PAPER_TABLE3[kind]
        rows.append(
            dict(
                dataset=kind,
                n_nodes=got.n_nodes, paper_n_nodes=paper["n_nodes"],
                n_pairs=got.n_pairs, paper_n_pairs=paper["n_pairs"],
                n_edges=got.n_edges, paper_n_edges=paper["n_edges"],
                avg_flow=round(got.avg_flow, 3), paper_avg_flow=paper["avg_flow"],
                edges_per_pair=round(got.n_edges / got.n_pairs, 3),
                paper_edges_per_pair=round(paper["n_edges"] / paper["n_pairs"], 3),
            )
        )
    return pd.DataFrame(rows)


# --- Table 4 ---------------------------------------------------------------
def table4(
    spark: SparkSession,
    *,
    sf: float = DEFAULT_SF,
    seed: int = 0,
    motifs: Sequence[str] = MOTIF_ORDER,
) -> pd.DataFrame:
    """Phase P1 structural matches and runtime, ours vs the paper's."""
    rows = []
    for kind, edges, _, _, motif in _cells(spark, sf, seed, motifs):
        n, secs = _timed(
            lambda: structural_matches_df(distinct_pairs(edges), motif).count()
        )
        p_n, p_t = PAPER_TABLE4[kind][motif.name]
        rows.append(
            dict(dataset=kind, motif=motif.name, matches=n, p1_seconds=round(secs, 3),
                 paper_matches=p_n, paper_p1_seconds=p_t)
        )
    return pd.DataFrame(rows)


# --- Fig. 8: two-phase vs join baseline ------------------------------------
def fig8(
    spark: SparkSession,
    *,
    sf: float = DEFAULT_SF,
    seed: int = 0,
    motifs: Sequence[str] = ("M(3,2)", "M(3,3)", "M(4,3)"),
) -> pd.DataFrame:
    """Runtime of the two-phase algorithm vs the join baseline at defaults,
    and the join's intermediate cardinalities.

    Both return the same instance count (asserted in tests); the paper
    reports the two-phase algorithm ~2x faster. The paper blames the
    baseline's sub-motif instances that never extend to full ones, so each
    cell then counts, untimed, the join cascade after every step and reports
    its peak over ``instances`` (``redundancy``), which shows the blow-up
    even where laptop-scale wall-clock is overhead (EXPERIMENTS.md).
    """
    rows = []
    for kind, edges, delta, phi, motif in _cells(spark, sf, seed, motifs):
        n_two, t_two = _timed(sp.count_instances, edges, motif, delta, phi)
        n_join, t_join = _timed(count_instances_join, edges, motif, delta, phi)
        counts = join_intermediate_counts(edges, motif, delta, phi)
        rows.append(
            dict(dataset=kind, motif=motif.name, instances=n_two,
                 instances_join=n_join,
                 twophase_seconds=round(t_two, 3),
                 join_seconds=round(t_join, 3),
                 speedup=round(t_join / t_two, 2) if t_two else float("nan"),
                 intervals=counts[0],
                 step_counts=str(counts[1:]),
                 peak_intermediate=max(counts),
                 redundancy=round(max(counts) / n_two, 1) if n_two else None)
        )
    return pd.DataFrame(rows)


# --- Figs. 9/10: sensitivity to delta and phi -------------------------------
def _sweep(
    spark: SparkSession,
    sf: float,
    seed: int,
    motifs: Sequence[str],
    grid: Callable[[float, float], Sequence[tuple[float, float]]],
) -> pd.DataFrame:
    """#instances and runtime at each (delta, phi) of ``grid(default delta,
    default phi)``."""
    rows = []
    for kind, edges, delta0, phi0, motif in _cells(spark, sf, seed, motifs):
        for delta, phi in grid(delta0, phi0):
            n, secs = _timed(sp.count_instances, edges, motif, delta, phi)
            rows.append(
                dict(dataset=kind, motif=motif.name, delta=delta, phi=phi,
                     instances=n, seconds=round(secs, 3))
            )
    return pd.DataFrame(rows)


def fig9_delta(
    spark: SparkSession,
    *,
    sf: float = DEFAULT_SF,
    seed: int = 0,
    motifs: Sequence[str] = ("M(3,2)", "M(3,3)", "M(4,3)"),
    delta_factors: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
) -> pd.DataFrame:
    """#instances and runtime vs delta (phi at its default)."""
    return _sweep(
        spark, sf, seed, motifs, lambda d, p: [(d * fac, p) for fac in delta_factors]
    )


def fig10_phi(
    spark: SparkSession,
    *,
    sf: float = DEFAULT_SF,
    seed: int = 0,
    motifs: Sequence[str] = ("M(3,2)", "M(3,3)", "M(4,3)"),
    phi_factors: Sequence[float] = (0.0, 0.5, 1.0, 2.0),
) -> pd.DataFrame:
    """#instances and runtime vs phi (delta at its default)."""
    return _sweep(
        spark, sf, seed, motifs, lambda d, p: [(d, p * fac) for fac in phi_factors]
    )


# --- Fig. 11: flow of the k-th instance -------------------------------------
def fig11_topk(
    spark: SparkSession,
    *,
    sf: float = DEFAULT_SF,
    seed: int = 0,
    motif: str = "M(3,2)",
    ks: Sequence[int] = (1, 5, 10, 50, 100),
) -> pd.DataFrame:
    """Flow of the k-th best instance for increasing k (delta default)."""
    rows = []
    for kind, edges, delta, _, m in _cells(spark, sf, seed, (motif,)):
        flows = sp.topk_flows(edges, m, delta, max(ks))
        for k in ks:
            rows.append(
                dict(dataset=kind, motif=motif, k=k,
                     kth_flow=flows[k - 1] if k <= len(flows) else None)
            )
    return pd.DataFrame(rows)


# --- Fig. 12: DP module vs heap top-1 ---------------------------------------
def fig12(
    spark: SparkSession,
    *,
    sf: float = DEFAULT_SF,
    seed: int = 0,
    motifs: Sequence[str] = ("M(3,2)", "M(3,3)"),
) -> pd.DataFrame:
    """Top-1 search runtime: general top-k (k=1) vs the DP module.

    ``heap_seconds`` and ``dp_seconds`` time the Spark queries, which give
    the two flows. Then the δ-pruned matches those queries feed P2 are
    collected to the driver once and the two per-match kernels are timed
    over their series without Spark's scheduling overhead: the comparison
    the paper's single-machine Python implementation makes. Each
    ``*_kernel_seconds`` is the median of 5 back-to-back timings (the
    kernels run for 0.1-16 ms), and ``dp_kernel_speedup`` is the ratio of
    the medians.
    """
    rows = []
    for kind, edges, delta, _, motif in _cells(spark, sf, seed, motifs):
        top, t_heap = _timed(sp.topk_flows, edges, motif, delta, 1)
        best, t_dp = _timed(sp.max_flow, edges, motif, delta)
        all_series = [
            sp.parse_match(r, motif)[1]
            for r in sp.matches_with_series(edges, motif, delta).collect()
        ]
        t_heap_k = _median_seconds(topk_flows, all_series, delta, 1)
        t_dp_k = _median_seconds(
            lambda: max((dp_max_flow(s, delta) for s in all_series), default=0.0)
        )
        rows.append(
            dict(dataset=kind, motif=motif.name, matches=len(all_series),
                 top1_flow=top[0] if top else 0.0, dp_flow=best,
                 heap_seconds=round(t_heap, 3), dp_seconds=round(t_dp, 3),
                 heap_kernel_seconds=round(t_heap_k, 6),
                 dp_kernel_seconds=round(t_dp_k, 6),
                 dp_kernel_speedup=round(t_heap_k / t_dp_k, 2) if t_dp_k else None)
        )
    return pd.DataFrame(rows)


# --- Fig. 13: scalability over time-prefix samples ---------------------------
def fig13_scalability(
    spark: SparkSession,
    *,
    sf: float = DEFAULT_SF,
    seed: int = 0,
    motif: str = "M(3,2)",
    fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
) -> pd.DataFrame:
    """#instances and runtime on time-prefix samples (B1..B5 analogues): the
    interactions of ``load``'s network with ``t <= span * fraction``. The
    prefixes are uncached, so each timed count also builds its G_T in the
    plan, unlike every other figure."""
    rows = []
    for kind, edges, delta, phi, m in _cells(spark, sf, seed, (motif,)):
        for frac in fractions:
            prefix = edges.filter(f"t <= {sql_double(SPECS[kind].span * frac)}")
            n, secs = _timed(sp.count_instances, prefix, m, delta, phi)
            rows.append(
                dict(dataset=kind, motif=motif, fraction=frac,
                     n_edges=prefix.count(), instances=n, seconds=round(secs, 3))
            )
    return pd.DataFrame(rows)


# --- Fig. 14: significance ----------------------------------------------------
def fig14_significance(
    spark: SparkSession,
    *,
    sf: float = DEFAULT_SF,
    seed: int = 0,
    motifs: Sequence[str] = ("M(3,2)", "M(3,3)", "M(4,3)"),
    n_random: int = 20,
) -> pd.DataFrame:
    """Real vs flow-permuted instance counts and z-scores per motif."""
    rows = []
    for kind, edges, delta, phi, motif in _cells(spark, sf, seed, motifs):
        res = significance(edges, motif, delta, phi, n_random=n_random, seed=seed)
        rows.append(
            dict(dataset=kind, motif=motif.name, real=res.real_count,
                 random_mean=round(res.mean, 2),
                 random_std=round(res.std, 2),
                 z_score=round(res.z_score, 2),
                 p_empirical=res.p_empirical)
        )
    return pd.DataFrame(rows)
