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

import time
from typing import Callable, Iterator, Sequence

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.dp import max_flow as dp_max_flow
from repro.core.motif import MOTIF_ORDER, MOTIFS, Motif
from repro.core.topk import topk_flows
from repro.networks.generators import DATASETS, SPECS, generate, time_prefix
from repro.spark import search as sp
from repro.spark.graph import (
    check_interactions,
    dataset_stats,
    distinct_pairs,
    timeseries_graph,
)
from repro.spark.join_baseline import count_instances_join, join_intermediate_counts
from repro.spark.significance import significance
from repro.spark.structural import structural_matches_df

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


def defaults(kind: str) -> tuple[float, float]:
    """The paper's default (delta, phi) for one dataset (§ 6.2)."""
    spec = SPECS[kind]
    return spec.delta_default, spec.phi_default


def _cells(
    spark: SparkSession, sf: float, seed: int, motifs: Sequence[str]
) -> Iterator[tuple[str, DataFrame, float, float, Motif]]:
    """``(kind, edges, delta, phi, motif)`` for every dataset and motif, at
    the dataset's default (delta, phi)."""
    for kind in DATASETS:
        edges = load(spark, kind, sf=sf, seed=seed)
        delta, phi = defaults(kind)
        for name in motifs:
            yield kind, edges, delta, phi, MOTIFS[name]


def _timed(fn: Callable, *args) -> tuple:
    """``(fn(*args), wall-clock seconds)``."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


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
    """Runtime of the two-phase algorithm vs the join baseline at defaults.

    Both return the same instance count (asserted in tests); the paper
    reports the two-phase algorithm ~2x faster. One untimed run of each on
    the first cell warms the session first, so that the first timed cell
    does not pay for it.
    """
    cells = list(_cells(spark, sf, seed, motifs))
    if cells:
        _, edges, delta, phi, motif = cells[0]
        sp.count_instances(edges, motif, delta, phi)
        count_instances_join(edges, motif, delta, phi)
    rows = []
    for kind, edges, delta, phi, motif in cells:
        n_two, t_two = _timed(sp.count_instances, edges, motif, delta, phi)
        n_join, t_join = _timed(count_instances_join, edges, motif, delta, phi)
        rows.append(
            dict(dataset=kind, motif=motif.name, instances=n_two,
                 instances_join=n_join,
                 twophase_seconds=round(t_two, 3),
                 join_seconds=round(t_join, 3),
                 speedup=round(t_join / t_two, 2) if t_two else float("nan"))
        )
    return pd.DataFrame(rows)


def fig8_intermediates(
    spark: SparkSession,
    *,
    sf: float = DEFAULT_SF,
    seed: int = 0,
    motifs: Sequence[str] = ("M(3,2)", "M(4,3)"),
) -> pd.DataFrame:
    """Fig. 8 mechanism: the join baseline's intermediate cardinalities.

    The paper attributes the baseline's slowness to sub-motif instances
    that never extend to full instances; this reports the cascade's
    cardinality after every join step next to the final maximal-instance
    count, so the redundancy ratio is explicit even where wall-clock at
    laptop scale is overhead-dominated (see EXPERIMENTS.md).
    """
    rows = []
    for kind, edges, delta, phi, motif in _cells(spark, sf, seed, motifs):
        counts = join_intermediate_counts(edges, motif, delta, phi)
        final = sp.count_instances(edges, motif, delta, phi)
        rows.append(
            dict(dataset=kind, motif=motif.name,
                 intervals=counts[0],
                 step_counts=str(counts[1:]),
                 peak_intermediate=max(counts),
                 maximal_instances=final,
                 redundancy=round(max(counts) / final, 1) if final else None)
        )
    return pd.DataFrame(rows)


def fig12_kernel(
    spark: SparkSession,
    *,
    sf: float = DEFAULT_SF,
    seed: int = 0,
    motifs: Sequence[str] = ("M(3,2)", "M(3,3)"),
) -> pd.DataFrame:
    """Fig. 12 at the algorithm level: P2 kernel time, heap top-1 vs DP.

    Collects every structural match's series to the driver and times the
    two per-match kernels back-to-back, excluding all Spark scheduling
    overhead — the comparison the paper's single-machine Python
    implementation actually makes.
    """
    rows = []
    for kind, edges, delta, _, motif in _cells(spark, sf, seed, motifs):
        all_series = [
            sp.match_series(r, motif.m)
            for r in sp.matches_with_series(edges, motif).collect()
        ]
        top, t_heap = _timed(topk_flows, all_series, delta, 1)
        best, t_dp = _timed(
            lambda: max((dp_max_flow(s, delta) for s in all_series), default=0.0)
        )
        rows.append(
            dict(dataset=kind, motif=motif.name, matches=len(all_series),
                 top1_flow=top[0] if top else 0.0, dp_flow=best,
                 heap_kernel_seconds=round(t_heap, 4),
                 dp_kernel_seconds=round(t_dp, 4),
                 dp_speedup=round(t_heap / t_dp, 2) if t_dp else None)
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
def fig12_dp(
    spark: SparkSession,
    *,
    sf: float = DEFAULT_SF,
    seed: int = 0,
    motifs: Sequence[str] = ("M(3,2)", "M(3,3)"),
) -> pd.DataFrame:
    """Top-1 search runtime: general top-k (k=1) vs the DP module."""
    rows = []
    for kind, edges, delta, _, motif in _cells(spark, sf, seed, motifs):
        top, t_heap = _timed(sp.topk_flows, edges, motif, delta, 1)
        best, t_dp = _timed(sp.max_flow, edges, motif, delta)
        rows.append(
            dict(dataset=kind, motif=motif.name,
                 top1_flow=top[0] if top else 0.0, dp_flow=best,
                 heap_seconds=round(t_heap, 3), dp_seconds=round(t_dp, 3))
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
    """#instances and runtime on time-prefix samples (B1..B5 analogues)."""
    rows = []
    for kind in DATASETS:
        pdf = check_interactions(generate(kind, sf=sf, seed=seed))
        delta, phi = defaults(kind)
        for frac in fractions:
            sample = time_prefix(pdf, frac, kind)
            edges = spark.createDataFrame(
                sample, schema="src long, dst long, t double, f double"
            )
            n, secs = _timed(sp.count_instances, edges, MOTIFS[motif], delta, phi)
            rows.append(
                dict(dataset=kind, motif=motif, fraction=frac,
                     n_edges=len(sample), instances=n, seconds=round(secs, 3))
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
