"""Per-layer metrics of a traced run, measured from outside the program.

Each layer is timed as a cumulative prefix of the query plan, by calling the
public function that ends at that layer and forcing it with ``count()``:
G_T, then P1, then P1 + series attach. Later layers are the difference
between a longer prefix and the timed query itself, so no layer is cached
on its own and the plans being measured are the queries' own plans. Times
and counts are summed over the workload's *full* cells (those that run
count, find, topk, maxflow and join); differences of two timings can come
out slightly negative when a layer costs less than the noise.

The driver-side kernel timings collect the cell's structural matches with
their series and run Algorithm 1, the top-k heap and the Algorithm 2 DP on
one thread, over a seeded subset of KERNEL_SAMPLE matches when a cell has
more.
"""
from __future__ import annotations

import random
import resource
import statistics
import time
from typing import Callable

from repro.core.dp import max_flow as dp_max_flow
from repro.core.instances import Series, enumerate_instances
from repro.core.motif import MOTIFS
from repro.core.topk import TopKHeap, topk_scan_match
from repro.spark import search as sp
from repro.spark.graph import distinct_pairs, timeseries_graph
from repro.spark.join_baseline import candidate_instances_join, intervals
from repro.spark.significance import permute_flows
from repro.spark.structural import structural_matches_df

from perfbench.checks import Outcome
from perfbench.harness import Bench, Tracer
from perfbench.workloads import FULL_KINDS, KINDS, TOPK_K, Cell

#: Most structural matches per cell fed to the driver-side kernel timings.
KERNEL_SAMPLE = 20_000

#: per_layer metric name -> unit; the order BENCHMARK.json lists them in.
UNITS = {
    "generators.gen_s": "s",
    "generators.edges": "count",
    "graph.gt_s": "s",
    "graph.pairs": "count",
    "structural.p1_s": "s",
    "structural.matches": "count",
    "search.attach_s": "s",
    "search.wide_rows": "count",
    "search.p2_s": "s",
    "search.materialise_s": "s",
    "search.instances": "count",
    "kernel.series_build_s": "s",
    "kernel.enum_s": "s",
    "kernel.topk_s": "s",
    "kernel.dp_s": "s",
    "kernel.matches": "count",
    "kernel.windows": "count",
    "kernel.instances_per_window": "ratio",
    "join.intervals_s": "s",
    "join.intervals": "count",
    "join.cascade_s": "s",
    "join.candidates": "count",
    "join.filter_s": "s",
    "join.useful_ratio": "ratio",
    "signif.permute_s": "s",
    "signif.rerun_s": "s",
    **{
        f"spark.{k}.{c}": "bytes" if c == "shuffle_write_bytes" else "count"
        for k in KINDS
        for c in ("jobs", "stages", "tasks", "shuffle_write_bytes")
    },
    "jvm.peak_rss_mb": "MB",
    "driver.peak_rss_mb": "MB",
    "trace.overhead_frac": "ratio",
}


def _timed(tracer: Tracer, name: str, fn: Callable[[], int], **attrs) -> tuple[float, int]:
    with tracer.span(name, **attrs) as rec:
        t0 = time.perf_counter()
        n = fn()
        seconds = time.perf_counter() - t0
    rec["attrs"]["rows"] = n
    return seconds, n


def _latency(outcomes: list[Outcome], kind: str, cell: Cell) -> float:
    return statistics.median(
        o.seconds for o in outcomes if o.query.kind == kind and o.query.cell == cell
    )


def _answer(outcomes: list[Outcome], kind: str, cell: Cell):
    """The cell's answer, 0 when every such query raised (the run then
    reports the failure)."""
    return next(
        (o.answer for o in outcomes if o.query.kind == kind and o.query.cell == cell and o.error is None),
        0,
    )


def _kernel(bench: Bench, tracer: Tracer, cell: Cell, acc: dict[str, float]) -> None:
    motif = MOTIFS[cell.motif]
    delta, phi = bench.params(cell)
    rows = sp.matches_with_series(bench.frames[cell.dataset], motif).collect()
    if len(rows) > KERNEL_SAMPLE:
        rows = random.Random(bench.seed).sample(rows, KERNEL_SAMPLE)
    with tracer.span("kernel", cell=cell.label(), matches=len(rows)):
        t0 = time.perf_counter()
        matches = [
            [Series(zip(r[f"ts{i}"], r[f"fs{i}"])) for i in range(motif.m)] for r in rows
        ]
        t1 = time.perf_counter()
        instances = sum(len(enumerate_instances(s, delta, phi)) for s in matches)
        t2 = time.perf_counter()
        heap = TopKHeap(TOPK_K)
        for s in matches:
            topk_scan_match(s, delta, heap)
        t3 = time.perf_counter()
        for s in matches:
            dp_max_flow(s, delta)
        t4 = time.perf_counter()
    acc["kernel.series_build_s"] += t1 - t0
    acc["kernel.enum_s"] += t2 - t1
    acc["kernel.topk_s"] += t3 - t2
    acc["kernel.dp_s"] += t4 - t3
    acc["kernel.matches"] += len(matches)
    acc["kernel.windows"] += sum(len(s[0]) for s in matches)
    acc["_kernel_instances"] += instances


def _jvm_peak_rss_mb(bench: Bench) -> float:
    pid = bench.spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status of the JVM")


def layer_metrics(
    bench: Bench, tracer: Tracer, traced: list[Outcome], overhead_frac: float
) -> dict[str, float]:
    """Every per-layer metric of UNITS, from the traced round ``traced``."""
    acc: dict[str, float] = {name: 0.0 for name in UNITS}
    acc["_kernel_instances"] = 0.0
    acc["generators.gen_s"] = statistics.median(bench.gen_seconds)
    acc["generators.edges"] = sum(len(pdf) for pdf in bench.inputs.values())

    kinds_by_cell: dict[Cell, set[str]] = {}
    for q in bench.workload.queries:
        kinds_by_cell.setdefault(q.cell, set()).add(q.kind)
    full = [c for c, ks in kinds_by_cell.items() if set(FULL_KINDS) <= ks]
    for name in dict.fromkeys(c.dataset for c in full):
        s, n = _timed(tracer, "graph.gt", lambda: timeseries_graph(bench.frames[name]).count(), dataset=name)
        acc["graph.gt_s"] += s
        acc["graph.pairs"] += n
    for cell in full:
        e = bench.frames[cell.dataset]
        motif = MOTIFS[cell.motif]
        delta, phi = bench.params(cell)
        label = cell.label()
        p1, matches = _timed(tracer, "structural.p1", lambda: structural_matches_df(distinct_pairs(e), motif).count(), cell=label)
        attach, wide = _timed(tracer, "search.attach", lambda: sp.matches_with_series(e, motif).count(), cell=label)
        count_s = _latency(traced, "count", cell)
        acc["structural.p1_s"] += p1
        acc["structural.matches"] += matches
        acc["search.attach_s"] += attach - p1
        acc["search.wide_rows"] += wide
        acc["search.p2_s"] += count_s - attach
        acc["search.materialise_s"] += _latency(traced, "find", cell) - count_s
        acc["search.instances"] += _answer(traced, "count", cell)
        _kernel(bench, tracer, cell, acc)
        iv_s, n_iv = _timed(tracer, "join.intervals", lambda: intervals(e, delta, phi).count(), cell=label)
        cas_s, n_cand = _timed(tracer, "join.cascade", lambda: candidate_instances_join(e, motif, delta, phi).count(), cell=label)
        acc["join.intervals_s"] += iv_s
        acc["join.intervals"] += n_iv
        acc["join.cascade_s"] += cas_s
        acc["join.candidates"] += n_cand
        acc["join.filter_s"] += _latency(traced, "join", cell) - cas_s
    acc["join.useful_ratio"] = acc["search.instances"] / max(acc["join.candidates"], 1)
    acc["kernel.instances_per_window"] = acc.pop("_kernel_instances") / max(acc["kernel.windows"], 1)

    for cell in dict.fromkeys(q.cell for q in bench.workload.queries if q.kind == "signif"):
        e = bench.frames[cell.dataset]
        delta, phi = bench.params(cell)
        permuted = permute_flows(e, seed=bench.seed * 1000)
        s, _ = _timed(tracer, "signif.permute", permuted.count, cell=cell.label())
        acc["signif.permute_s"] += s
        s, _ = _timed(tracer, "signif.rerun", lambda: sp.count_instances(permuted, MOTIFS[cell.motif], delta, phi), cell=cell.label())
        acc["signif.rerun_s"] += s

    for kind in KINDS:
        counters = [o.counters for o in traced if o.query.kind == kind and o.counters]
        for c in ("jobs", "stages", "tasks", "shuffle_write_bytes"):
            acc[f"spark.{kind}.{c}"] = statistics.median(x[c] for x in counters)
    acc["jvm.peak_rss_mb"] = _jvm_peak_rss_mb(bench)
    acc["driver.peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    acc["trace.overhead_frac"] = overhead_frac
    return acc
