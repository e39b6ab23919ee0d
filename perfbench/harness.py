"""Set-up, warm-up and the closed query loop of one benchmark run.

One client sends each query only after the previous one returned, against
one local-mode SparkSession. Every timed query consumes its result inside
the timed region (a count, a collect or a driver-side list), so the latency
is the whole query.
"""
from __future__ import annotations

import statistics
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core import search as core_search
from repro.core.motif import MOTIFS
from repro.networks.generators import SPECS, generate
from repro.spark import search as sp
from repro.spark.join_baseline import count_instances_join
from repro.spark.significance import significance

from perfbench import stats
from perfbench.checks import COUNTING, Outcome, check
from perfbench.workloads import (
    LATENCY_GROUPS,
    N_RANDOM,
    PINNED_SEED0,
    TOPK_K,
    Cell,
    Query,
    Workload,
    latency_group,
)

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3


def start_session(cores: int) -> SparkSession:
    """The session the repository's tests use, on ``local[cores]``.

    Master, memory and directories come from PYSPARK_SUBMIT_ARGS (set by
    run.py before pyspark starts the JVM); these are the per-session
    settings of the test suite's fixture.
    """
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


class Tracer:
    """Spans kept in memory and written with the run record at the end."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "attrs": attrs,
            "start": time.perf_counter(),
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def engine_counters(spark: SparkSession, group: str) -> dict[str, int]:
    """Jobs, executed stages, completed tasks and shuffle bytes written by
    the jobs of one job group, from the status tracker and status store."""
    sc = spark.sparkContext
    tracker = sc.statusTracker()
    store = sc._jsc.sc().statusStore()
    jobs = tracker.getJobIdsForGroup(group)
    stage_ids = {s for j in jobs if (info := tracker.getJobInfo(j)) for s in info.stageIds}
    out = {"jobs": len(jobs), "stages": 0, "tasks": 0, "shuffle_write_bytes": 0}
    for s in stage_ids:
        data = store.lastStageAttempt(s)
        if str(data.status()) == "SKIPPED":
            continue
        out["stages"] += 1
        out["tasks"] += data.numCompleteTasks()
        out["shuffle_write_bytes"] += data.shuffleWriteBytes()
    return out


@dataclass
class Bench:
    spark: SparkSession
    workload: Workload
    seed: int
    frames: dict[str, DataFrame] = field(default_factory=dict)
    inputs: dict[str, pd.DataFrame] = field(default_factory=dict)
    gen_seconds: list[float] = field(default_factory=list)
    setup_seconds: list[float] = field(default_factory=list)
    warm_up_seconds: float = 0.0
    _groups: int = 0

    # --- set-up ------------------------------------------------------------
    def setup(self) -> None:
        """Generate, create and cache every input; repeated SETUP_REPEATS
        times, keeping the last set of frames."""
        for _ in range(SETUP_REPEATS):
            for df in self.frames.values():
                df.unpersist(blocking=True)
            t0 = time.perf_counter()
            gen = 0.0
            for name in self.workload.datasets:
                g0 = time.perf_counter()
                pdf = generate(name, sf=self.workload.sf, seed=self.seed)
                gen += time.perf_counter() - g0
                df = self.spark.createDataFrame(pdf).cache()
                df.count()
                self.frames[name] = df
                self.inputs[name] = pdf
            self.setup_seconds.append(time.perf_counter() - t0)
            self.gen_seconds.append(gen)

    # --- queries -----------------------------------------------------------
    def params(self, cell: Cell) -> tuple[float, float]:
        spec = SPECS[cell.dataset]
        return spec.delta_default * cell.delta_mul, spec.phi_default * cell.phi_mul

    def execute(self, q: Query) -> Any:
        """One call into the public API; the result is fully consumed."""
        e = self.frames[q.cell.dataset]
        m = MOTIFS[q.cell.motif]
        delta, phi = self.params(q.cell)
        if q.kind == "count":
            return sp.count_instances(e, m, delta, phi)
        if q.kind == "find":
            return len(sp.find_instances(e, m, delta, phi).collect())
        if q.kind == "topk":
            return sp.topk_flows(e, m, delta, TOPK_K)
        if q.kind == "maxflow":
            return sp.max_flow(e, m, delta)
        if q.kind == "join":
            return count_instances_join(e, m, delta, phi)
        if q.kind == "signif":
            r = significance(
                e, m, delta, phi, n_random=N_RANDOM, seed=self.seed
            )
            return r.real_count, r.random_counts
        raise ValueError(f"unknown query kind {q.kind!r}")

    def run_one(self, q: Query, tracer: Tracer | None = None) -> Outcome:
        """Time one query. With a tracer, the query runs in its own job group
        inside a span, and its engine counters are read after the clock
        stops."""
        group = None
        if tracer is not None:
            self._groups += 1
            group = f"perfbench-{self._groups}-{q.kind}"
            self.spark.sparkContext.setJobGroup(group, q.cell.label())
        answer, error = None, None
        with tracer.span(q.kind, cell=q.cell.label()) if tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                answer = self.execute(q)
            except Exception:  # a failed query is counted, never fatal
                error = traceback.format_exc(limit=3)
            seconds = time.perf_counter() - t0
        out = Outcome(q, seconds, answer, error)
        if group is not None:
            out.counters = engine_counters(self.spark, group)
        return out

    def warm_up(self) -> None:
        """One untimed query per kind, on the first cell that runs it."""
        t0 = time.perf_counter()
        seen: set[str] = set()
        for q in self.workload.queries:
            if q.kind not in seen:
                seen.add(q.kind)
                self.run_one(q)
        self.warm_up_seconds = time.perf_counter() - t0

    def tracing_overhead(self, tracer: Tracer) -> float:
        """Traced over untraced time of the queries of the round's first
        cell, run in alternating pairs, minus one. The spans of these
        queries stay in ``tracer``."""
        first = self.workload.queries[0].cell
        plain = traced = 0.0
        for q in dict.fromkeys(q for q in self.workload.queries if q.cell == first):
            plain += self.run_one(q).seconds
            traced += self.run_one(q, tracer).seconds
        return traced / plain - 1

    def rounds(self, seconds: float, tracer: Tracer | None = None) -> tuple[list[Outcome], float]:
        """Closed loop over whole rounds for about ``seconds``: at least one
        round, and another only while the last round's length still fits,
        so every run sends the same mix of queries."""
        outcomes: list[Outcome] = []
        t0 = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            outcomes += [self.run_one(q, tracer) for q in self.workload.queries]
            last = time.perf_counter() - r0
            if time.perf_counter() - t0 + last > seconds:
                return outcomes, time.perf_counter() - t0

    # --- answers -----------------------------------------------------------
    def reference_counts(self) -> dict[Cell, int]:
        """Pure-Python two-phase counts of every counted cell, when the
        workload is small enough for them."""
        if not self.workload.reference_counts:
            return {}
        cells = {q.cell for q in self.workload.queries if q.kind in COUNTING}
        edges = {
            name: list(pdf.itertuples(index=False, name=None))
            for name, pdf in self.inputs.items()
        }
        return {
            c: core_search.count_graph(edges[c.dataset], MOTIFS[c.motif], *self.params(c))
            for c in cells
        }

    def pinned_counts(self) -> dict[Cell, int]:
        if self.seed != 0:
            return {}
        return {
            q.cell: want
            for q in self.workload.queries
            if q.cell.is_default()
            and (want := PINNED_SEED0.get((self.workload.sf, q.cell.dataset, q.cell.motif)))
            is not None
        }

    def check(self, outcomes: list[Outcome]) -> tuple[set[int], list[str]]:
        return check(outcomes, reference=self.reference_counts(), pinned=self.pinned_counts())


def end_to_end(
    outcomes: list[Outcome], failed: set[int], wall: float, setup_s: float
) -> tuple[dict[str, tuple[float, str]], dict[str, Any]]:
    """The end-to-end metrics of one untraced loop as (value, unit), and the
    record's summary of it: the metrics, sample counts, the count tail and
    failed_frac."""
    samples = {g: [o.seconds for o in outcomes if latency_group(o.query) == g] for g in LATENCY_GROUPS}
    metrics = {"setup_s": (setup_s, "s")}
    for g in LATENCY_GROUPS:
        metrics[f"{g}_p50_s"] = (statistics.median(samples[g]), "s")
    metrics["queries_per_s"] = ((len(outcomes) - len(failed)) / wall, "1/s")
    count_tail = stats.tail([o.seconds for o in outcomes if o.query.kind == "count"])
    return metrics, {
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": {g: len(v) for g, v in samples.items()},
        "count_tail_s": None if count_tail is None else count_tail[0],
        "count_tail_percentile": None if count_tail is None else count_tail[1],
        "failed_frac": stats.failed_frac(len(outcomes), len(failed)),
        "timed_wall_s": wall,
    }
