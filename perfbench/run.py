"""Benchmark of the flow-motif query pipeline: one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mix-sf0.5 --seed 0 --seconds 25 --trace 0

A run starts one local-mode SparkSession on ``local[K]`` (K = usable
cores), generates, creates and caches the workload's networks from
``--seed`` (set-up, repeated and its median reported), runs one untimed
query of each kind (warm-up), then runs the workload's rounds of queries
for about ``--seconds`` and checks every answer (checks.py).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` then also runs
the first cell's queries in untraced/traced pairs (the tracing overhead)
and one traced round (own job group and span per query), probes each layer
(layers.py) and prints the per-layer metrics instead. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a human-readable summary goes to standard
error, and the run record (environment, per-query log, spans) to
``.perfbench_out/`` in the checkout.

Exits 2 without a result when the checkout holds no ``src/repro``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
DRIVER_MEMORY = "2g"


def _source_digest() -> str:
    """sha256 over the program's sources, naming the code a run measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not itself the
    top of a git work tree."""
    try:
        r = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return None
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _configure_environment(cores: int) -> None:
    """Keep Spark, its Python workers and temp files inside the checkout.

    Must run before pyspark launches the JVM, which reads
    PYSPARK_SUBMIT_ARGS once.
    """
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    sys.path[:0] = [str(ROOT), src]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, str(ROOT), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{cores}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            # the status store must still hold a query's stages when its
            # engine counters are read (the default keeps the last 1000)
            "--conf spark.ui.retainedJobs=100000",
            "--conf spark.ui.retainedStages=100000",
            f"--conf spark.local.dir={tmp}",
            f"--conf spark.sql.warehouse.dir={tmp / 'warehouse'}",
            f"--conf spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp}",
            "pyspark-shell",
        ]
    )


def _stop(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.stdin.close()
            proc.wait(timeout=60)


def run(
    workload_name: str, seed: int, seconds: float, trace: bool, cores: int
) -> tuple[dict, dict]:
    """One benchmark run: the result line and the run record."""
    from perfbench import harness
    from perfbench.workloads import N_RANDOM, WORKLOADS

    workload = WORKLOADS[workload_name]
    t0 = time.perf_counter()
    spark = harness.start_session(cores)
    session_s = time.perf_counter() - t0
    try:
        bench = harness.Bench(spark, workload, seed)
        bench.setup()
        setup_s = session_s + statistics.median(bench.setup_seconds)
        bench.warm_up()
        outcomes, wall = bench.rounds(seconds)
        traced: list = []
        if trace:
            from perfbench.layers import UNITS, layer_metrics

            tracer = harness.Tracer()
            overhead = bench.tracing_overhead(tracer)
            traced, _ = bench.rounds(0, tracer)  # exactly one round
            layers = layer_metrics(bench, tracer, traced, overhead)
            metrics = {k: (layers[k], u) for k, u in UNITS.items()}
        failed, why = bench.check(outcomes + traced)
        e2e_metrics, e2e = harness.end_to_end(
            outcomes, {i for i in failed if i < len(outcomes)}, wall, setup_s
        )
        if not trace:
            metrics = e2e_metrics
        record = {
            "workload": workload_name,
            "phases_s": {
                "run": time.perf_counter() - t0,
                "session": session_s,
                "setup": sum(bench.setup_seconds),
                "warm_up": bench.warm_up_seconds,
                "timed": wall,
            },
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "git_sha": _git_sha(),
            "source_sha256": _source_digest(),
            "nproc": cores,
            "master": spark.sparkContext.master,
            "spark_version": spark.version,
            "python": platform.python_version(),
            "sf": workload.sf,
            "datasets": list(workload.datasets),
            "n_random": N_RANDOM,
            "setup_repeats_s": bench.setup_seconds,
            "generate_repeats_s": bench.gen_seconds,
            **e2e,
            # the printed metrics: end-to-end, or per-layer when traced
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "failures": why,
            "queries": [
                {
                    "kind": o.query.kind,
                    "cell": o.query.cell.label(),
                    "traced": i >= len(outcomes),
                    "seconds": o.seconds,
                    "answer": o.answer,
                    "error": o.error,
                    "counters": o.counters,
                }
                for i, o in enumerate(outcomes + traced)
            ],
        }
        if trace:
            record["tracing_overhead_frac"] = overhead
            record["spans"] = tracer.spans
    finally:
        _stop(spark)
    result = {
        "correct": not failed,
        "attempted": len(outcomes) + len(traced),
        "failed": len(failed),
        "metrics": record["metrics"],
    }
    return result, record


def _summary(record: dict) -> str:
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} trace={int(record['trace'])}"
        f" nproc={record['nproc']} spark={record['spark_version']} sf={record['sf']}",
    ]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    tail = record["count_tail_s"]
    lines.append(
        "  count_tail_s                         "
        + (
            f"{tail:.6g} s (p{record['count_tail_percentile']:.0f})"
            if tail is not None
            else f"n/a ({record['samples']['count'] + record['samples']['sweep']} count samples; a tail needs 20)"
        )
    )
    lines.append(f"  failed_frac                          {record['failed_frac']:.6g}")
    lines.append(f"  samples {record['samples']}")
    lines += [f"  FAILED: {w}" for w in record["failures"]]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run it from a checkout", file=sys.stderr)
        return 2
    cores = len(os.sched_getaffinity(0))
    _configure_environment(cores)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), cores)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print(_summary(record), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
