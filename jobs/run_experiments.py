#!/usr/bin/env python
"""Run table/figure harnesses of ``repro.experiments`` and print their frames.

Each name is an ``experiments`` function; with no names given, all of them
run in the order below, which produces the numbers in EXPERIMENTS.md.
``--n-random`` is the number of random graphs of fig14_significance (the
paper uses 20).

Usage: spark-submit jobs/run_experiments.py [name ...] [--sf 0.5] [--seed 0]
       [--n-random 20] [--out experiments_raw.txt]
"""
import argparse
import contextlib
import math
import sys

from pyspark.sql import SparkSession

from repro import experiments as ex
from repro.spark import search as sp
from repro.spark.join_baseline import count_instances_join

NAMES = (
    "table2",
    "table3",
    "table4",
    "fig8",
    "fig9_delta",
    "fig10_phi",
    "fig11_topk",
    "fig12",
    "fig13_scalability",
    "fig14_significance",
)


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("names", nargs="*", metavar="name", help=" ".join(NAMES))
    ap.add_argument("--sf", type=float, default=ex.DEFAULT_SF)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-random", type=int, default=20)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    unknown = sorted(set(args.names) - set(NAMES))
    if unknown:
        ap.error(f"unknown experiment(s): {', '.join(unknown)}")
    if args.n_random < 1:
        ap.error(f"--n-random must be >= 1, got {args.n_random}")
    if not (args.sf > 0 and math.isfinite(args.sf)):
        ap.error(f"--sf must be finite and > 0, got {args.sf}")
    if args.seed < 0:
        ap.error(f"--seed must be >= 0, got {args.seed}")

    spark = SparkSession.builder.appName("run_experiments").getOrCreate()
    # Start the Python workers before the first timed cell of any harness.
    _, edges, delta, phi, motif = next(ex._cells(spark, args.sf, args.seed, ("M(3,2)",)))
    sp.count_instances(edges, motif, delta, phi)
    count_instances_join(edges, motif, delta, phi)
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        for name in args.names or NAMES:
            kwargs = dict(sf=args.sf, seed=args.seed)
            if name == "fig14_significance":
                kwargs["n_random"] = args.n_random
            df = getattr(ex, name)(spark, **kwargs)
            print(f"\n=== {name} (sf={args.sf}, seed={args.seed}) ===", file=out)
            print(df.to_string(index=False), file=out)
            out.flush()
    spark.stop()


if __name__ == "__main__":
    main()
