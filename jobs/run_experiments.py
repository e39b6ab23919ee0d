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
import sys

from pyspark.sql import SparkSession

from repro import experiments as ex

NAMES = (
    "table3",
    "table4",
    "fig8",
    "fig8_intermediates",
    "fig9_delta",
    "fig10_phi",
    "fig11_topk",
    "fig12_dp",
    "fig12_kernel",
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

    spark = SparkSession.builder.appName("run_experiments").getOrCreate()
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
