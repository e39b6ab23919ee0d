#!/usr/bin/env python
"""General flow-motif search entrypoint: enumerate, count, top-k or top-1.

Usage:
  spark-submit jobs/find_instances.py --dataset bitcoin --motif "M(3,3)" \
      [--sf 0.5] [--delta 600] [--phi 5] [--mode enumerate|count|topk|maxflow] [--k 10]
"""
import argparse
import math

from pyspark.sql import SparkSession

from repro import experiments
from repro.core.motif import MOTIFS
from repro.networks.generators import DATASETS, SPECS
from repro.spark import search as sp


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", choices=DATASETS, required=True)
    ap.add_argument("--motif", choices=sorted(MOTIFS), required=True)
    ap.add_argument("--sf", type=float, default=experiments.DEFAULT_SF)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--delta", type=float, default=None)
    ap.add_argument("--phi", type=float, default=None)
    ap.add_argument("--mode", choices=["enumerate", "count", "topk", "maxflow"],
                    default="count")
    ap.add_argument("--k", type=int, default=10)
    args = ap.parse_args()
    if args.k < 1:
        ap.error(f"--k must be >= 1, got {args.k}")
    if not (args.sf > 0 and math.isfinite(args.sf)):
        ap.error(f"--sf must be finite and > 0, got {args.sf}")
    if args.seed < 0:
        ap.error(f"--seed must be >= 0, got {args.seed}")
    for flag, x in (("--delta", args.delta), ("--phi", args.phi)):
        if x is not None and not math.isfinite(x):
            ap.error(f"{flag} must be finite, got {x}")

    spark = SparkSession.builder.appName("find_instances").getOrCreate()
    edges = experiments.load(spark, args.dataset, sf=args.sf, seed=args.seed)
    spec = SPECS[args.dataset]
    delta = args.delta if args.delta is not None else spec.delta_default
    phi = args.phi if args.phi is not None else spec.phi_default
    motif = MOTIFS[args.motif]

    if args.mode == "enumerate":
        sp.find_instances(edges, motif, delta, phi).show(50, truncate=False)
    elif args.mode == "count":
        print(f"instances: {sp.count_instances(edges, motif, delta, phi)}")
    elif args.mode == "topk":
        print(f"top-{args.k} flows: {sp.topk_flows(edges, motif, delta, args.k)}")
    else:
        print(f"max flow: {sp.max_flow(edges, motif, delta)}")
    spark.stop()


if __name__ == "__main__":
    main()
