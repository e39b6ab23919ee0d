"""Fig. 12 kernel benchmark: per-match P2 time, heap top-1 vs DP module.

Times only the pure-Python kernels over the collected structural matches —
no Spark scheduling overhead — which is the comparison the paper's
single-machine implementation makes. EXPERIMENTS.md discusses why the
relative order differs from the paper at this scale.
"""
import pytest

from repro.core.dp import max_flow as dp_max_flow
from repro.core.motif import MOTIFS
from repro.core.topk import topk_flows
from repro.experiments import defaults
from repro.spark.search import match_series, matches_with_series

pytestmark = pytest.mark.benchmark(group="fig12-kernel")


@pytest.fixture(scope="module")
def collected(datasets):
    """kind -> list of per-match Series lists for M(3,2), collected once."""
    out = {}
    motif = MOTIFS["M(3,2)"]
    for kind, edges in datasets.items():
        rows = matches_with_series(edges, motif).collect()
        out[kind] = [match_series(r, motif.m) for r in rows]
    return out


@pytest.mark.parametrize("kind", ["bitcoin", "facebook", "passenger"])
def test_fig12_kernel_heap(benchmark, collected, kind):
    series_list = collected[kind]
    delta, _ = defaults(kind)

    def run():
        top = topk_flows(series_list, delta, 1)
        return top[0] if top else 0.0

    top = benchmark(run)
    benchmark.extra_info.update(dataset=kind, algo="heap", top1_flow=top)


@pytest.mark.parametrize("kind", ["bitcoin", "facebook", "passenger"])
def test_fig12_kernel_dp(benchmark, collected, kind):
    series_list = collected[kind]
    delta, _ = defaults(kind)

    def run():
        best = 0.0
        for s in series_list:
            best = max(best, dp_max_flow(s, delta))
        return best

    top = benchmark(run)
    benchmark.extra_info.update(dataset=kind, algo="dp", top1_flow=top)
