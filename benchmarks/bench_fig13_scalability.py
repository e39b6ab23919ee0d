"""Fig. 13 benchmark: scalability over time-prefix samples (B/F/T analogues)."""
import pytest

from repro.core.motif import MOTIFS
from repro.experiments import defaults
from repro.networks.generators import generate, time_prefix
from repro.spark.search import count_instances

from .conftest import BENCH_SF, SEED

pytestmark = pytest.mark.benchmark(group="fig13-scalability")


@pytest.fixture(scope="module")
def prefix_frames(spark):
    """kind -> {fraction -> cached Spark DataFrame of the time prefix}."""
    out = {}
    for kind in ("bitcoin", "facebook", "passenger"):
        pdf = generate(kind, sf=BENCH_SF, seed=SEED)
        out[kind] = {}
        for frac in (0.25, 0.5, 0.75, 1.0):
            sample = time_prefix(pdf, frac, kind)
            df = spark.createDataFrame(
                sample, schema="src long, dst long, t double, f double"
            ).cache()
            df.count()
            out[kind][frac] = (df, len(sample))
    return out


@pytest.mark.parametrize("kind", ["bitcoin", "facebook", "passenger"])
@pytest.mark.parametrize("frac", [0.25, 0.5, 0.75, 1.0])
def test_fig13_prefix(benchmark, prefix_frames, kind, frac):
    edges, n_edges = prefix_frames[kind][frac]
    delta, phi = defaults(kind)
    motif = MOTIFS["M(3,2)"]
    n = benchmark.pedantic(
        lambda: count_instances(edges, motif, delta, phi), rounds=2, iterations=1
    )
    benchmark.extra_info.update(
        dataset=kind, fraction=frac, n_edges=n_edges, instances=n
    )
