"""Algorithm 1 == Definition 3.2/3.3, proven by exhaustive cross-check.

``repro.core.bruteforce`` enumerates every subset assignment straight from
the definitions; here we compare it against Algorithm 1 + maximality filter
on hundreds of randomized small inputs (seed-parametrized and
Hypothesis-driven), across motif path lengths 1..4 and various delta/phi.
"""
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bruteforce as bf
from repro.core.dp import max_flow as dp_max_flow
from repro.core.instances import Series, enumerate_instances
from repro.core.topk import topk_flows
from repro.networks.generators import _bitcoin_flows


def random_series(rng: random.Random, m: int, max_len: int = 4) -> list[Series]:
    """m edge series with unique global timestamps and small int flows."""
    total = sum(rng.randint(0, max_len) for _ in range(m))
    times = rng.sample(range(0, 60), total)
    out: list[list[tuple[float, float]]] = [[] for _ in range(m)]
    for t in times:
        out[rng.randrange(m)].append((float(t), float(rng.randint(1, 9))))
    return [Series(pts) for pts in out]


def assert_algo1_matches_definition(series, delta, phi):
    expected = bf.maximal_instances(series, delta, phi)
    insts = enumerate_instances(series, delta, phi)
    assert {bf.ranges_to_idxsets(inst.ranges) for inst in insts} == expected
    # strictly increasing: sorted as generated, and no instance twice
    keys = [(inst.t_start, inst.ranges) for inst in insts]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    for inst in insts:
        sets = bf.ranges_to_idxsets(inst.ranges)
        assert inst.flow == bf.instance_flow(series, sets)
        for r, idx, f in zip(series, sets, inst.flows, strict=True):
            acc = 0.0
            for i in idx:
                acc += r.fs[i]
            assert f == acc


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_crosscheck_random(seed, m):
    rng = random.Random(1000 * m + seed)
    series = random_series(rng, m)
    delta = rng.choice([3, 8, 15, 60])
    phi = rng.choice([0, 2, 5, 9])
    assert_algo1_matches_definition(series, delta, phi)


@pytest.mark.parametrize("seed", range(10))
def test_crosscheck_four_edges(seed):
    rng = random.Random(seed)
    series = random_series(rng, 4, max_len=3)
    assert_algo1_matches_definition(series, rng.choice([10, 30]), rng.choice([0, 4]))


@pytest.mark.parametrize("seed", range(10))
def test_crosscheck_dense_single_pair(seed):
    """Long series on few edges — stresses prefix enumeration."""
    rng = random.Random(777 + seed)
    times = rng.sample(range(0, 30), 8)
    half = sorted(times[:4]), sorted(times[4:])
    series = [
        Series([(float(t), float(rng.randint(1, 5))) for t in h]) for h in half
    ]
    assert_algo1_matches_definition(series, 12, rng.choice([0, 3]))


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    m=st.integers(min_value=1, max_value=3),
    delta=st.integers(min_value=1, max_value=40),
    phi=st.integers(min_value=0, max_value=10),
)
def test_crosscheck_hypothesis(data, m, delta, phi):
    n = data.draw(st.integers(min_value=0, max_value=7))
    times = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=50),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    assignment = data.draw(
        st.lists(st.integers(min_value=0, max_value=m - 1), min_size=n, max_size=n)
    )
    flows = data.draw(
        st.lists(st.integers(min_value=1, max_value=9), min_size=n, max_size=n)
    )
    buckets: list[list[tuple[float, float]]] = [[] for _ in range(m)]
    for t, e, f in zip(times, assignment, flows):
        buckets[e].append((float(t), float(f)))
    series = [Series(b) for b in buckets]
    assert_algo1_matches_definition(series, float(delta), float(phi))


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    m=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=1, max_value=7),
    flow_seed=st.integers(min_value=0, max_value=2**32 - 1),
    delta=st.integers(min_value=1, max_value=400),
)
def test_float_flows_hypothesis(data, m, n, flow_seed, delta):
    """Bitcoin's flows (4-dp log-normals) with phi equal to an edge-set sum
    that occurs: Algorithm 1 == brute force, heap top-1 == DP, and the
    phi-instances are the phi = 0 instances whose edge-set flows are all
    >= phi (what significance counts from one phi = 0 enumeration), exactly."""
    times = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=500), min_size=n, max_size=n, unique=True
        )
    )
    assignment = data.draw(
        st.lists(st.integers(min_value=0, max_value=m - 1), min_size=n, max_size=n)
    )
    flows = _bitcoin_flows(n, np.random.default_rng(flow_seed))
    buckets: list[list[tuple[float, float]]] = [[] for _ in range(m)]
    for t, e, f in zip(times, assignment, flows):
        buckets[e].append((t / 10, float(f)))
    series = [Series(b) for b in buckets]
    sums = [
        r.range_sum(i, j) for r in series for i in range(len(r)) for j in range(i, len(r))
    ]
    phi = data.draw(st.sampled_from(sums))
    assert_algo1_matches_definition(series, delta / 10, phi)
    assert [(i.ranges, i.flows) for i in enumerate_instances(series, delta / 10, phi)] == [
        (i.ranges, i.flows)
        for i in enumerate_instances(series, delta / 10, 0.0)
        if min(i.flows) >= phi
    ]
    top = topk_flows([series], delta / 10, 1)
    assert dp_max_flow(series, delta / 10) == (top[0] if top else 0.0)


def test_bruteforce_sanity_nonmaximal_detected():
    """The oracle itself: a strict subset of a maximal instance is valid
    but not maximal."""
    series = [Series([(0, 1.0)]), Series([(1, 1.0), (2, 1.0)])]
    valid = bf.valid_instances(series, delta=5, phi=0)
    maximal = bf.maximal_instances(series, delta=5, phi=0)
    assert ((0,), (0, 1)) in valid and ((0,), (0, 1)) in maximal
    assert ((0,), (0,)) in valid and ((0,), (0,)) not in maximal
    assert ((0,), (1,)) in valid and ((0,), (1,)) not in maximal


def test_bruteforce_holey_sets_are_never_maximal():
    """Definition 3.2 allows holes; Definition 3.3 always closes them."""
    series = [Series([(0, 1.0)]), Series([(1, 1.0), (2, 1.0), (3, 1.0)])]
    maximal = bf.maximal_instances(series, delta=9, phi=0)
    for sets in maximal:
        for s in sets:
            assert list(s) == list(range(s[0], s[-1] + 1)), "hole survived"
