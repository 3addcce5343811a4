"""Micro-benchmarks of the unbiased reduction primitives (Theorem 2).

Times ``splitting_pps_sample``, ``priority_sample`` and ``reduce_counts``
against the number of units n on heavy-tailed (Pareto) weights. The
splitting sample is timed at the weighted sketch's shape (k = n - 1, a
single dropped unit) and at k = n / 2 (the ordered pivotal pass); the
reductions keep a tenth of the units.

    pytest benchmarks/test_bench_reduction.py --benchmark-only \
        --benchmark-json=BENCH_reduction.json
"""
import numpy as np
import pytest

from repro.core.merge import reduce_counts
from repro.sampling.pps import splitting_pps_sample
from repro.sampling.priority import priority_sample

SIZES = [1_000, 10_000, 100_000]


def _weights(n):
    return 1.0 + np.random.default_rng(n).pareto(1.0, n)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("shape", ["one_drop", "half"])
def test_splitting_pps_sample(benchmark, n, shape):
    w = _weights(n)
    k = n - 1 if shape == "one_drop" else n // 2
    rng = np.random.default_rng(0)
    mask, pi = benchmark(splitting_pps_sample, w, k, rng)
    assert mask.sum() == k and mask[pi == 1].all()


@pytest.mark.parametrize("n", SIZES)
def test_priority_sample(benchmark, n):
    w = _weights(n)
    rng = np.random.default_rng(0)
    ps = benchmark(priority_sample, np.arange(n), w, n // 10, rng)
    assert len(ps.items) == n // 10


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("method", ["priority", "pps"])
def test_reduce_counts(benchmark, n, method):
    w = _weights(n)
    rng = np.random.default_rng(0)
    res = benchmark(reduce_counts, np.arange(n), w, n // 10, rng, method=method)
    assert len(res) <= n // 10
