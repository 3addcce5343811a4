"""Micro-benchmarks of the unbiased reduction primitives (Theorem 2) and of
the driver merge built on them.

Times ``splitting_pps_sample``, ``priority_sample`` and ``reduce_counts``
against the number of units n on heavy-tailed (Pareto) weights. The
splitting sample is timed at the weighted sketch's shape (k = n - 1, a
single dropped unit) and at k = n / 2 (the ordered pivotal pass); the
reductions keep a tenth of the units.

The driver merge is timed at the Spark operator's shape in the
``spark_lineitem`` benchmark: 16 partition sketches of 1000 items each,
drawn from 20 000 keys, merged back to 1000 bins, once through
``merge_unbiased`` (sketch results) and once through the operator's
``_final_merge`` (the decoded partition frame).

    pytest benchmarks/test_bench_reduction.py --benchmark-only \
        --benchmark-json=BENCH_reduction.json
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.merge import merge_unbiased, reduce_counts
from repro.core.result import CountSketchResult
from repro.core.spark_sketch import _final_merge
from repro.sampling.pps import splitting_pps_sample
from repro.sampling.priority import priority_sample

SIZES = [1_000, 10_000, 100_000]
PARTITIONS, PART_ITEMS, KEYS = 16, 1_000, 20_000


def _weights(n):
    return 1.0 + np.random.default_rng(n).pareto(1.0, n)


def _partitions():
    """Partition sketches as a spill leaves them: reduced, with t above Σ estimates."""
    rng = np.random.default_rng(PARTITIONS)
    parts = []
    for _ in range(PARTITIONS):
        est = 1.0 + rng.pareto(1.0, PART_ITEMS)
        items = rng.choice(KEYS, PART_ITEMS, replace=False)
        parts.append(CountSketchResult(items, est, float(est.min()), 2.0 * est.sum()))
    return parts


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
def test_reduce_counts(benchmark, n):
    w = _weights(n)
    rng = np.random.default_rng(0)
    res = benchmark(reduce_counts, np.arange(n), w, n // 10, rng)
    assert len(res) <= n // 10


def test_merge_unbiased(benchmark):
    parts = _partitions()
    rng = np.random.default_rng(0)
    res = benchmark(merge_unbiased, parts, PART_ITEMS, rng=rng)
    assert len(res) == PART_ITEMS
    assert res.t == pytest.approx(sum(p.t for p in parts))


def test_final_merge(benchmark):
    parts = _partitions()
    frame = pd.concat([
        pd.DataFrame({
            "item": p.items, "estimate": p.estimates, "threshold": p.threshold,
            "part_t": p.t, "pid": pid,
        })
        for pid, p in enumerate(parts)
    ], ignore_index=True)
    res = benchmark(_final_merge, frame, PART_ITEMS, 0)
    assert len(res) == PART_ITEMS
    assert res.t == pytest.approx(sum(p.t for p in parts))
