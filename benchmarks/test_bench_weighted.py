"""Micro-benchmarks of the weighted and forward-decayed sketches (sec 5.3).

Times ``WeightedUnbiasedSpaceSaving.add`` on a miss-heavy stream at m in
{100, 1000}, and ``ForwardDecaySpaceSaving.add`` at m = 64 on the same
rows stamped over a span that decays them by e^-3. Nearly every row is a
new item, so the exact dict fills to ``SPILL_FACTOR * m`` items and is
reduced to m by one PPS sample again and again: the stream spills
throughout. Each test records its throughput as
``extra_info["rows_per_s"]``.

    pytest benchmarks/test_bench_weighted.py --benchmark-only \
        --benchmark-json=BENCH_weighted.json
"""
import math

import numpy as np
import pytest

from repro.core.decay import ForwardDecaySpaceSaving
from repro.core.weighted import WeightedUnbiasedSpaceSaving

N_ROWS = 20_000
_RNG = np.random.default_rng(0)
_ITEMS = _RNG.integers(0, 10**9, N_ROWS).tolist()
_WEIGHTS = (1.0 + _RNG.pareto(1.5, N_ROWS)).tolist()
_TIMES = np.linspace(0.0, 1_000.0, N_ROWS).tolist()


def _record(benchmark):
    benchmark.extra_info["rows"] = N_ROWS
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["rows_per_s"] = N_ROWS / benchmark.stats.stats.mean


@pytest.mark.parametrize("m", [100, 1_000])
def test_weighted_miss_heavy(benchmark, m):
    def run():
        sk = WeightedUnbiasedSpaceSaving(m, seed=1)
        add = sk.add
        for x, w in zip(_ITEMS, _WEIGHTS):
            add(x, w)
        return sk

    sk = benchmark(run)
    _record(benchmark)
    est = sk.estimates()
    assert len(est) == m
    assert math.isclose(sum(est.values()), sk.t, rel_tol=1e-9)


def test_forward_decay(benchmark):
    def run():
        sk = ForwardDecaySpaceSaving(64, rate=3.0 / 1_000.0, seed=1)
        add = sk.add
        for x, t, w in zip(_ITEMS, _TIMES, _WEIGHTS):
            add(x, t, w)
        return sk

    sk = benchmark(run)
    _record(benchmark)
    res = sk.result()
    assert len(res) == 64 and np.isfinite(res.estimates).all()
