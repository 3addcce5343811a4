"""Micro-benchmarks of the sketch kernels themselves.

Measures single-thread update throughput of the Unbiased / Deterministic
Space Saving kernel — the constant factor behind every table benchmark.
The kernel runs on two streams: a hit-heavy permuted Weibull stream at
m=200, where most rows increment a bin, and a miss-heavy stream of
Criteo-like feature tuples at m=2000, where most rows displace a minimum
bin. Each kernel test records ``extra_info["rows_per_s"]``.

    pytest benchmarks/test_bench_kernel.py --benchmark-json=BENCH_kernel.json
"""
import numpy as np
import pytest

from repro.core.space_saving import DeterministicSpaceSaving, UnbiasedSpaceSaving
from repro.streams.criteo import impressions_pdf, tuple_item_column
from repro.streams.orders import permuted_stream
from repro.streams.weibull import weibull_counts

_COUNTS = weibull_counts(1000, shape=0.3, target_total=200_000)
_STREAMS = {
    "hit": (200, permuted_stream(_COUNTS, np.random.default_rng(0)).tolist()),
    "miss": (2000, tuple_item_column(impressions_pdf(50_000)).tolist()),
}
_SKETCHES = {"unbiased": UnbiasedSpaceSaving, "deterministic": DeterministicSpaceSaving}


@pytest.mark.parametrize("stream", ["hit", "miss"])
@pytest.mark.parametrize("sketch", list(_SKETCHES))
def test_kernel_throughput(benchmark, stream, sketch):
    m, rows = _STREAMS[stream]

    def run():
        k = _SKETCHES[sketch](m, seed=1)
        k.update_many(rows)
        return k

    k = benchmark(run)
    assert k.total() == len(rows)
    benchmark.extra_info["rows"] = len(rows)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["rows_per_s"] = len(rows) / benchmark.stats.stats.median
