"""Micro-benchmarks of the sketch kernels themselves.

Measures single-thread update throughput of the Unbiased / Deterministic
Space Saving kernel and the Spark DataFrame operator's wall-clock on
TPC-H-lite lineitem — the constant factors behind every table benchmark.
The kernel runs on two streams: a hit-heavy permuted Weibull stream at
m=200, where most rows increment a bin, and a miss-heavy stream of
Criteo-like feature tuples at m=2000, where most rows displace a minimum
bin. Each kernel test records ``extra_info["rows_per_s"]``.

    pytest benchmarks/test_bench_kernel.py -k kernel_throughput --benchmark-json=BENCH_kernel.json
"""
import numpy as np
import pytest

from repro.core.space_saving import DeterministicSpaceSaving, UnbiasedSpaceSaving
from repro.core.spark_sketch import sketch_dataframe
from repro.streams.criteo import impressions_pdf, tuple_item_column
from repro.streams.orders import permuted_stream
from repro.streams.weibull import weibull_counts
from repro.synth_data import lineitem

_COUNTS = weibull_counts(1000, shape=0.3, target_total=200_000)
_STREAMS = {
    "hit": (200, permuted_stream(_COUNTS, np.random.default_rng(0)).tolist()),
    "miss": (2000, tuple_item_column(impressions_pdf(50_000)).tolist()),
}


@pytest.mark.parametrize("stream", ["hit", "miss"])
@pytest.mark.parametrize(
    "sketch", [UnbiasedSpaceSaving, DeterministicSpaceSaving],
    ids=["unbiased", "deterministic"],
)
def test_kernel_throughput(benchmark, stream, sketch):
    m, rows = _STREAMS[stream]

    def run():
        k = sketch(m, seed=1)
        k.update_many(rows)
        return k

    k = benchmark(run)
    assert k.total() == len(rows)
    benchmark.extra_info["rows"] = len(rows)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["rows_per_s"] = len(rows) / benchmark.stats.stats.median


def test_spark_operator_lineitem(spark, benchmark):
    li = lineitem(spark, sf=0.1).repartition(16).cache()
    n = li.count()

    def run():
        return sketch_dataframe(li, "l_partkey", 1000, seed=3)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    li.unpersist()
    assert res.t == float(n)
