"""The Spark operator against the exact ``groupBy`` it approximates.

Times ``sketch_dataframe`` (m=1000, alternating unweighted and
``weight_col="l_quantity"`` rounds) on a two-column TPC-H-lite
``lineitem`` (uniform ``l_partkey`` over 200k·SF part keys, ``l_quantity``
in 1..50) at SF 0.1 (600k rows) and SF 1 (6M rows), cached in 16
partitions. Before each timed round the exact answer of the same
weighting, ``groupBy("l_partkey").count()`` or ``.sum("l_quantity")``
collected with ``toPandas``, is timed back to back, so the recorded
``cost_vs_exact`` (median sketch time ÷ median exact time) cancels host
drift. Shuffles use 16 partitions. Run on ``local[4]``:

    SPARK_MASTER='local[4]' pytest benchmarks/test_bench_spark.py \
        --benchmark-only --benchmark-json=BENCH_spark.json

The file also runs as a plain test under ``--benchmark-disable``.
"""
import statistics
import time

import pytest
from pyspark.sql import functions as F

from repro.core.spark_sketch import sketch_dataframe

M = 1000
PARTITIONS = 16
ROUNDS = {0.1: 10, 1.0: 6}


@pytest.fixture(scope="module")
def shuffle_partitions(spark):
    before = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", str(PARTITIONS))
    yield
    spark.conf.set("spark.sql.shuffle.partitions", before)


def _lineitem(spark, sf: float):
    n, n_part = int(6_000_000 * sf), int(200_000 * sf)
    df = (
        spark.range(n, numPartitions=PARTITIONS)
        .select(
            (F.floor(F.rand(1) * n_part) + 1).cast("long").alias("l_partkey"),
            (F.floor(F.rand(2) * 50) + 1).cast("double").alias("l_quantity"),
        )
        .cache()
    )
    df.count()
    return df, n


@pytest.mark.parametrize("sf", sorted(ROUNDS))
def test_sketch_vs_groupby(spark, shuffle_partitions, benchmark, sf):
    df, n = _lineitem(spark, sf)
    mass = df.agg(F.sum("l_quantity")).first()[0]
    state = {}
    exact_s = []

    def exact():
        # the same weighting as the sketch round that follows
        state["weight"] = "l_quantity" if len(exact_s) % 2 else None
        grouped = df.groupBy("l_partkey")
        t0 = time.perf_counter()
        if state["weight"]:
            pdf = grouped.agg(F.sum("l_quantity").alias("n")).toPandas()
        else:
            pdf = grouped.count().toPandas()
        exact_s.append(time.perf_counter() - t0)
        state["total"] = float(pdf.iloc[:, 1].sum())
        return (), {}

    def sketch():
        res = sketch_dataframe(
            df, "l_partkey", M, weight_col=state["weight"], seed=len(exact_s)
        )
        state["result"] = res

    benchmark.pedantic(sketch, setup=exact, rounds=ROUNDS[sf], warmup_rounds=2)
    res = state["result"]
    assert res.t == state["total"] == (mass if state["weight"] else n)
    assert len(res) <= M
    benchmark.extra_info.update(
        sf=sf, rows=n, partitions=PARTITIONS, m=M,
        cores=spark.sparkContext.defaultParallelism,
    )
    if benchmark.stats is not None:  # None under --benchmark-disable
        exact_med = statistics.median(exact_s[2:])  # after the warm-up rounds
        benchmark.extra_info["exact_median_s"] = exact_med
        benchmark.extra_info["cost_vs_exact"] = benchmark.stats.stats.median / exact_med
    df.unpersist()
