"""End-to-end disaggregated subset-sum queries on TPC-H-lite via Spark.

Exact pipelines are oracle-checked against DuckDB; sketch estimates are
then validated against those exact answers within their own CIs.
"""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.spark_sketch import exact_counts, sketch_dataframe
from repro.synth_data import lineitem, part
from tests.oracle import assert_equivalent, orders


@pytest.fixture(scope="module")
def data(spark):
    li = lineitem(spark, sf=0.005).repartition(8).cache()
    o = orders(spark, sf=0.005).cache()
    pt = part(spark, sf=0.005).cache()
    li.count(), o.count(), pt.count()
    yield {"li": li, "o": o, "pt": pt}
    for df in (li, o, pt):
        df.unpersist()


class TestExactPipelinesOracle:
    def test_brand_subset_sum_exact(self, spark, data):
        li, pt = data["li"], data["pt"]
        got = (
            li.join(pt, li.l_partkey == pt.p_partkey)
            .groupBy("p_brand")
            .agg(F.count(F.lit(1)).cast("double").alias("n_rows"))
        )
        assert_equivalent(
            got,
            "SELECT p_brand, CAST(count(*) AS DOUBLE) AS n_rows FROM li "
            "JOIN pt ON l_partkey = p_partkey GROUP BY p_brand",
            li=li,
            pt=pt,
        )

    def test_orderpriority_counts_exact(self, spark, data):
        li, o = data["li"], data["o"]
        got = (
            li.join(o, li.l_orderkey == o.o_orderkey)
            .groupBy("o_orderpriority")
            .agg(F.sum("l_quantity").alias("qty"))
        )
        assert_equivalent(
            got,
            "SELECT o_orderpriority, sum(l_quantity) AS qty FROM li "
            "JOIN o ON l_orderkey = o_orderkey GROUP BY o_orderpriority",
            li=li,
            o=o,
        )

    def test_filtered_sum_exact(self, spark, data):
        li = data["li"]
        got = li.filter(F.col("l_returnflag") == "R").agg(
            F.sum("l_extendedprice").alias("rev")
        )
        assert_equivalent(
            got,
            "SELECT sum(l_extendedprice) AS rev FROM li WHERE l_returnflag = 'R'",
            li=li,
        )


class TestSketchAnswersSubsetSums:
    """The disaggregated subset sum problem: filters land on the *item*
    (partkey) level; the sketch answers them without pre-aggregation."""

    def test_brand_estimates_within_ci(self, spark, data):
        li, pt = data["li"], data["pt"]
        truth = exact_counts(li, "l_partkey").toPandas().set_index("item")["n"]
        pt_pdf = pt.toPandas()
        res = sketch_dataframe(li, "l_partkey", 400, seed=0)
        misses = 0
        brands = sorted(pt_pdf["p_brand"].unique())
        for b in brands:
            keys = set(pt_pdf.loc[pt_pdf["p_brand"] == b, "p_partkey"].tolist())
            true = float(truth[truth.index.isin(keys)].sum())
            est, var, lo, hi = res.subset_sum_ci(keys, level=0.95)
            if not (lo <= true <= hi):
                misses += 1
        # eq. 5 is upward biased so coverage should be >= nominal;
        # allow a couple of misses out of 25 brands
        assert misses <= max(2, len(brands) // 10)

    def test_weighted_metric_estimate(self, spark, data):
        """Sum of l_quantity per partkey subset (real-valued metric)."""
        li = data["li"]
        truth = (
            exact_counts(li, "l_partkey", weight_col="l_quantity")
            .toPandas()
            .set_index("item")["n"]
        )
        res = sketch_dataframe(
            li, "l_partkey", 400, weight_col="l_quantity", seed=1
        )
        subset = set(range(1, 501))
        true = float(truth[truth.index.isin(subset)].sum())
        est, var, lo, hi = res.subset_sum_ci(subset)
        assert abs(est - true) < 6 * np.sqrt(var) + 0.02 * true

    def test_frequent_partkeys_found(self, spark, data):
        """Heavy-hitter query: skew the stream and find the heavy key."""
        li = data["li"]
        heavy = li.limit(2000).withColumn("l_partkey", F.lit(77777))
        skewed = li.union(heavy).repartition(8)
        res = sketch_dataframe(skewed, "l_partkey", 50, seed=2)
        top_items = [x for x, _ in res.frequent_items(3)]
        assert 77777 in top_items
