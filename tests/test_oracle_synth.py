"""Sanity checks of the provided synthetic data against the DuckDB oracle."""
import pytest
from pyspark.sql import functions as F

from repro.synth_data import lineitem, part
from tests.oracle import assert_equivalent, orders


@pytest.fixture(scope="module")
def li(spark):
    df = lineitem(spark, sf=0.002).cache()
    df.count()
    yield df
    df.unpersist()


class TestOracleAgreement:
    def test_returnflag_rollup(self, spark, li):
        got = li.groupBy("l_returnflag").agg(
            F.sum("l_quantity").alias("qty"),
            F.count(F.lit(1)).cast("double").alias("cnt"),
        )
        assert_equivalent(
            got,
            "SELECT l_returnflag, sum(l_quantity) AS qty, "
            "CAST(count(*) AS DOUBLE) AS cnt FROM li GROUP BY l_returnflag",
            li=li,
        )

    def test_orders_priority_counts(self, spark):
        o = orders(spark, sf=0.002)
        got = o.groupBy("o_orderpriority").agg(
            F.count(F.lit(1)).cast("double").alias("cnt")
        )
        assert_equivalent(
            got,
            "SELECT o_orderpriority, CAST(count(*) AS DOUBLE) AS cnt "
            "FROM o GROUP BY o_orderpriority",
            o=o,
        )

    def test_part_brand_counts(self, spark):
        p = part(spark, sf=0.002)
        got = p.groupBy("p_brand").agg(
            F.count(F.lit(1)).cast("double").alias("cnt")
        )
        assert_equivalent(
            got,
            "SELECT p_brand, CAST(count(*) AS DOUBLE) AS cnt FROM p "
            "GROUP BY p_brand",
            p=p,
        )
