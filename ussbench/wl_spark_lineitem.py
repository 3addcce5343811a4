"""Workload ``spark_lineitem``: the Spark operator against an exact groupBy.

Each op runs ``sketch_dataframe`` (m=1000) over a cached TPC-H-lite
``lineitem`` table at SF 0.1 (600k rows of ``l_partkey`` and
``l_quantity``; 20k part keys; 16 partitions on ``local[4]``). Ops
alternate between counting rows and summing ``l_quantity``. Each
partition sees about 17k distinct keys
against a spill cap of 8000, so the per-partition builder, its priority
spill and the driver merge all run; the kernel and PPS do not. The exact
baseline is ``groupBy(l_partkey).count()`` (or ``.sum(l_quantity)``) on
the same cached table, collected to the driver. The panel is the 25
per-brand subset sums (brands map part keys, as in T9) and the 50
per-size ones, which triple the panel's answers per op so that the
accuracy metrics repeat across seeds.
"""
from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

import harness
from repro.core import merge, result as result_mod, spark_sketch

FULL = {"sf": 0.1, "m": 1000, "accuracy_ops": 10}
TINY = {"sf": 0.002, "m": 50, "accuracy_ops": 4}
PARTITIONS = 16
N_BRANDS = 25
N_SIZES = 50
WEIGHT = "l_quantity"


def start_spark(out: Path) -> SparkSession:
    """A local[4] session whose scratch files stay under ``out``."""
    tmp = out / "spark-tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Every JVM spark-submit starts, its launcher too, keeps its scratch
    # files under ``out`` and writes no perf data to the system tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    return (
        SparkSession.builder.master("local[4]")
        .appName("ussbench")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", str(tmp))
        .config("spark.sql.warehouse.dir", str(out / "spark-warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )


def stop_spark(spark: SparkSession) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()  # the gateway JVM exits when its stdin closes
        proc.wait(timeout=60)


class SparkLineitem:
    name = "spark_lineitem"
    exact_repeats = 1
    query_repeats = 1

    def __init__(self, seed: int, tiny: bool, out: Path):
        self.seed = seed
        cfg = TINY if tiny else FULL
        self.sf = cfg["sf"]
        self.m = cfg["m"]
        self.accuracy_ops = cfg["accuracy_ops"]
        t0 = harness.now()
        self.spark = start_spark(out)
        self.spark.sparkContext.setLogLevel("ERROR")
        self.start_s = harness.now() - t0
        self.df = None

    def setup(self) -> None:
        """Generate lineitem's key and quantity columns and the part
        attributes from the seed; cache lineitem."""
        g = np.random.default_rng([self.seed, 3])
        n = int(6_000_000 * self.sf)
        n_part = int(200_000 * self.sf)
        pdf = pd.DataFrame(
            {
                "l_partkey": g.integers(1, n_part + 1, n),
                "l_quantity": g.integers(1, 51, n).astype("float64"),
            }
        )
        # part attributes, indexed by p_partkey (0 is unused)
        groups = {"brand": g.integers(0, N_BRANDS, n_part + 1),
                  "size": g.integers(0, N_SIZES, n_part + 1)}
        if self.df is not None:
            self.df.unpersist(blocking=True)
        df = self.spark.createDataFrame(pdf).repartition(PARTITIONS).cache()
        df.count()
        self.df, self.n_rows = df, n
        self.mass = float(pdf[WEIGHT].sum())
        keys = pdf["l_partkey"].to_numpy()
        self.ref = {
            False: np.bincount(keys, minlength=n_part + 1).astype(np.float64),
            True: np.bincount(keys, weights=pdf[WEIGHT].to_numpy(), minlength=n_part + 1),
        }
        partkeys = np.arange(n_part + 1)
        panel = [(attr, v, of == v) for attr, of in groups.items() for v in np.unique(of[1:])]
        self.subsets = [set(partkeys[1:][mask[1:]].tolist()) for _, _, mask in panel]
        self._truths = {
            w: [((attr, int(v), w), float(self.ref[w][mask].sum())) for attr, v, mask in panel]
            for w in (False, True)
        }

    def verify(self) -> list[str]:
        problems = []
        for i, weighted in ((0, False), (1, True)):
            exact = self.exact(i)
            ref = self.ref[weighted]
            nz = np.flatnonzero(ref)
            if sorted(exact) != nz.tolist() or any(
                exact[k] != ref[k] for k in nz.tolist()
            ):
                problems.append(f"groupBy totals (weighted={weighted}) differ from bincount")
        return problems

    @staticmethod
    def weighted(i: int) -> bool:
        return i % 2 == 1

    def sketch(self, i: int):
        res = spark_sketch.sketch_dataframe(
            self.df, "l_partkey", self.m,
            weight_col=WEIGHT if self.weighted(i) else None,
            seed=harness.op_seed(self.seed, i),
        )
        return res, {"rows": self.n_rows, "threshold": res.threshold}

    def check(self, i: int, res) -> list[str]:
        problems = []
        want = self.mass if self.weighted(i) else float(self.n_rows)
        if res.t != want:
            problems.append(f"sketch mass {res.t} != {want}")
        if len(res) > self.m:
            problems.append(f"sketch holds {len(res)} items > m={self.m}")
        if not (np.all(np.isfinite(res.estimates)) and np.all(res.estimates >= 0)):
            problems.append("sketch estimates not all finite and non-negative")
        return problems

    def exact(self, i: int) -> dict:
        grouped = self.df.groupBy("l_partkey")
        if self.weighted(i):
            pdf = grouped.agg(F.sum(WEIGHT).alias("n")).toPandas()
        else:
            pdf = grouped.count().toPandas()
        return dict(zip(pdf.iloc[:, 0].tolist(), pdf.iloc[:, 1].tolist()))

    def query_sketch(self, i: int, res):
        out = []
        for members in self.subsets:
            est, _, lo, hi = res.subset_sum_ci(members, level=harness.CI_LEVEL)
            out.append((est, lo, hi))
        return out

    def query_exact(self, i: int, totals):
        return harness.scan_subset_sums(totals, self.subsets)

    def truths(self, i: int):
        return self._truths[self.weighted(i)]

    def patch(self, tracer) -> None:
        tracer.patch(spark_sketch, "sketch_dataframe", "spark_sketch.sketch_dataframe")
        reduce_traced = tracer.wrap(spark_sketch.reduce_counts, "merge.reduce_counts")
        final_merge = spark_sketch._final_merge

        def final_merge_traced_reduce(*args, **kwargs):
            # The partition builder is pickled with this module's
            # reduce_counts, so the traced one is swapped in only while
            # the driver merges, after the executors have finished.
            spark_sketch.reduce_counts = reduce_traced
            try:
                return final_merge(*args, **kwargs)
            finally:
                spark_sketch.reduce_counts = reduce_traced.__wrapped__

        def count_merge_input(args, kwargs, out):
            parts = args[0]
            tracer.count("merge.rows_in", len(parts))
            tracer.count("merge.items_in", parts["item"].nunique())

        tracer.patch(
            spark_sketch, "_final_merge", "spark_sketch.final_merge",
            fn=final_merge_traced_reduce, on_call=count_merge_input,
        )
        tracer.patch(merge, "priority_sample", "priority.sample")
        tracer.patch(result_mod.CountSketchResult, "subset_sum_ci", "result.subset_sum_ci")

    def close(self) -> None:
        stop_spark(self.spark)
