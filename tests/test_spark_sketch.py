"""Spark DataFrame sketch operator tests (distributed dataflow)."""
import gc
import itertools
import shutil
import subprocess
import sys
import time
import types
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import spark_sketch
from repro.core.spark_sketch import exact_counts, sketch_dataframe
from repro.synth_data import lineitem
from tests.oracle import assert_equivalent

# Priority sampling is the operator's one spill reduction; the id names it
# in the test ids.
BY_REDUCTION = pytest.mark.parametrize("sketch", [sketch_dataframe], ids=["priority"])

@pytest.fixture(scope="module")
def li(spark):
    df = lineitem(spark, sf=0.005).repartition(8).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="module")
def truth(li):
    return exact_counts(li, "l_partkey").toPandas().set_index("item")["n"]


class TestExactCounts:
    def test_matches_duckdb(self, spark, li):
        got = exact_counts(li, "l_partkey")
        assert_equivalent(
            got,
            "SELECT l_partkey AS item, CAST(count(*) AS DOUBLE) AS n "
            "FROM li GROUP BY l_partkey",
            li=li,
        )

    def test_weighted_matches_duckdb(self, spark, li):
        got = exact_counts(li, "l_partkey", weight_col="l_quantity")
        assert_equivalent(
            got,
            "SELECT l_partkey AS item, CAST(sum(l_quantity) AS DOUBLE) AS n "
            "FROM li GROUP BY l_partkey",
            li=li,
        )


class TestSketchDataFrame:
    def test_size_bounded(self, spark, li):
        res = sketch_dataframe(li, "l_partkey", 100, seed=0)
        assert len(res) <= 100

    def test_total_mass_exact(self, spark, li, truth):
        res = sketch_dataframe(li, "l_partkey", 100, seed=1)
        assert res.t == truth.sum()

    def test_exact_when_m_large(self, spark, li, truth):
        m = len(truth) + 10
        res = sketch_dataframe(li, "l_partkey", m, seed=2)
        est = res.estimates_dict()
        assert len(est) == len(truth)
        for item, n in truth.items():
            assert est[item] == pytest.approx(n)

    def test_subset_estimate_reasonable(self, spark, li, truth):
        res = sketch_dataframe(li, "l_partkey", 300, seed=3)
        subset = set(range(1, 301))
        true = float(truth[truth.index.isin(subset)].sum())
        est, var, lo, hi = res.subset_sum_ci(subset)
        assert abs(est - true) < 6 * np.sqrt(var) + 1e-9

    def test_weight_col(self, spark, li):
        res = sketch_dataframe(
            li, "l_partkey", 200, weight_col="l_quantity", seed=4
        )
        w_truth = (
            exact_counts(li, "l_partkey", weight_col="l_quantity")
            .toPandas()["n"].sum()
        )
        assert res.t == pytest.approx(w_truth)

    def test_string_items(self, spark):
        pdf = pd.DataFrame({"k": [f"id{i % 7}" for i in range(200)]})
        df = spark.createDataFrame(pdf).repartition(4)
        res = sketch_dataframe(df, "k", 5, seed=5)
        assert res.t == 200.0
        assert all(isinstance(x, str) for x in res.items)

    @BY_REDUCTION
    def test_zero_weight_items_beyond_cap(self, spark, sketch):
        # 100 items, a third of them weighing 0 in total, against a
        # spill cap of 8 * 5 = 40 items per partition
        item = np.arange(200) % 100
        pdf = pd.DataFrame({"k": item, "w": (item % 3 != 0).astype(float)})
        df = spark.createDataFrame(pdf).repartition(2)
        res = sketch(df, "k", 5, weight_col="w", seed=6)
        assert res.t == pdf["w"].sum()
        assert len(res) <= 5 and (res.estimates > 0).all()

    def test_unsupported_type_rejected(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"k": [1.5, 2.5]}))
        with pytest.raises(TypeError):
            sketch_dataframe(df, "k", 5)

    def test_seed_reproducible(self, spark, li):
        a = sketch_dataframe(li, "l_partkey", 50, seed=7)
        b = sketch_dataframe(li, "l_partkey", 50, seed=7)
        assert a.estimates_dict() == b.estimates_dict()

    def test_unbiased_over_seeds(self, spark, li, truth):
        """Mean estimate over sketch seeds approaches the true subset sum."""
        subset = set(range(1, 201))
        true = float(truth[truth.index.isin(subset)].sum())
        reps = 12
        ests = [
            sketch_dataframe(li, "l_partkey", 150, seed=100 + r).subset_sum(subset)[0]
            for r in range(reps)
        ]
        se = np.std(ests, ddof=1) / np.sqrt(reps)
        assert abs(np.mean(ests) - true) < 5 * se + 0.05 * true


class TestEmptyAndEdge:
    def test_empty_dataframe(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"k": pd.Series([], dtype="int64")}), schema="k long"
        )
        res = sketch_dataframe(df, "k", 5, seed=0)
        assert len(res) == 0 and res.t == 0.0

    def test_single_partition(self, spark):
        pdf = pd.DataFrame({"k": np.arange(100) % 10})
        df = spark.createDataFrame(pdf).coalesce(1)
        res = sketch_dataframe(df, "k", 20, seed=0)
        assert res.t == 100.0
        assert res.estimate(0) == 10.0


def _job_stages(sc, group: str, run):
    """``run()``'s result, and the stage ids of each job it starts, under job
    group ``group``."""
    sc.setJobGroup(group, group)
    try:
        out = run()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    # The status store applies listener events asynchronously, in order: once
    # a later job shows as finished, every event of the group's jobs is in.
    marker = group + "-marker"
    sc.setJobGroup(marker, marker)
    try:
        sc.parallelize([0], 1).count()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    tracker = sc.statusTracker()
    deadline = time.monotonic() + 60
    while not tracker.getJobIdsForGroup(marker) or any(
        (tracker.getJobInfo(j) is None or tracker.getJobInfo(j).status != "SUCCEEDED")
        for j in tracker.getJobIdsForGroup(marker)
    ):
        assert time.monotonic() < deadline, "the marker job never showed as finished"
        time.sleep(0.05)
    return out, [list(tracker.getJobInfo(j).stageIds) for j in tracker.getJobIdsForGroup(group)]


class TestDataflow:
    """The shape of the Spark work that ``sketch_dataframe`` runs."""

    def test_one_job_with_one_stage(self, spark):
        # no shuffle upstream, and enough keys that every partition spills
        df = spark.range(40_000, numPartitions=4).select((F.col("id") % 3000).alias("k"))
        res, stages = _job_stages(
            spark.sparkContext, "uss-one-stage", lambda: sketch_dataframe(df, "k", 50, seed=0)
        )
        assert len(stages) == 1 and len(stages[0]) == 1
        assert res.t == 40_000.0 and len(res) <= 50

    @pytest.mark.parametrize("weight", [None, "w"])
    def test_empty_and_null_only_partitions(self, spark, weight):
        rows = [(1, 2.0), (2, 1.0), (None, 4.0), (1, 3.0), (3, 1.0), (None, 5.0),
                (2, 2.5), (4, 0.5)]
        # 8 rows in 16 slices: every other partition is empty, and two hold
        # only a row with a null item
        df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 16), "k long, w double")
        assert df.rdd.getNumPartitions() == 16
        res = sketch_dataframe(df, "k", 100, weight_col=weight, seed=0)
        want = exact_counts(df, "k", weight_col=weight).toPandas().dropna(subset=["item"])
        assert res.estimates_dict() == dict(zip(want["item"].astype(int), want["n"]))
        assert res.t == want["n"].sum() == (10.0 if weight else 6.0)


def _same(a, b) -> bool:
    """Whether two results are bit-identical."""
    return (
        np.array_equal(a.items, b.items) and a.estimates.tobytes() == b.estimates.tobytes()
        and (a.threshold, a.t) == (b.threshold, b.t)
    )


def _keyed(spark, n=4000, parts=4):
    """A pandas-built table of ``n`` rows over 300 keys that spills at m=20."""
    g = np.random.default_rng(9)
    pdf = pd.DataFrame({"k": g.integers(0, 300, n), "w": g.integers(1, 9, n).astype(float)})
    return spark.createDataFrame(pdf).repartition(parts)


class TestReusedProjection:
    """Each DataFrame's (item, weight) projection is planned once and reused."""

    def test_second_sketch_is_identical_and_plans_nothing(self, spark):
        df = _keyed(spark)
        first = sketch_dataframe(df, "k", 20, seed=3)
        plan = spark_sketch._ROWS[df][("k", None)]
        assert _same(sketch_dataframe(df, "k", 20, seed=3), first)
        assert list(spark_sketch._ROWS[df]) == [("k", None)]
        assert spark_sketch._ROWS[df][("k", None)] is plan
        sketch_dataframe(df, "k", 20, weight_col="w", seed=3)
        sketch_dataframe(df, "k", 20, weight_col="w", seed=4)
        assert set(spark_sketch._ROWS[df]) == {("k", None), ("k", "w")}

    def test_unpersist_after_first_sketch(self, spark):
        sc = spark.sparkContext
        before = set(sc._jsc.getPersistentRDDs().keys())
        df = _keyed(spark).cache()
        df.count()
        first = sketch_dataframe(df, "k", 20, weight_col="w", seed=5)
        df.unpersist(blocking=True)
        assert _same(sketch_dataframe(df, "k", 20, weight_col="w", seed=5), first)
        # the reused plan reads the dropped cache's lineage and persists nothing
        assert set(sc._jsc.getPersistentRDDs().keys()) == before

    def test_cache_after_first_sketch(self, spark):
        df = _keyed(spark)
        first = sketch_dataframe(df, "k", 20, seed=6)
        df.cache()
        df.count()
        try:
            assert _same(sketch_dataframe(df, "k", 20, seed=6), first)
        finally:
            df.unpersist(blocking=True)

    def test_collected_dataframe_frees_its_entry(self, spark):
        df = _keyed(spark, n=100)
        sketch_dataframe(df, "k", 20, seed=7)
        held = len(spark_sketch._ROWS)
        ref = weakref.ref(df)
        del df
        gc.collect()
        assert ref() is None
        assert len(spark_sketch._ROWS) <= held - 1


class TestInputContract:
    """What ``sketch_dataframe`` does with each kind of bad input."""

    def test_null_items_excluded(self, spark):
        df = spark.createDataFrame(
            [(1, 2.0), (None, 5.0), (2, 1.0), (None, 7.0), (1, 1.0)] * 20,
            "k long, w double",
        ).repartition(3)
        res = sketch_dataframe(df, "k", 5, weight_col="w", seed=0)
        assert res.t == 80.0
        assert res.estimates_dict() == {1: 60.0, 2: 20.0}

    @pytest.mark.parametrize("bad", [float("nan"), None])
    def test_nan_weight_rejected(self, spark, bad):
        df = spark.createDataFrame(
            [(i % 7, 1.0) for i in range(50)] + [(3, bad)], "k long, w double"
        ).repartition(2)
        with pytest.raises(ValueError, match="weight_col 'w'"):
            sketch_dataframe(df, "k", 5, weight_col="w", seed=0)

    @BY_REDUCTION
    def test_negative_weight_rejected(self, spark, sketch):
        # enough items that the partitions spill, which is where a negative
        # weight used to fail inside priority sampling
        rows = [(i % 100, 1.0) for i in range(400)] + [(5, -1.0)]
        df = spark.createDataFrame(rows, "k long, w double").repartition(2)
        with pytest.raises(ValueError, match="weight_col 'w'"):
            sketch(df, "k", 5, weight_col="w", seed=0)

    def test_double_items_rejected_before_any_job(self, spark, monkeypatch):
        df = spark.createDataFrame(pd.DataFrame({"x": [1.5, 2.5]}))

        def no_jvm(sc):
            raise AssertionError("the builder was loaded")

        monkeypatch.setattr(spark_sketch, "_runner", no_jvm)
        with pytest.raises(TypeError, match="'x'"):
            sketch_dataframe(df, "x", 5)

    def test_zero_weight_items_get_no_bin(self, spark):
        # m above the 10 distinct items, so no partition and no merge reduces
        rows = [(i % 10, 0.0 if i % 3 == 0 else 1.0) for i in range(10)] * 2
        df = spark.createDataFrame(rows, "k long, w double").repartition(2)
        res = sketch_dataframe(df, "k", 50, weight_col="w", seed=0)
        assert sorted(res.items.tolist()) == [1, 2, 4, 5, 7, 8]
        assert res.subset_sum({0, 3, 6, 9}) == (0.0, 0)
        assert res.t == 12.0

    def test_non_ascii_string_items(self, spark):
        keys = ["é", "日本", "a", "ß" * 3, ""]
        df = spark.createDataFrame(
            pd.DataFrame({"k": [keys[i % 5] for i in range(100)]})
        ).repartition(3)
        res = sketch_dataframe(df, "k", 10, seed=0)
        assert res.estimates_dict() == {k: 20.0 for k in keys}


class TestBuild:
    """Compiling and loading the JVM builder."""

    def test_missing_javac_names_java_home(self, monkeypatch, tmp_path):
        monkeypatch.setattr(spark_sketch, "_BUILD_DIR", tmp_path / "build")
        monkeypatch.setattr(shutil, "which", lambda *a, **k: None)
        monkeypatch.setenv("JAVA_HOME", str(tmp_path))
        with pytest.raises(RuntimeError, match="JAVA_HOME"):
            spark_sketch._build_jar("")

    def test_second_call_does_not_rebuild_or_reload(self, spark, monkeypatch):
        df = spark.createDataFrame(pd.DataFrame({"k": np.arange(30) % 4}))
        first = sketch_dataframe(df, "k", 10, seed=0)

        def fail(*args, **kwargs):
            raise AssertionError("the builder was built or loaded again")

        monkeypatch.setattr(spark_sketch, "_build_jar", fail)
        monkeypatch.setattr(spark_sketch, "_load_jar", fail)
        assert sketch_dataframe(df, "k", 10, seed=0).estimates_dict() == (
            first.estimates_dict()
        )

    def test_concurrent_first_use_loads_once(self, monkeypatch):
        class FakeContext:  # weakly referenceable, as a SparkContext is
            _jvm = types.SimpleNamespace(java=types.SimpleNamespace(lang=types.SimpleNamespace(
                System=types.SimpleNamespace(getProperty=lambda key: ""))))

        sc = FakeContext()
        loads = []

        def load(sc, jar):
            time.sleep(0.01)  # widen the window between check and store
            loads.append(jar)
            return object()

        monkeypatch.setattr(spark_sketch, "_build_jar", lambda classpath: "jar")
        monkeypatch.setattr(spark_sketch, "_load_jar", load)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                runners = list(pool.map(lambda _: spark_sketch._runner(sc), range(64)))
        finally:
            sys.setswitchinterval(interval)
        assert len(loads) == 1
        assert all(r is runners[0] for r in runners)

    def test_build_deletes_other_versions(self, spark, monkeypatch, tmp_path):
        build = tmp_path / "build"
        for old in ("0123456789abcdef", "fedcba9876543210"):
            (build / old).mkdir(parents=True)
            (build / old / "uss-sketch.jar").write_bytes(b"old")
        (build / "0011223344556677").mkdir()  # left empty by an old failed build
        monkeypatch.setattr(spark_sketch, "_BUILD_DIR", build)
        classpath = spark._jvm.java.lang.System.getProperty("java.class.path")
        jar = spark_sketch._build_jar(classpath)
        assert jar.is_file() and jar.parent.parent == build
        assert list(build.iterdir()) == [jar.parent]
        assert list(jar.parent.iterdir()) == [jar]

    def test_failed_compile_leaves_no_directory(self, monkeypatch, tmp_path):
        source = tmp_path / "UssPartitionSketch.java"
        source.write_text("class UssPartitionSketch {")
        build = tmp_path / "build"
        monkeypatch.setattr(spark_sketch, "_SOURCE", source)
        monkeypatch.setattr(spark_sketch, "_BUILD_DIR", build)
        with pytest.raises(RuntimeError, match="javac failed"):
            spark_sketch._build_jar("")
        assert list(build.iterdir()) == []

    def test_built_jar_is_reused(self, spark, monkeypatch):
        classpath = spark._jvm.java.lang.System.getProperty("java.class.path")
        jar = spark_sketch._build_jar(classpath)

        def fail(*args, **kwargs):
            raise AssertionError("javac ran again")

        monkeypatch.setattr(subprocess, "run", fail)
        assert spark_sketch._build_jar(classpath) == jar


@pytest.fixture(scope="module")
def jvm_sketch(spark):
    """``UssPartitionSketch``'s static methods through ``spark._jvm``.

    py4j finds classes through the calling JVM thread's context class
    loader, so it is pointed at the builder's loader while these tests run.
    """
    runner = spark_sketch._runner(spark.sparkContext)
    thread = spark._jvm.java.lang.Thread.currentThread()
    before = thread.getContextClassLoader()
    thread.setContextClassLoader(runner.getClass().getClassLoader())
    try:
        yield spark._jvm.repro.core.UssPartitionSketch
    finally:
        thread.setContextClassLoader(before)


COUNTS = np.array([1.0, 2.0, 0.0, 3.0, 5.0, 8.0, 13.0, 0.0, 0.5, 40.0, 7.0, 2.5])
REPS = 20_000


def _reduce_repeatedly(jvm_sketch, counts, m, seed=11):
    """``REPS`` Java reductions: per rep, each item's estimate and the threshold."""
    blob = jvm_sketch.reduceRepeatedly(counts.astype(">f8").tobytes(), m, seed, REPS)
    return np.frombuffer(bytes(blob), ">f8").reshape(REPS, len(counts) + 1)


JVM_BY_REDUCTION = pytest.mark.parametrize(
    "reduce", [_reduce_repeatedly], ids=["priority"]
)


class TestJvmReduction:
    """Monte-Carlo checks of the Java spill reduction, without a Spark job."""

    @JVM_BY_REDUCTION
    def test_mean_estimate_matches_count(self, jvm_sketch, reduce):
        est = reduce(jvm_sketch, COUNTS, 5)[:, :-1]
        assert ((est > 0).sum(axis=1) <= 5).all()
        se = est.std(axis=0, ddof=1) / np.sqrt(REPS)
        assert (np.abs(est.mean(axis=0) - COUNTS) <= 5 * se + 1e-9).all()

    @JVM_BY_REDUCTION
    def test_zero_counts_never_kept(self, jvm_sketch, reduce):
        est = reduce(jvm_sketch, COUNTS, 5)[:, :-1]
        assert (est[:, COUNTS == 0] == 0).all()
        # fewer positive counts than bins: every positive one is kept whole
        few = np.array([0.0, 3.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        est = reduce(jvm_sketch, few, 3)
        assert (est[:, :-1] == few).all() and (est[:, -1] == 0).all()

    def test_select_matches_sort(self, spark, jvm_sketch):
        """``select`` returns the k-th smallest, ties included, as a sort would."""
        gateway, jvm = spark.sparkContext._gateway, spark._jvm
        g = np.random.default_rng(3)
        for n in (1, 2, 3, 10, 101, 1000):
            for a in (g.integers(0, 4, n).astype(float), g.exponential(size=n)):
                want = np.sort(a)
                for k in sorted({0, n - 1, n // 2, int(g.integers(n))}):
                    arr = gateway.new_array(jvm.double, n)
                    jvm.java.nio.ByteBuffer.wrap(bytearray(a.astype(">f8").tobytes())) \
                        .asDoubleBuffer().get(arr)
                    assert jvm_sketch.select(arr, n, k) == want[k], (n, k)

    def test_partition_seeds_distinct_and_not_linear(self, jvm_sketch):
        seeds = {
            (s, p): jvm_sketch.partitionSeed(s, p)
            for s, p in itertools.product(range(64), range(16))
        }
        assert len(set(seeds.values())) == len(seeds)
        # a linear mix a*seed + b*pid steps by the same amount every time
        steps = {seeds[s + 1, p] - seeds[s, p] for s in range(63) for p in range(16)}
        assert len(steps) > 1
