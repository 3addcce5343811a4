"""Unbiased Space Saving as a Spark DataFrame aggregation (secs 5.3, 5.5).

This is the distributed form the paper designs the sketch for: each
partition builds a small unbiased sketch, the tiny per-partition
sketches are shipped to one place, and an unbiased merge (Theorem 2)
reduces them to a single ``m``-bin summary answering disaggregated
subset-sum and frequent-item queries.

:func:`sketch_dataframe` is the one entrypoint. Within each partition,
rows are *exactly* aggregated into an item->count map which is
unbiasedly reduced by priority sampling (the sec 5.3 multi-bin
generalization) whenever it exceeds a spill cap. Exact partial
aggregation + unbiased reduction is itself an unbiased reduction
operation, and it costs one hash-map update per row, unlike the
row-at-a-time Space Saving update.

Layering note (DESIGN.md §2): each partition's sketch is built in the JVM
(``UssPartitionSketch.java``, next to this file) with one
``mapPartitions`` over Spark's internal rows, so the build is one Spark
stage with no shuffle, and no Python worker or Arrow batch is involved.
Each non-empty partition emits its record as one binary row; Python
collects the rows, decodes them and runs the one final merge,
:func:`_final_merge`, which reports its result by the same merge rule as
:func:`~repro.core.merge.merge_unbiased`. The Java source is compiled
with ``javac`` on first use into ``.jvm_build/`` (keyed by a hash of the
source; a new build deletes the jars of older sources) and loaded into
the running session, so a JDK is required.

Reuse rule: the builder reads a projection of the DataFrame onto its
(item, weight) columns, planned once per DataFrame object and column
pair (:data:`_ROWS`) and reused by every later sketch of it, as
pyspark's ``DataFrame.rdd`` is; Spark memoizes the projection's
physical plan, so a repeated sketch does not plan the DataFrame's query
again. The reused plan keeps the cache state of the first sketch:
caching or unpersisting the DataFrame after that changes no result, and
the sketch neither reads a cache made later nor rebuilds one that was
dropped.
"""
from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import weakref
import zipfile
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark import SparkContext
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.merge import SPILL_FACTOR, merged_result, reduce_counts, sum_by_item
from repro.core.result import CountSketchResult

_NUMERIC = (
    T.ByteType, T.ShortType, T.IntegerType, T.LongType,
)
_SOURCE = Path(__file__).with_name("UssPartitionSketch.java")
_BUILD_DIR = Path(__file__).with_name(".jvm_build")
# the builder's runner, loaded once into each SparkContext's JVM
_LOADED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_LOAD_LOCK = threading.Lock()
# each DataFrame's projection for the builder, per (item_col, weight_col):
# the projected Dataset and whether its items are strings
_ROWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# one partition record's header, as UssPartitionSketch.Buffer.close writes it
_HEADER = np.dtype(
    [("pid", ">i8"), ("n", ">i8"), ("rejected", ">i8"),
     ("part_t", ">f8"), ("threshold", ">f8")]
)


def _item_spark_type(df: DataFrame, item_col: str) -> str:
    dt = df.schema[item_col].dataType
    if isinstance(dt, _NUMERIC):
        return "long"
    if isinstance(dt, T.StringType):
        return "string"
    raise TypeError(
        f"item column {item_col!r} must be integral or string, got {dt}"
    )


def _projection(df: DataFrame, item_col: str, weight_col: str | None):
    """``df``'s (item, weight) rows as the builder reads them, and whether
    the items are strings: planned on the first call for each column pair
    and reused after (see the module's reuse rule)."""
    key = (item_col, weight_col)
    plan = _ROWS.get(df, {}).get(key)
    if plan is None:
        strings = _item_spark_type(df, item_col) == "string"
        item = F.col(item_col) if strings else F.col(item_col).cast("long")
        weight = F.lit(1.0) if weight_col is None else F.col(weight_col).cast("double")
        plan = df.select(item, weight)._jdf, strings
        # concurrent first sketches may each plan; the plans are equivalent
        # and one is kept
        _ROWS.setdefault(df, {})[key] = plan
    return plan


def _find_javac() -> str:
    """``$JAVA_HOME/bin/javac``, else the first ``javac`` on ``PATH``."""
    home = os.environ.get("JAVA_HOME")
    javac = shutil.which("javac", path=str(Path(home, "bin"))) if home else None
    javac = javac or shutil.which("javac")
    if javac is None:
        raise RuntimeError(
            "sketch_dataframe compiles its JVM builder with javac, but none "
            f"was found in $JAVA_HOME/bin (JAVA_HOME={home!r}) or on PATH; "
            "install a JDK and set JAVA_HOME to it"
        )
    return javac


def _build_jar(classpath: str) -> Path:
    """The builder's jar, compiled against ``classpath`` unless it exists.

    A build deletes the jars of every other source version; a failed one
    leaves no key directory behind.
    """
    key = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
    jar = _BUILD_DIR / key / "uss-sketch.jar"
    if jar.exists():
        return jar
    javac = _find_javac()
    _BUILD_DIR.mkdir(parents=True, exist_ok=True)
    # dot-prefixed, so that a concurrent build's cleanup passes it by
    with tempfile.TemporaryDirectory(dir=_BUILD_DIR, prefix=".tmp-") as tmp:
        proc = subprocess.run(
            [javac, "-nowarn", "-cp", classpath, "-d", tmp, str(_SOURCE)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"javac failed on {_SOURCE.name}:\n{proc.stderr}")
        staged = Path(tmp, jar.name)
        with zipfile.ZipFile(staged, "w") as zf:
            for cls in sorted(Path(tmp).rglob("*.class")):
                zf.write(cls, cls.relative_to(tmp).as_posix())
        jar.parent.mkdir(exist_ok=True)
        os.replace(staged, jar)  # atomic: a concurrent build finds a whole jar
    for old in _BUILD_DIR.iterdir():
        if old != jar.parent and not old.name.startswith("."):
            shutil.rmtree(old, ignore_errors=True)
    return jar


def _load_jar(sc: SparkContext, jar: Path):
    """Ship ``jar`` to the executors and load the builder's runner from it."""
    sc._jsc.addJar(str(jar))
    jvm = sc._jvm
    urls = sc._gateway.new_array(jvm.java.net.URL, 1)
    urls[0] = jvm.java.io.File(str(jar)).toURI().toURL()
    loader = jvm.java.net.URLClassLoader(
        urls, jvm.java.lang.Thread.currentThread().getContextClassLoader()
    )
    runner = loader.loadClass("repro.core.UssPartitionSketch$Runner")
    return runner.getConstructors()[0].newInstance(
        sc._gateway.new_array(jvm.java.lang.Object, 0)
    )


def _runner(sc: SparkContext):
    """``UssPartitionSketch.Runner`` in ``sc``'s JVM, built and loaded on
    first use."""
    with _LOAD_LOCK:
        runner = _LOADED.get(sc)
        if runner is None:
            classpath = sc._jvm.java.lang.System.getProperty("java.class.path")
            runner = _LOADED[sc] = _load_jar(sc, _build_jar(classpath))
    return runner


def _decode(blob: bytes, strings: bool) -> tuple[pd.DataFrame, int]:
    """The builder's partition records as ``_final_merge``'s input, in
    partition order, and the number of rejected weights."""
    records, rejected, off = [], 0, 0
    while off < len(blob):
        head = np.frombuffer(blob, _HEADER, 1, off)[0]
        off += _HEADER.itemsize
        n = int(head["n"])
        est = np.frombuffer(blob, ">f8", n, off).astype(np.float64)
        off += 8 * n
        if strings:
            ends = off + 4 * n + np.cumsum(np.frombuffer(blob, ">i4", n, off))
            starts = np.concatenate([[off + 4 * n], ends[:-1]])
            items = [blob[a:b].decode() for a, b in zip(starts.tolist(), ends.tolist())]
            off = int(ends[-1]) if n else off
        else:
            items = np.frombuffer(blob, ">i8", n, off).astype(np.int64)
            off += 8 * n
        rejected += int(head["rejected"])
        records.append((int(head["pid"]), pd.DataFrame({
            "item": items, "estimate": est, "threshold": float(head["threshold"]),
            "part_t": float(head["part_t"]), "pid": int(head["pid"]),
        })))
    # the merge's draws must not depend on the order records arrive in
    records.sort(key=lambda r: r[0])
    if not records:
        return pd.DataFrame(columns=["item", "estimate", "threshold", "part_t", "pid"]), 0
    return pd.concat([f for _, f in records], ignore_index=True), rejected


def sketch_dataframe(
    df: DataFrame,
    item_col: str,
    m: int,
    *,
    weight_col: str | None = None,
    seed: int = 0,
) -> CountSketchResult:
    """Build an m-bin unbiased count sketch of ``df`` grouped by ``item_col``.

    ``weight_col`` generalizes row counting to arbitrary non-negative
    per-row metrics (sec 5.3). Each partition ships at most ``m`` items;
    its exact map holds at most :data:`~repro.core.merge.SPILL_FACTOR`
    ``* m`` items between reductions.

    Input contract: the item column must be integral or string
    (``TypeError`` otherwise); rows with a null item are excluded from
    the estimates and from ``t``; a zero-weight row adds no item; a null,
    NaN, infinite or negative weight raises ``ValueError``.

    The projection onto ``(item_col, weight_col)`` is planned once per
    DataFrame object and reused by every later call on it. Caching or
    unpersisting ``df`` after its first sketch changes no result: the
    reused plan keeps the first call's cache state.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    cap = min(SPILL_FACTOR * m, 2**31 - 1)  # a Java int
    rows, strings = _projection(df, item_col, weight_col)
    spark = df.sparkSession
    jdf = _runner(spark.sparkContext).sketch(
        rows, strings, m, cap,
        (seed + 2**63) % 2**64 - 2**63,  # wrapped into a Java long
    )
    records = DataFrame(jdf, spark).collect()
    parts, rejected = _decode(b"".join(bytes(r[0]) for r in records), strings)
    if rejected:
        raise ValueError(
            f"weight_col {weight_col!r} holds {rejected} null, NaN, infinite "
            "or negative weights; weights must be finite and non-negative"
        )
    return _final_merge(parts, m, seed)


def _final_merge(parts: pd.DataFrame, m: int, seed: int) -> CountSketchResult:
    """Exact by-item union of partition sketches + unbiased reduction,
    reported by the merge rule (:func:`~repro.core.merge.merged_result`):
    the largest of the final and every partition threshold, and the
    partitions' total mass.
    """
    if parts.empty:
        return CountSketchResult(
            np.asarray([]), np.asarray([], dtype=np.float64), 0.0, 0.0
        )
    heads = parts.groupby("pid")[["threshold", "part_t"]].first()
    items, counts = sum_by_item([(parts["item"].to_numpy(), parts["estimate"].to_numpy())])
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1 << 20]))
    red = reduce_counts(items, counts, m, rng)
    return merged_result(
        red, heads["threshold"].to_numpy(), heads["part_t"].to_numpy()
    )


def exact_counts(
    df: DataFrame, item_col: str, *, weight_col: str | None = None
) -> DataFrame:
    """Exact pre-aggregation ``item -> n_i`` (the expensive ground truth).

    Used for oracle checks and to feed the pre-aggregated baselines
    (priority sampling, bottom-k).
    """
    if weight_col is None:
        return df.groupBy(F.col(item_col).alias("item")).agg(
            F.count(F.lit(1)).cast("double").alias("n")
        )
    return df.groupBy(F.col(item_col).alias("item")).agg(
        F.sum(F.col(weight_col).cast("double")).alias("n")
    )
