"""The one parameter book of every table, the table's output files, and a
spark-submit session helper.

A table's parameters live here and nowhere else: each ``run()`` takes
exactly its table's keys, keyword-only and with no defaults, and
whatever a table does not take from here is a constant of its module.
``BENCH`` is the scale used for EXPERIMENTS.md numbers (paper scale
reduced per DESIGN.md substitution #2 — same m/items/rows regime,
smaller absolutes). ``TEST`` is the micro scale used by the pytest
smoke tests and has the same keys. ``jobs/run.py`` accepts ``--scale
test|bench``; it and the ``benchmarks/test_bench_t*.py`` targets write
their CSVs through :func:`write_tables`.
"""
from __future__ import annotations

import os

import pandas as pd
from pyspark.sql import SparkSession

#: table -> (module under ``repro.experiments``, CSV name of each frame
#: the table writes, in order; T1 writes its ``summarize``d table and then
#: the per-item frame ``run`` returns)
TABLES: dict[str, tuple[str, tuple[str, ...]]] = {
    "t1": ("t1_inclusion", ("t1_inclusion", "t1_inclusion_items")),
    "t2": ("t2_skew", ("t2_skew",)),
    "t3": ("t3_bottomk", ("t3_bottomk",)),
    "t4": ("t4_priority", ("t4_priority", "t4_priority_totals")),
    "t5": ("t5_criteo", ("t5_criteo",)),
    "t6": (
        "t6_pathological",
        ("t6_pathological_inclusion", "t6_pathological_error"),
    ),
    "t7": ("t7_epochs_ci", ("t7_epochs_ci",)),
    "t8": ("t8_epochs_det", ("t8_epochs_det",)),
    "t9": ("t9_distributed", ("t9_distributed",)),
}

BENCH: dict[str, dict] = {
    "t1": dict(n_items=1000, total=300_000, shape=0.15, m=100, n_reps=300),
    "t2": dict(
        shapes=(0.3, 0.6, 1.0, 2.0), n_items=1000, total=300_000, m=200,
        subset_size=100, n_subsets=40, n_reps=60,
    ),
    "t3": dict(
        shape=0.3, n_items=1000, total=300_000, m=100,
        subset_size=100, n_subsets=40, n_reps=100,
    ),
    "t4": dict(
        shape=0.3, n_items=1000, total=300_000, m=200,
        subset_size=100, n_subsets=40, n_reps=100,
    ),
    "t5": dict(n_rows=1_000_000, m=5000, n_reps=16),
    "t6": dict(
        n_items_half=1000, total_half=150_000, shape=0.5, m=100,
        subset_size=100, n_subsets=30, n_reps=100,
    ),
    "t7": dict(
        n_items=10_000, total=2_000_000, shape=0.3, m=1000,
        n_epochs=10, n_reps=100,
    ),
    "t8": dict(
        n_items=10_000, total=2_000_000, shape=0.3, m=1000,
        n_epochs=10, n_reps=50,
    ),
    "t9": dict(sf=0.05, m=500, n_reps=25, n_partitions=16),
}

TEST: dict[str, dict] = {
    "t1": dict(n_items=300, total=30_000, shape=0.15, m=50, n_reps=60),
    "t2": dict(
        shapes=(0.3, 2.0), n_items=300, total=40_000, m=60,
        subset_size=40, n_subsets=12, n_reps=15,
    ),
    "t3": dict(
        shape=0.3, n_items=300, total=40_000, m=50, subset_size=40,
        n_subsets=12, n_reps=15,
    ),
    "t4": dict(
        shape=0.3, n_items=300, total=40_000, m=60, subset_size=40,
        n_subsets=12, n_reps=15,
    ),
    "t5": dict(n_rows=15_000, m=400, n_reps=5),
    "t6": dict(
        n_items_half=200, total_half=20_000, shape=0.5, m=40, subset_size=20,
        n_subsets=8, n_reps=30,
    ),
    "t7": dict(
        n_items=500, total=80_000, shape=0.3, m=100, n_epochs=5, n_reps=40
    ),
    "t8": dict(
        n_items=500, total=80_000, shape=0.3, m=100, n_epochs=5, n_reps=20
    ),
    "t9": dict(sf=0.004, m=150, n_reps=8, n_partitions=8),
}


def params(table: str, scale: str) -> dict:
    """Parameter dict for ``table`` at ``scale`` ('test' or 'bench')."""
    book = {"test": TEST, "bench": BENCH}[scale]
    return dict(book[table])


def write_tables(table: str, scale: str, *frames: pd.DataFrame) -> None:
    """Print ``frames`` and write each to ``results/<name>_<scale>.csv``."""
    os.makedirs("results", exist_ok=True)
    for name, frame in zip(TABLES[table][1], frames, strict=True):
        print(frame.to_string(index=False, max_rows=60), end="\n\n")
        frame.to_csv(f"results/{name}_{scale}.csv", index=False)


def get_session(app: str) -> SparkSession:
    """Session for spark-submit jobs and the test suite's ``spark`` fixture.

    Broadcast joins are disabled so that joins exercise the shuffle path
    at SF ~0.1; a query that wants a broadcast join sets the threshold
    back for itself.
    """
    return (
        SparkSession.builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
