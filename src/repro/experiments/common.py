"""Shared experiment machinery: parallel replication and error metrics.

Monte-Carlo replications of a stream+sketch pipeline are embarrassingly
parallel; :func:`run_replications` fans a per-seed function out over the
local cores with ``spark.range(...).mapInPandas`` (DataFrame API; the
closure ships via cloudpickle), collecting each replication's rows into
one pandas frame.
"""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession


def run_replications(
    spark: SparkSession,
    n_reps: int,
    fn: Callable[[int], pd.DataFrame],
    schema: str,
    *,
    base_seed: int = 0,
) -> pd.DataFrame:
    """Run ``fn(seed)`` for seeds ``base_seed..base_seed+n_reps-1`` in parallel.

    ``fn`` returns a pandas frame matching ``schema`` (every row should
    carry the seed/replication id if the caller needs it). Results are
    concatenated and returned to the driver.
    """
    nparts = spark.sparkContext.defaultParallelism
    reps = spark.range(n_reps).repartition(min(nparts, max(1, n_reps)))

    def runner(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            for rid in pdf["id"].tolist():
                out = fn(base_seed + int(rid))
                if len(out):
                    yield out

    return reps.mapInPandas(runner, schema=schema).toPandas()


def rrmse(estimates: np.ndarray, truth: float) -> float:
    """Relative root mean squared error ``sqrt(E[(est-truth)^2]) / truth``."""
    est = np.asarray(estimates, dtype=np.float64)
    if truth == 0:
        raise ValueError("RRMSE undefined for a zero true value")
    return float(np.sqrt(np.mean((est - truth) ** 2)) / truth)


def draw_subsets(
    n_items: int, subset_size: int, n_subsets: int, *, seed: int = 123
) -> list[np.ndarray]:
    """Fixed random item subsets (the paper's random filter conditions)."""
    g = np.random.default_rng(seed)
    return [
        g.choice(n_items, size=min(subset_size, n_items), replace=False)
        for _ in range(n_subsets)
    ]


def bucket_by_quantile(
    values: np.ndarray, n_buckets: int = 4
) -> tuple[np.ndarray, np.ndarray]:
    """Assign each value a quantile bucket; returns (bucket_idx, edges)."""
    v = np.asarray(values, dtype=np.float64)
    edges = np.quantile(v, np.linspace(0, 1, n_buckets + 1))
    edges[0] -= 1e-9
    idx = np.clip(np.searchsorted(edges, v, side="left") - 1, 0, n_buckets - 1)
    return idx, edges
