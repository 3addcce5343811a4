"""T2 (paper Figure 3): accuracy improves with skew and subset size.

For each Weibull shape (lower shape = heavier tail = more skew),
estimate random 100-item subset sums with an m-bin Unbiased Space
Saving sketch over a permuted stream; report RRMSE bucketed by the
subset's true count. Paper claim: error falls as skew rises and as the
subset's true fraction of the data grows.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.space_saving import UnbiasedSpaceSaving
from repro.experiments.common import replicate
from repro.experiments.subset_sweep import summarize, sweep_config


def run(
    spark: SparkSession,
    *,
    shapes: tuple[float, ...],
    n_items: int,
    total: int,
    m: int,
    subset_size: int,
    n_subsets: int,
    n_reps: int,
) -> pd.DataFrame:
    """RRMSE table per (shape, true-count bucket)."""
    tables = []
    for shape_i, shape in enumerate(shapes):
        cfg = sweep_config(
            n_items=n_items,
            total=total,
            shape=shape,
            subset_size=subset_size,
            n_subsets=n_subsets,
        )
        rows = replicate(
            spark, cfg["arrange"], cfg["sets"], m, n_reps,
            methods={"unbiased_ss": UnbiasedSpaceSaving},
            base_seed=shape_i * 10_000,
        )
        tab = summarize(
            rows, cfg["truths"], cfg["total"], extra={"shape": shape}
        )
        tables.append(tab)
    return pd.concat(tables, ignore_index=True)
