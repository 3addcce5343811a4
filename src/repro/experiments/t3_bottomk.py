"""T3 (paper Figure 4): Unbiased Space Saving vs bottom-k uniform sampling.

Same synthetic subset-sum workload as T2 at ``m = 100``. The bottom-k
sketch samples items uniformly regardless of count, so on skewed data
its subset-sum error is orders of magnitude worse — the paper's Figure
4 claim, quantified here as an RRMSE ratio per true-count bucket.
"""
from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.space_saving import UnbiasedSpaceSaving
from repro.experiments.common import replicate
from repro.experiments.subset_sweep import summarize, sweep_config
from repro.sampling.bottomk import bottomk_from_counts


def run(
    spark: SparkSession,
    *,
    shape: float,
    n_items: int,
    total: int,
    m: int,
    subset_size: int,
    n_subsets: int,
    n_reps: int,
) -> pd.DataFrame:
    """RRMSE per (method, bucket) plus a ratio pivot (bottomk / USS)."""
    cfg = sweep_config(
        n_items=n_items,
        total=total,
        shape=shape,
        subset_size=subset_size,
        n_subsets=n_subsets,
    )
    counts = cfg["counts"]
    rows = replicate(
        spark, cfg["arrange"], cfg["sets"], m, n_reps,
        methods={
            "unbiased_ss": UnbiasedSpaceSaving,
            "bottomk": partial(bottomk_from_counts, np.arange(len(counts)), counts),
        },
    )
    return summarize(rows, cfg["truths"], cfg["total"], extra={"shape": shape})
