"""T4 (paper Figure 5): Unbiased Space Saving vs priority sampling.

Priority sampling runs on the *pre-aggregated* exact counts (the
expensive step the disaggregated sketch avoids); Unbiased Space Saving
consumes the raw permuted stream. Paper claim: USS matches or slightly
beats priority sampling. A secondary paper observation is checked too:
priority sampling does not conserve the total count (a size-m sample of
equal counts has ~ 1/sqrt(m) relative error on the grand total) while
USS keeps it exactly.
"""
from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.space_saving import UnbiasedSpaceSaving
from repro.experiments.common import query_summary, replicate
from repro.experiments.subset_sweep import summarize, sweep_config
from repro.sampling.priority import priority_sample


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
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Returns (rrmse table, total-sum conservation table)."""
    cfg = sweep_config(
        n_items=n_items,
        total=total,
        shape=shape,
        subset_size=subset_size,
        n_subsets=n_subsets,
    )
    counts = cfg["counts"]
    everything = set(range(len(counts)))  # the grand-total query, last
    rows = replicate(
        spark, cfg["arrange"], [*cfg["sets"], everything], m, n_reps,
        methods={
            "unbiased_ss": UnbiasedSpaceSaving,
            "priority": partial(priority_sample, np.arange(len(counts)), counts),
        },
    )
    is_total = rows["query"] == len(cfg["sets"])
    tab = summarize(
        rows[~is_total], cfg["truths"], cfg["total"], extra={"shape": shape}
    )
    totals = query_summary(
        rows[is_total], np.append(cfg["truths"], cfg["total"])
    )[["method", "rrmse"]].rename(columns={"rrmse": "total_rrmse"})
    return tab, totals
