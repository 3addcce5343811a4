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

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.space_saving import UnbiasedSpaceSaving
from repro.experiments.common import (
    query_summary,
    replication_rows,
    run_replications,
)
from repro.experiments.subset_sweep import summarize, sweep_config
from repro.sampling.priority import priority_sample
from repro.streams.orders import permuted_stream


def run(
    spark: SparkSession,
    *,
    shape: float = 0.3,
    n_items: int = 1000,
    total: int = 300_000,
    m: int = 200,
    subset_size: int = 100,
    n_subsets: int = 40,
    n_reps: int = 60,
    seed: int = 0,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Returns (rrmse table, total-sum conservation table)."""
    cfg = sweep_config(
        n_items=n_items,
        total=total,
        shape=shape,
        subset_size=subset_size,
        n_subsets=n_subsets,
    )
    counts, subsets = cfg["counts"], cfg["subsets"]
    subset_sets = [set(s.tolist()) for s in subsets]
    item_ids = np.arange(len(counts))
    everything = set(item_ids.tolist())

    def one_rep(rep_seed: int) -> pd.DataFrame:
        rng = np.random.default_rng(rep_seed)
        stream = permuted_stream(counts, rng)
        sk = UnbiasedSpaceSaving.from_stream(stream.tolist(), m, seed=rep_seed)
        uss = [sk.subset_sum(s)[0] for s in subset_sets]
        uss.append(sk.subset_sum(everything)[0])
        ps = priority_sample(item_ids, counts, m, rng)
        pri = [ps.subset_sum(s)[0] for s in subset_sets]
        pri.append(ps.subset_sum(everything)[0])
        return replication_rows(
            rep_seed, {"unbiased_ss": {"est": uss}, "priority": {"est": pri}}
        )

    rows = run_replications(spark, n_reps, one_rep, base_seed=seed)
    total_id = len(subset_sets)  # the appended grand-total query
    is_total = rows["query"] == total_id
    tab = summarize(
        rows[~is_total], cfg["truths"], cfg["total"], extra={"shape": shape}
    )
    totals = query_summary(
        rows[is_total], np.append(cfg["truths"], cfg["total"])
    )[["method", "rrmse"]].rename(columns={"rrmse": "total_rrmse"})
    return tab, totals
