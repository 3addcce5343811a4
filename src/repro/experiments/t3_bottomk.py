"""T3 (paper Figure 4): Unbiased Space Saving vs bottom-k uniform sampling.

Same synthetic subset-sum workload as T2 at ``m = 100``. The bottom-k
sketch samples items uniformly regardless of count, so on skewed data
its subset-sum error is orders of magnitude worse — the paper's Figure
4 claim, quantified here as an RRMSE ratio per true-count bucket.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.space_saving import UnbiasedSpaceSaving
from repro.experiments.common import replication_rows, run_replications
from repro.experiments.subset_sweep import summarize, sweep_config
from repro.sampling.bottomk import bottomk_from_counts
from repro.streams.orders import permuted_stream


def run(
    spark: SparkSession,
    *,
    shape: float = 0.3,
    n_items: int = 1000,
    total: int = 300_000,
    m: int = 100,
    subset_size: int = 100,
    n_subsets: int = 40,
    n_reps: int = 60,
    seed: int = 0,
) -> pd.DataFrame:
    """RRMSE per (method, bucket) plus a ratio pivot (bottomk / USS)."""
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

    def one_rep(rep_seed: int) -> pd.DataFrame:
        rng = np.random.default_rng(rep_seed)
        stream = permuted_stream(counts, rng)
        sk = UnbiasedSpaceSaving.from_stream(stream.tolist(), m, seed=rep_seed)
        uss = np.asarray([sk.subset_sum(s)[0] for s in subset_sets])
        bk = bottomk_from_counts(item_ids, counts, m, rng)
        bot = np.asarray([bk.subset_sum(s)[0] for s in subset_sets])
        return replication_rows(
            rep_seed, {"unbiased_ss": {"est": uss}, "bottomk": {"est": bot}}
        )

    rows = run_replications(spark, n_reps, one_rep, base_seed=seed)
    return summarize(rows, cfg["truths"], cfg["total"], extra={"shape": shape})
