"""T6 (paper Figure 7): the two-phase stream that breaks Deterministic SS.

The stream's first half is an i.i.d. draw over items ``0..n-1``, the
second half over disjoint items ``n..2n-1`` (data partitioned by a key
and fed partition-by-partition — the paper's "natural" pathological
case). Deterministic Space Saving forgets the first half's infrequent
items entirely: its bins end up holding second-half labels, so
first-half subset queries are near zero. Unbiased Space Saving keeps
sampling first-half items with PPS-like inclusion probabilities and
stays unbiased.

Outputs: per-item inclusion probabilities for first-half items, and
RRMSE of random first-half subset sums for both algorithms. Both come
from one ``common.replicate`` run over the subsets and then the
singleton query ``{i}`` of each first-half item, whose mean ``C_S`` is
the item's inclusion probability.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.space_saving import (
    DeterministicSpaceSaving,
    UnbiasedSpaceSaving,
)
from repro.experiments.common import (
    bucket_by_quantile,
    draw_subsets,
    query_summary,
    replicate,
)
from repro.streams.orders import two_phase_stream
from repro.streams.weibull import weibull_counts


def run(
    spark: SparkSession,
    *,
    n_items_half: int,
    total_half: int,
    shape: float,
    m: int,
    subset_size: int,
    n_subsets: int,
    n_reps: int,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Returns (inclusion table, subset-error table)."""
    counts1 = weibull_counts(n_items_half, shape=shape, target_total=total_half)
    counts2 = weibull_counts(n_items_half, shape=shape, target_total=total_half)
    n_first = len(counts1)
    subsets = draw_subsets(n_first, subset_size, n_subsets, seed=777)
    truths = np.asarray([counts1[s].sum() for s in subsets], dtype=np.float64)
    rows = replicate(
        spark,
        lambda rng: two_phase_stream(counts1, counts2, rng)[0],
        [*(set(s.tolist()) for s in subsets), *({i} for i in range(n_first))],
        m,
        n_reps,
        methods={
            "unbiased_ss": UnbiasedSpaceSaving,
            "deterministic_ss": DeterministicSpaceSaving,
        },
    )
    is_item = rows["query"] >= n_subsets

    pi = (
        rows[is_item].groupby(["method", "query"])["c_s"].mean()
        .rename("pi").reset_index()
    )
    item = pi["query"].to_numpy() - n_subsets
    pi["count"] = counts1[item]
    idx, _ = bucket_by_quantile(counts1.astype(float), 5)
    pi["bucket"] = idx[item]
    inclusion_tab = (
        pi.groupby(["method", "bucket"])
        .agg(mean_count=("count", "mean"), pi_empirical=("pi", "mean"))
        .reset_index()
    )

    per_subset = query_summary(rows[~is_item], truths)
    err = []
    for method, grp in per_subset.groupby("method"):
        err.append(
            {
                "method": method,
                "rrmse_mean": float(grp["rrmse"].mean()),
                "rrmse_median": float(grp["rrmse"].median()),
                "rel_bias_mean": float(grp["rel_bias"].mean()),
                "n_subsets": len(grp),
                "n_reps": int(grp["n_reps"].max()),
            }
        )
    return inclusion_tab, pd.DataFrame(err)
