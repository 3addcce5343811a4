"""T1 (paper Figure 2): empirical inclusion probabilities are PPS.

Setup mirrors the paper: per-item counts approximating a rounded,
heavily skewed Weibull (shape 0.15: sd ~ 30x the mean) built by the
inverse-CDF-on-a-grid method; a randomly permuted (exchangeable ~
i.i.d.) stream; Unbiased Space Saving with ``m`` bins. Claim: the
probability an item ends up labelled in the sketch matches the
thresholded PPS inclusion probability ``min(1, alpha * n_i)``. The
empirical probability is ``common.replicate``'s mean ``C_S`` of the
singleton query ``{i}``: 1 exactly when the sketch holds item ``i``.
"""
from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.space_saving import UnbiasedSpaceSaving
from repro.experiments.common import bucket_by_quantile, replicate
from repro.sampling.pps import thresholded_pps_probs
from repro.streams.orders import permuted_stream
from repro.streams.weibull import weibull_counts


def run(
    spark: SparkSession,
    *,
    n_items: int,
    total: int,
    shape: float,
    m: int,
    n_reps: int,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Returns (:func:`summarize`'s decile table, the per-item frame of
    empirical vs theoretical PPS inclusion probabilities)."""
    counts = weibull_counts(n_items, shape=shape, target_total=total)
    items = np.arange(len(counts))
    rows = replicate(
        spark, partial(permuted_stream, counts), [{i} for i in items.tolist()],
        m, n_reps, methods={"unbiased_ss": UnbiasedSpaceSaving},
    )
    out = pd.DataFrame(
        {
            "item": items,
            "count": counts,
            "pi_pps": thresholded_pps_probs(counts, m),
            "pi_empirical": rows.groupby("query")["c_s"].mean().to_numpy(),
        }
    )
    out["n_reps"] = n_reps
    return summarize(out), out


def summarize(per_item: pd.DataFrame, *, n_buckets: int = 10) -> pd.DataFrame:
    """Table rows: count-decile buckets, mean theoretical vs empirical pi."""
    idx, _ = bucket_by_quantile(per_item["count"].to_numpy(), n_buckets)
    per_item = per_item.assign(bucket=idx)
    g = per_item.groupby("bucket")
    out = pd.DataFrame(
        {
            "mean_count": g["count"].mean(),
            "pi_pps": g["pi_pps"].mean(),
            "pi_empirical": g["pi_empirical"].mean(),
            "n_items": g.size(),
        }
    ).reset_index()
    out["abs_gap"] = (out["pi_pps"] - out["pi_empirical"]).abs()
    return out
