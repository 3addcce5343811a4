"""T1 (paper Figure 2): empirical inclusion probabilities are PPS.

Setup mirrors the paper: per-item counts approximating a rounded,
heavily skewed Weibull (shape 0.15: sd ~ 30x the mean) built by the
inverse-CDF-on-a-grid method; a randomly permuted (exchangeable ~
i.i.d.) stream; Unbiased Space Saving with ``m`` bins. Claim: the
probability an item ends up labelled in the sketch matches the
thresholded PPS inclusion probability ``min(1, alpha * n_i)``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.space_saving import UnbiasedSpaceSaving
from repro.experiments.common import bucket_by_quantile, run_replications
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
    pi_pps = thresholded_pps_probs(counts, m)

    def one_rep(rep_seed: int) -> pd.DataFrame:
        rng = np.random.default_rng(rep_seed)
        stream = permuted_stream(counts, rng)
        sk = UnbiasedSpaceSaving.from_stream(stream.tolist(), m, seed=rep_seed)
        inc = np.zeros(len(counts), dtype=np.int64)
        inc[sk.result().items] = 1
        return pd.DataFrame(
            {"item": np.arange(len(counts)), "included": inc}
        )

    rows = run_replications(spark, n_reps, one_rep, "item long, included long")
    emp = rows.groupby("item")["included"].mean()
    out = pd.DataFrame(
        {
            "item": np.arange(len(counts)),
            "count": counts,
            "pi_pps": pi_pps,
            "pi_empirical": emp.reindex(np.arange(len(counts)), fill_value=0.0).to_numpy(),
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
