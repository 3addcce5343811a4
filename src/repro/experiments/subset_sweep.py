"""The synthetic subset-sum sweep of Tables T2-T4 (Figures 3-5).

A sweep fixes a discretized-Weibull count vector, a set of random item
subsets, the paper's arbitrary filter conditions, and the arrangement
of the stream as a fresh permutation per replication
(:func:`sweep_config`). The three tables run it through
``common.replicate``: Unbiased Space Saving sketches the permuted
stream, the table's pre-aggregated baseline, if any, samples the exact
counts, and every method answers every query. :func:`summarize` buckets
``common.query_summary``'s per-subset relative root mean squared error
(RRMSE) by the subset's true count (the x-axis of the figures). The
tables differ only in the Weibull shapes they sweep, the baseline they
pass and, for T4, one extra query.
"""
from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd

from repro.experiments.common import bucket_by_quantile, draw_subsets, query_summary
from repro.streams.orders import permuted_stream
from repro.streams.weibull import weibull_counts


def sweep_config(
    *,
    n_items: int,
    total: int,
    shape: float,
    subset_size: int,
    n_subsets: int,
) -> dict:
    """Counts, subsets (as item sets), truths and the arrangement
    ``arrange(rng)``, a permutation of the stream, shared by every
    replication."""
    counts = weibull_counts(n_items, shape=shape, target_total=total)
    subsets = draw_subsets(len(counts), subset_size, n_subsets)
    truths = np.asarray([counts[s].sum() for s in subsets], dtype=np.float64)
    return {
        "counts": counts,
        "sets": [set(s.tolist()) for s in subsets],
        "truths": truths,
        "total": float(counts.sum()),
        "arrange": partial(permuted_stream, counts),
    }


def summarize(
    rows: pd.DataFrame,
    truths: np.ndarray,
    total: float,
    *,
    n_buckets: int = 4,
    extra: dict | None = None,
) -> pd.DataFrame:
    """RRMSE per method, bucketed by the subset's true-count fraction.

    ``rows`` are :func:`~repro.experiments.common.replicate` rows with
    one query per subset. Returns one row per (method, bucket): the mean
    true fraction of the bucket's subsets, mean/median RRMSE, and the
    replication count, then ``extra``. Each other method's mean RRMSE
    over Unbiased Space Saving's, when both are present, is one more
    column per bucket, ``<method>_over_uss``.
    """
    bucket_idx, _ = bucket_by_quantile(truths, n_buckets)
    per_query = query_summary(rows, truths)
    per_query["bucket"] = bucket_idx[per_query["query"]]
    out = []
    for (method, b), grp in per_query.groupby(["method", "bucket"]):
        row = {
            "method": method,
            "bucket": b,
            "true_frac": float(truths[bucket_idx == b].mean() / total),
            "rrmse_mean": float(grp["rrmse"].mean()),
            "rrmse_median": float(grp["rrmse"].median()),
            "n_subsets": len(grp),
            "n_reps": int(grp["n_reps"].max()),
        }
        if extra:
            row.update(extra)
        out.append(row)
    tab = pd.DataFrame(out)
    piv = tab.pivot_table(index="bucket", columns="method", values="rrmse_mean")
    if "unbiased_ss" in piv:
        for method in piv.columns.drop("unbiased_ss"):
            ratio = piv[method] / piv["unbiased_ss"]
            tab = tab.merge(
                ratio.rename(f"{method}_over_uss").reset_index(),
                on="bucket",
                how="left",
            )
    return tab
