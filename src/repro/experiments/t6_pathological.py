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
RRMSE of random first-half subset sums for both algorithms.
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
    ROW_SCHEMA,
    bucket_by_quantile,
    draw_subsets,
    query_summary,
    replication_rows,
    run_replications,
)
from repro.streams.orders import two_phase_stream
from repro.streams.weibull import weibull_counts

#: ``kind`` tells the two row sets apart: "inc" rows hold first-half item
#: ``query``'s inclusion indicator, "est" rows subset ``query``'s estimate
_SCHEMA = ROW_SCHEMA + ", kind string"


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
    subset_sets = [set(s.tolist()) for s in subsets]
    truths = np.asarray([counts1[s].sum() for s in subsets], dtype=np.float64)

    def one_rep(rep_seed: int) -> pd.DataFrame:
        rng = np.random.default_rng(rep_seed)
        stream, _ = two_phase_stream(counts1, counts2, rng)
        stream_list = stream.tolist()
        inc, est = {}, {}
        for method, cls in (
            ("unbiased_ss", UnbiasedSpaceSaving),
            ("deterministic_ss", DeterministicSpaceSaving),
        ):
            res = cls.from_stream(stream_list, m, seed=rep_seed).result()
            items = res.items
            included = np.zeros(n_first, dtype=np.float64)
            included[items[items < n_first]] = 1.0
            inc[method] = {"est": included}
            est[method] = {"est": [res.subset_sum(s)[0] for s in subset_sets]}
        return pd.concat(
            [
                replication_rows(rep_seed, inc).assign(kind="inc"),
                replication_rows(rep_seed, est).assign(kind="est"),
            ],
            ignore_index=True,
        )

    rows = run_replications(spark, n_reps, one_rep, _SCHEMA)

    inc = rows[rows["kind"] == "inc"]
    pi = inc.groupby(["method", "query"])["est"].mean().rename("pi").reset_index()
    pi["count"] = counts1[pi["query"].to_numpy()]
    idx, _ = bucket_by_quantile(counts1.astype(float), 5)
    pi["bucket"] = idx[pi["query"].to_numpy()]
    inclusion_tab = (
        pi.groupby(["method", "bucket"])
        .agg(mean_count=("count", "mean"), pi_empirical=("pi", "mean"))
        .reset_index()
    )

    per_subset = query_summary(rows[rows["kind"] == "est"], truths)
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
