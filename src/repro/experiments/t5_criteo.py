"""T5 (paper Figure 6): 1-way and 2-way marginals on ad-impression data.

The unit of analysis is the full 9-feature tuple of the synthetic
Criteo-like log (DESIGN.md substitution #1); almost every tuple is rare,
so the stream is maximally disaggregated. Queries are marginal counts —
all (feature, value) pairs above a minimum fraction plus a panel of
2-way (value, value) pairs — estimated from an Unbiased Space Saving
sketch of the raw stream and from a priority sample of the exact
pre-aggregated tuple counts. The paper reports *relative MSE* by
marginal size: < 5% for marginals of 100k-200k rows (of 45M) and
< 0.5% above half the data, with USS ~ priority sampling; we report the
same metric per size bucket.
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
from repro.sampling.priority import priority_sample
from repro.streams.criteo import (
    N_FEATURES,
    impressions_pdf,
    marginal_value,
    tuple_item_column,
)

#: marginal-size buckets as fractions of the stream (paper's x-axis)
FRACTION_EDGES = (0.002, 0.005, 0.02, 0.1, 0.5, 1.01)


def build_queries(
    agg_items: np.ndarray,
    agg_counts: np.ndarray,
    total: float,
    *,
    min_frac: float,
) -> list[tuple]:
    """1-way queries ``(f, v)`` and 2-way queries ``(f1, v1, f2, v2)``.

    All 1-way marginals above ``min_frac`` are kept; 2-way queries pair
    the heaviest values of consecutive features, filtered to the same
    threshold; the heaviest 40 of them are kept.
    """
    queries: list[tuple] = []
    top_values: list[list[int]] = []
    for f in range(N_FEATURES):
        vals = marginal_value(agg_items, f)
        series = pd.Series(agg_counts).groupby(vals).sum()
        keep = series[series / total >= min_frac]
        queries.extend((f, int(v)) for v in keep.index)
        top_values.append(series.nlargest(3).index.tolist())
    two_way = []
    for f1 in range(N_FEATURES - 1):
        f2 = f1 + 1
        for v1 in top_values[f1]:
            for v2 in top_values[f2]:
                two_way.append((f1, int(v1), f2, int(v2)))
    # filter 2-way by truth and cap the panel size
    truths = _eval_queries(agg_items, agg_counts.astype(np.float64), two_way)
    kept = [(q, t) for q, t in zip(two_way, truths) if t / total >= min_frac]
    kept.sort(key=lambda p: -p[1])
    queries.extend(q for q, _ in kept[:40])
    return queries


def _eval_queries(
    items: np.ndarray, values: np.ndarray, queries: list[tuple]
) -> np.ndarray:
    """Vectorized evaluation of marginal queries over (item, value) pairs."""
    items = np.asarray(items, dtype=np.int64)
    out = np.empty(len(queries), dtype=np.float64)
    decoded: dict[int, np.ndarray] = {}

    def dec(f: int) -> np.ndarray:
        if f not in decoded:
            decoded[f] = marginal_value(items, f)
        return decoded[f]

    for i, q in enumerate(queries):
        if len(q) == 2:
            f, v = q
            mask = dec(f) == v
        else:
            f1, v1, f2, v2 = q
            mask = (dec(f1) == v1) & (dec(f2) == v2)
        out[i] = values[mask].sum()
    return out


def run(
    spark: SparkSession,
    *,
    n_rows: int,
    m: int,
    n_reps: int,
) -> pd.DataFrame:
    """Relative MSE per (method, marginal-size bucket)."""
    pdf = impressions_pdf(n_rows, seed=42)
    items = tuple_item_column(pdf).to_numpy()
    agg = pd.Series(items).value_counts()
    agg_items = agg.index.to_numpy()
    agg_counts = agg.to_numpy().astype(np.float64)
    total = float(n_rows)
    # the smallest marginal queried is the smallest bucket's lower edge
    queries = build_queries(
        agg_items, agg_counts, total, min_frac=FRACTION_EDGES[0]
    )
    truths = _eval_queries(agg_items, agg_counts, queries)

    def one_rep(rep_seed: int) -> pd.DataFrame:
        rng = np.random.default_rng(rep_seed)
        sk = UnbiasedSpaceSaving.from_stream(items.tolist(), m, seed=rep_seed)
        res = sk.result()
        uss = _eval_queries(res.items, res.estimates, queries)
        ps = priority_sample(agg_items, agg_counts, m, rng)
        pri = _eval_queries(ps.items, ps.estimates, queries)
        return replication_rows(
            rep_seed, {"unbiased_ss": {"est": uss}, "priority": {"est": pri}}
        )

    rows = run_replications(spark, n_reps, one_rep)
    frac = truths / total
    bucket = np.clip(
        np.searchsorted(FRACTION_EDGES, frac, side="right") - 1,
        0,
        len(FRACTION_EDGES) - 2,
    )
    per_query = query_summary(rows, truths)
    per_query["bucket"] = bucket[per_query["query"]]
    out = []
    for (method, b), grp in per_query.groupby(["method", "bucket"]):
        out.append(
            {
                "method": method,
                "bucket": b,
                "frac_lo": FRACTION_EDGES[b],
                "frac_hi": FRACTION_EDGES[b + 1],
                "mean_true_frac": float(frac[grp["query"]].mean()),
                "rel_mse_mean": float((grp["rrmse"] ** 2).mean()),
                "rel_rmse_mean": float(grp["rrmse"].mean()),
                "n_queries": len(grp),
                "n_reps": int(grp["n_reps"].max()),
                "m": m,
                "n_rows": n_rows,
            }
        )
    return pd.DataFrame(out)
