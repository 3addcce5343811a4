"""T2 (paper Figure 3): accuracy improves with skew and subset size.

For each Weibull shape (lower shape = heavier tail = more skew),
estimate random 100-item subset sums with an m-bin Unbiased Space
Saving sketch over a permuted stream; report RRMSE bucketed by the
subset's true count. Paper claim: error falls as skew rises and as the
subset's true fraction of the data grows.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.space_saving import UnbiasedSpaceSaving
from repro.experiments.common import replication_rows, run_replications
from repro.experiments.subset_sweep import summarize, sweep_config
from repro.streams.orders import permuted_stream


def run(
    spark: SparkSession,
    *,
    shapes: tuple[float, ...] = (0.3, 0.6, 1.0, 2.0),
    n_items: int = 1000,
    total: int = 300_000,
    m: int = 200,
    subset_size: int = 100,
    n_subsets: int = 40,
    n_reps: int = 60,
    seed: int = 0,
) -> pd.DataFrame:
    """RRMSE table per (shape, true-count bucket)."""
    tables = []
    for shape_i, shape in enumerate(shapes):
        cfg = sweep_config(
            n_items=n_items,
            total=total,
            shape=shape,
            subset_size=subset_size,
            n_subsets=n_subsets,
        )
        counts, subsets = cfg["counts"], cfg["subsets"]
        subset_sets = [set(s.tolist()) for s in subsets]

        def one_rep(rep_seed: int) -> pd.DataFrame:
            rng = np.random.default_rng(rep_seed)
            stream = permuted_stream(counts, rng)
            sk = UnbiasedSpaceSaving.from_stream(
                stream.tolist(), m, seed=rep_seed
            )
            est = np.asarray([sk.subset_sum(s)[0] for s in subset_sets])
            return replication_rows(rep_seed, {"unbiased_ss": {"est": est}})

        rows = run_replications(
            spark, n_reps, one_rep, base_seed=seed + shape_i * 10_000
        )
        tab = summarize(
            rows, cfg["truths"], cfg["total"], extra={"shape": shape}
        )
        tables.append(tab)
    return pd.concat(tables, ignore_index=True)
