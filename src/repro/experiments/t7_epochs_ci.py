"""T7 (paper Figures 8-9): variance estimate and CI coverage on a
pathological frequency-sorted stream.

The stream presents items grouped by item in *ascending* frequency
order — the worst case for Unbiased Space Saving (sec 7.1). The item
universe is split into ``n_epochs`` contiguous blocks of distinct items
("epochs"); each epoch's total count is estimated with an eq.-5
variance estimate and a 95% Normal interval. Paper claims: the variance
estimate is accurate-to-upward-biased (exact for mid epochs, inflated
for early ones), intervals deliver >= advertised coverage wherever the
CLT applies (mid epochs with ~3-13 sampled items undercover), and the
variance tracks that of a true PPS sample.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.space_saving import UnbiasedSpaceSaving
from repro.core.variance import pps_reference_variance
from repro.experiments.common import query_summary, replicate
from repro.streams.orders import epoch_of_items, sorted_stream
from repro.streams.weibull import weibull_counts


def epoch_setup(
    *, n_items: int, total: int, shape: float, n_epochs: int
) -> dict:
    """Counts (ascending), the sorted stream, epoch membership, each
    epoch's item set, and each epoch's true total."""
    counts = weibull_counts(n_items, shape=shape, target_total=total)
    counts = np.sort(counts)  # ascending: epoch 0 = rarest items
    epochs = epoch_of_items(len(counts), n_epochs)
    stream = sorted_stream(counts)
    truths = np.asarray(
        [counts[epochs == e].sum() for e in range(n_epochs)], dtype=np.float64
    )
    sets = [set(np.flatnonzero(epochs == e).tolist()) for e in range(n_epochs)]
    return {
        "counts": counts,
        "epochs": epochs,
        "sets": sets,
        "stream": stream,
        "truths": truths,
    }


def run(
    spark: SparkSession,
    *,
    n_items: int,
    total: int,
    shape: float,
    m: int,
    n_epochs: int,
    n_reps: int,
) -> pd.DataFrame:
    """Per-epoch: truth, mean estimate, empirical vs estimated vs PPS SD,
    and empirical CI coverage."""
    cfg = epoch_setup(
        n_items=n_items, total=total, shape=shape, n_epochs=n_epochs
    )
    counts, epochs, truths = cfg["counts"], cfg["epochs"], cfg["truths"]
    stream = cfg["stream"]  # numpy: pickles compactly to the workers
    rows = replicate(
        spark, lambda rng: stream, cfg["sets"], m, n_reps,
        methods={"unbiased_ss": UnbiasedSpaceSaving},
    )
    by_epoch = rows.groupby("query")
    tab = query_summary(rows, truths).assign(
        epoch=lambda t: t["query"],
        estimated_sd=by_epoch["var"].apply(lambda v: np.sqrt(v).mean()).to_numpy(),
        pps_sd=[
            float(np.sqrt(pps_reference_variance(counts, epochs == e, m)))
            for e in range(n_epochs)
        ],
        mean_items_in_sample=by_epoch["c_s"].apply(lambda v: v.mean()).to_numpy(),
    )
    return tab[
        [
            "epoch",
            "truth",
            "mean_est",
            "rel_bias",
            "empirical_sd",
            "estimated_sd",
            "pps_sd",
            "mean_items_in_sample",
            "coverage",
            "n_reps",
        ]
    ]
