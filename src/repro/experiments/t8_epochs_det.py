"""T8 (paper Figure 10): Deterministic vs Unbiased SS on the sorted stream.

Same frequency-sorted pathological stream as T7. Deterministic Space
Saving's bins end up holding only the last (most frequent) items, so
every early epoch is estimated as 0 and the final epochs absorb the
whole total — the paper reports ~50x the error of Unbiased Space
Saving on epochs 9-10, with the 0-estimate winning only for epochs so
small (< 0.002% of the total) that unbiased overestimation costs more.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.space_saving import (
    DeterministicSpaceSaving,
    UnbiasedSpaceSaving,
)
from repro.experiments.common import query_summary, replicate
from repro.experiments.t7_epochs_ci import epoch_setup


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
    """Per-epoch RRMSE for both algorithms and the error ratio."""
    cfg = epoch_setup(
        n_items=n_items, total=total, shape=shape, n_epochs=n_epochs
    )
    truths, stream = cfg["truths"], cfg["stream"]
    rows = replicate(
        spark, lambda rng: stream, cfg["sets"], m, n_reps,
        methods={
            "unbiased_ss": UnbiasedSpaceSaving,
            "deterministic_ss": DeterministicSpaceSaving,
        },
    )
    per_epoch = query_summary(rows, truths).pivot(
        index="query", columns="method", values="rrmse"
    )
    out = pd.DataFrame(
        {
            "epoch": per_epoch.index,
            "truth": truths,
            "truth_frac": truths / cfg["counts"].sum(),
        }
    )
    for method in per_epoch.columns:
        out[f"rrmse_{method}"] = per_epoch[method].to_numpy()
    uss = out["rrmse_unbiased_ss"]
    out["det_over_uss"] = (out["rrmse_deterministic_ss"] / uss).where(
        uss != 0, float("inf")
    )
    return out
