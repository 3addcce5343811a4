"""T9 (paper sec 5.5, no figure): distributed sketching via unbiased merge.

The paper's distributed-counting claim: per-partition sketches merged
with an unbiased reduction (Theorem 2) answer subset sums over the
union without bias. We exercise the full Spark dataflow on TPC-H-lite
``lineitem`` disaggregated by ``l_partkey`` across many partitions:
per-brand subset sums (brand -> partkeys via the ``part`` dimension)
estimated from the merged sketch, checked for bias, RRMSE, and CI
coverage against exact answers (which tests verify against DuckDB).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.spark_sketch import exact_counts, sketch_dataframe
from repro.core.variance import coverage
from repro.synth_data import lineitem, part


def run(
    spark: SparkSession,
    *,
    sf: float = 0.05,
    m: int = 500,
    n_reps: int = 25,
    n_partitions: int = 16,
    seed: int = 0,
    weight_col: str | None = None,
) -> pd.DataFrame:
    """Per-brand: truth, mean estimate, relative bias, RRMSE, CI coverage.

    Replications reseed the sketch (each is a full Spark aggregation
    job); the data is generated once and cached.
    """
    li = lineitem(spark, sf=sf).repartition(n_partitions).cache()
    pt = part(spark, sf=sf).toPandas()
    truth_pdf = exact_counts(li, "l_partkey", weight_col=weight_col).toPandas()
    truth = truth_pdf.set_index("item")["n"]

    brands = sorted(pt["p_brand"].unique())
    brand_sets = {
        b: set(pt.loc[pt["p_brand"] == b, "p_partkey"].tolist()) for b in brands
    }
    truths = {
        b: float(truth[truth.index.isin(s)].sum()) for b, s in brand_sets.items()
    }

    recs = []
    for r in range(n_reps):
        res = sketch_dataframe(
            li, "l_partkey", m, weight_col=weight_col, seed=seed + 1000 * r
        )
        for b, s in brand_sets.items():
            est, var, lo, hi = res.subset_sum_ci(s)
            recs.append(
                {"rep": r, "brand": b, "est": est, "lo": lo, "hi": hi}
            )
    li.unpersist()
    rows = pd.DataFrame(recs)

    out = []
    for b in brands:
        grp = rows[rows["brand"] == b]
        t = truths[b]
        est = grp["est"].to_numpy()
        out.append(
            {
                "brand": b,
                "truth": t,
                "mean_est": float(est.mean()),
                "rel_bias": float((est.mean() - t) / t) if t else 0.0,
                "rrmse": float(np.sqrt(np.mean((est - t) ** 2)) / t)
                if t
                else 0.0,
                "coverage": coverage(t, grp["lo"], grp["hi"]),
                "n_reps": n_reps,
            }
        )
    return pd.DataFrame(out)
