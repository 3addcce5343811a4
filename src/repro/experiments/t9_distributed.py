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
from repro.experiments.common import query_summary, replication_rows
from repro.synth_data import lineitem, part


def run(
    spark: SparkSession,
    *,
    sf: float,
    m: int,
    n_reps: int,
    n_partitions: int,
) -> pd.DataFrame:
    """Per-brand: truth, mean estimate, relative bias, RRMSE, CI coverage.

    Replications reseed the sketch (each is a full Spark aggregation
    job); the data is generated once and cached.
    """
    li = lineitem(spark, sf=sf).repartition(n_partitions).cache()
    pt = part(spark, sf=sf).toPandas()
    truth_pdf = exact_counts(li, "l_partkey").toPandas()
    truth = truth_pdf.set_index("item")["n"]

    brands = sorted(pt["p_brand"].unique())
    brand_sets = [
        set(pt.loc[pt["p_brand"] == b, "p_partkey"].tolist()) for b in brands
    ]
    truths = np.asarray(
        [float(truth[truth.index.isin(s)].sum()) for s in brand_sets]
    )

    reps = []
    for r in range(n_reps):
        res = sketch_dataframe(li, "l_partkey", m, seed=1000 * r)
        est, _, lo, hi = zip(*(res.subset_sum_ci(s) for s in brand_sets))
        cols = {"est": est, "lo": lo, "hi": hi}
        reps.append(replication_rows(r, {"unbiased_ss": cols}))
    li.unpersist()

    tab = query_summary(pd.concat(reps, ignore_index=True), truths)
    tab["brand"] = np.asarray(brands)[tab["query"]]
    return tab[
        ["brand", "truth", "mean_est", "rel_bias", "rrmse", "coverage", "n_reps"]
    ]
