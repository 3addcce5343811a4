"""Shared experiment machinery: one replication, one row format and one
per-query error summary.

Every streaming table (T1-T4, T6-T8) is :func:`replicate`: Monte-Carlo
replications that arrange a stream, sketch it (or draw a pre-aggregated
baseline) and answer every subset query with an estimate, its eq.-5
variance and interval, and ``C_S``. :func:`run_replications` fans a
per-seed function out over the local cores with
``spark.range(...).mapInPandas`` (DataFrame API; the closure ships via
cloudpickle), collecting each replication's rows into one pandas frame;
T5 calls it directly. Each replication packs its values with
:func:`replication_rows` into the long format of :data:`ROW_SCHEMA`;
:func:`query_summary` turns those rows into bias, RRMSE, SD and (where
the rows carry intervals) coverage per (method, query). The tables add
only their own bucketing.
"""
from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.variance import coverage

#: schema of :func:`replication_rows` frames that carry only an estimate
ROW_SCHEMA = "seed long, method string, query long, est double"

#: schema of :func:`replicate` rows: ``subset_sum_stats``' estimate, eq.-5
#: variance, interval and ``C_S``
REPLICATE_SCHEMA = ROW_SCHEMA + ", var double, lo double, hi double, c_s long"


def run_replications(
    spark: SparkSession,
    n_reps: int,
    fn: Callable[[int], pd.DataFrame],
    schema: str = ROW_SCHEMA,
    *,
    base_seed: int = 0,
) -> pd.DataFrame:
    """Run ``fn(seed)`` for seeds ``base_seed..base_seed+n_reps-1`` in parallel.

    ``fn`` returns a pandas frame matching ``schema``, by default the
    :func:`replication_rows` format. Results are concatenated and
    returned to the driver.
    """
    nparts = spark.sparkContext.defaultParallelism
    reps = spark.range(n_reps).repartition(min(nparts, max(1, n_reps)))

    def runner(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            for rid in pdf["id"].tolist():
                out = fn(base_seed + int(rid))
                if len(out):
                    yield out

    return reps.mapInPandas(runner, schema=schema).toPandas()


def replicate(
    spark: SparkSession,
    arrange: Callable[[np.random.Generator], np.ndarray],
    queries: Sequence[set],
    m: int,
    n_reps: int,
    *,
    methods: dict[str, Callable],
    base_seed: int = 0,
) -> pd.DataFrame:
    """``n_reps`` replications of every method's answer to every query.

    Replication ``seed`` draws ``rng = default_rng(seed)`` and then the
    stream ``arrange(rng)``. Each method, in the order given, is either
    a Space Saving class, which sketches the stream with ``m`` bins and
    ``seed=seed``, or a pre-aggregated baseline ``sampler(m, rng)``,
    which draws from the same ``rng`` after the arrangement. Returns
    :func:`replication_rows` of :data:`REPLICATE_SCHEMA`, method by
    method in the order given.
    """

    def one_rep(seed: int) -> pd.DataFrame:
        rng = np.random.default_rng(seed)
        stream = arrange(rng).tolist()
        by_method = {}
        for method, make in methods.items():
            if isinstance(make, type):
                res = make.from_stream(stream, m, seed=seed).result()
            else:
                res = make(m, rng)
            recs = [res.subset_sum_stats(q) for q in queries]
            by_method[method] = dict(zip(("est", "var", "lo", "hi", "c_s"), zip(*recs)))
        return replication_rows(seed, by_method)

    return run_replications(
        spark, n_reps, one_rep, REPLICATE_SCHEMA, base_seed=base_seed
    )


def rrmse(estimates: np.ndarray, truth: float) -> float:
    """Relative root mean squared error ``sqrt(E[(est-truth)^2]) / truth``."""
    est = np.asarray(estimates, dtype=np.float64)
    if truth == 0:
        raise ValueError("RRMSE undefined for a zero true value")
    return float(np.sqrt(np.mean((est - truth) ** 2)) / truth)


def replication_rows(seed: int, by_method: dict[str, dict]) -> pd.DataFrame:
    """Pack one replication's per-query values into long rows.

    ``by_method`` maps each method to its columns, each a sequence with
    one value per query: ``est`` always, ``lo``/``hi`` where the table
    has intervals, and any other per-query value the table keeps. Rows
    are ``seed, method, query`` followed by those columns, method by
    method in the order given.
    """
    return pd.concat(
        [
            pd.DataFrame(
                {
                    "seed": seed,
                    "method": method,
                    "query": np.arange(len(cols["est"])),
                    **cols,
                }
            )
            for method, cols in by_method.items()
        ],
        ignore_index=True,
    )


def query_summary(rows: pd.DataFrame, truths: np.ndarray) -> pd.DataFrame:
    """Error of each (method, query) over its replications' rows.

    ``truths[q]`` is query ``q``'s exact answer. One row per (method,
    query), sorted by both: ``truth``, ``mean_est``, ``rel_bias``,
    ``rrmse``, ``empirical_sd`` (ddof=1), ``coverage`` when ``rows``
    carry ``lo``/``hi``, and ``n_reps``. A zero truth raises
    ``ValueError`` (through :func:`rrmse`).
    """
    out = []
    for (method, query), grp in rows.groupby(["method", "query"]):
        est, truth = grp["est"], float(truths[query])
        err = rrmse(est.to_numpy(), truth)  # raises before rel_bias divides
        mean = float(est.mean())
        rec = {
            "method": method,
            "query": query,
            "truth": truth,
            "mean_est": mean,
            "rel_bias": (mean - truth) / truth,
            "rrmse": err,
            "empirical_sd": float(est.std(ddof=1)),
        }
        if "lo" in grp:
            rec["coverage"] = coverage(truth, grp["lo"], grp["hi"])
        rec["n_reps"] = len(grp)
        out.append(rec)
    return pd.DataFrame(out)


def draw_subsets(
    n_items: int, subset_size: int, n_subsets: int, *, seed: int = 123
) -> list[np.ndarray]:
    """Fixed random item subsets (the paper's random filter conditions)."""
    g = np.random.default_rng(seed)
    return [
        g.choice(n_items, size=min(subset_size, n_items), replace=False)
        for _ in range(n_subsets)
    ]


def bucket_by_quantile(
    values: np.ndarray, n_buckets: int = 4
) -> tuple[np.ndarray, np.ndarray]:
    """Assign each value a quantile bucket; returns (bucket_idx, edges)."""
    v = np.asarray(values, dtype=np.float64)
    edges = np.quantile(v, np.linspace(0, 1, n_buckets + 1))
    edges[0] -= 1e-9
    idx = np.clip(np.searchsorted(edges, v, side="left") - 1, 0, n_buckets - 1)
    return idx, edges
