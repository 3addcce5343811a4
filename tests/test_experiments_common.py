"""Tests for the experiment utility layer (common, sweep, scales, t5)."""
import importlib
import inspect
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.core.space_saving import DeterministicSpaceSaving, UnbiasedSpaceSaving
from repro.experiments.common import (
    bucket_by_quantile,
    draw_subsets,
    query_summary,
    replicate,
    replication_rows,
    rrmse,
    run_replications,
)
from repro.experiments.scales import BENCH, TABLES, TEST, params
from repro.experiments.subset_sweep import summarize, sweep_config
from repro.experiments.t5_criteo import _eval_queries, build_queries
from repro.sampling.priority import priority_sample
from repro.streams.criteo import impressions_pdf, tuple_item_column
from repro.streams.orders import permuted_stream, sorted_stream
from repro.streams.weibull import weibull_counts


def _answers(res, queries) -> dict:
    """One method's ``replicate`` columns, read off a result by hand."""
    est, var, lo, hi = map(list, zip(*(res.subset_sum_ci(q) for q in queries)))
    c_s = [res.subset_sum(q)[1] for q in queries]
    return {"est": est, "var": var, "lo": lo, "hi": hi, "c_s": c_s}


class TestMetrics:
    def test_rrmse_zero_for_exact(self):
        assert rrmse(np.asarray([10.0, 10.0]), 10.0) == 0.0

    def test_rrmse_scale(self):
        assert rrmse(np.asarray([12.0, 8.0]), 10.0) == pytest.approx(0.2)

    def test_rrmse_rejects_zero_truth(self):
        with pytest.raises(ValueError):
            rrmse(np.asarray([1.0]), 0.0)

    def test_draw_subsets_deterministic(self):
        a = draw_subsets(100, 10, 5, seed=1)
        b = draw_subsets(100, 10, 5, seed=1)
        assert all((x == y).all() for x, y in zip(a, b))
        assert all(len(set(s.tolist())) == 10 for s in a)

    def test_bucket_by_quantile_cover_all(self):
        v = np.arange(100.0)
        idx, edges = bucket_by_quantile(v, 4)
        assert set(idx.tolist()) == {0, 1, 2, 3}
        assert len(edges) == 5
        assert (np.bincount(idx) == 25).all()


class TestRunReplications:
    def test_parallel_fan_out(self, spark):
        def fn(seed):
            return pd.DataFrame({"seed": [seed], "v": [seed * 2.0]})

        out = run_replications(spark, 9, fn, "seed long, v double", base_seed=5)
        assert sorted(out["seed"].tolist()) == list(range(5, 14))
        assert (out["v"] == out["seed"] * 2.0).all()


class TestSweepHelpers:
    def test_sweep_config_consistent(self):
        cfg = sweep_config(
            n_items=200, total=20_000, shape=0.5, subset_size=20, n_subsets=7
        )
        assert len(cfg["sets"]) == 7
        assert len(cfg["truths"]) == 7
        assert cfg["total"] == cfg["counts"].sum()
        for s, t in zip(cfg["sets"], cfg["truths"]):
            assert len(s) == 20 and cfg["counts"][sorted(s)].sum() == t

    def test_replicate_draws_baselines_after_the_permutation(self, spark):
        # the committed T3/T4 tables depend on this order of draws
        cfg = sweep_config(
            n_items=200, total=20_000, shape=0.5, subset_size=20, n_subsets=7
        )
        counts, sets, m, seed = cfg["counts"], cfg["sets"], 30, 11
        ids = np.arange(len(counts))
        rows = replicate(
            spark, cfg["arrange"], sets, m, 1,
            methods={
                "unbiased_ss": UnbiasedSpaceSaving,
                "priority": partial(priority_sample, ids, counts),
            },
            base_seed=seed,
        )
        rng = np.random.default_rng(seed)
        stream = permuted_stream(counts, rng)
        uss = UnbiasedSpaceSaving.from_stream(stream.tolist(), m, seed=seed)
        ps = priority_sample(ids, counts, m, rng)
        expected = replication_rows(
            seed,
            {
                "unbiased_ss": _answers(uss.result(), sets),
                "priority": _answers(ps, sets),
            },
        )
        pd.testing.assert_frame_equal(rows, expected)
        alone = replicate(
            spark, cfg["arrange"], sets, m, 1,
            methods={"unbiased_ss": UnbiasedSpaceSaving}, base_seed=seed,
        )
        pd.testing.assert_frame_equal(alone, expected[: len(sets)])

    def test_replicate_fixed_arrangement_matches_hand_built_sketches(self, spark):
        # T8's shape: one sorted stream, both Space Saving variants; the
        # singleton queries are T1's and T6's inclusion indicators
        counts = np.sort(weibull_counts(60, shape=0.5, target_total=3_000))
        stream = sorted_stream(counts)
        m, seed = 12, 4
        queries = [set(range(30)), set(range(30, 60)), *({i} for i in range(60))]
        methods = {
            "unbiased_ss": UnbiasedSpaceSaving,
            "deterministic_ss": DeterministicSpaceSaving,
        }
        rows = replicate(
            spark, lambda rng: stream, queries, m, 1,
            methods=methods, base_seed=seed,
        )
        results = {
            method: cls.from_stream(stream.tolist(), m, seed=seed).result()
            for method, cls in methods.items()
        }
        expected = replication_rows(
            seed, {method: _answers(res, queries) for method, res in results.items()}
        )
        pd.testing.assert_frame_equal(rows, expected)
        for method, res in results.items():
            single = rows[(rows["method"] == method) & (rows["query"] >= 2)]
            held = set(res.items.tolist())
            assert 0 < len(held) < 60
            assert single["c_s"].tolist() == [int(i in held) for i in range(60)]

    def test_replication_rows_schema(self):
        rows = replication_rows(3, {"a": {"est": np.asarray([1.0, 2.0])}})
        assert list(rows.columns) == ["seed", "method", "query", "est"]
        assert len(rows) == 2

    def test_summarize_exact_estimates_zero_error(self):
        truths = np.asarray([10.0, 20.0, 30.0, 40.0])
        rows = pd.concat(
            [replication_rows(s, {"x": {"est": truths}}) for s in range(3)],
            ignore_index=True,
        )
        tab = summarize(rows, truths, 100.0, n_buckets=2)
        assert (tab["rrmse_mean"] == 0).all()

    def test_summarize_ratio_over_uss_per_other_method(self):
        truths = np.asarray([10.0, 20.0])
        rows = pd.concat(
            [
                replication_rows(
                    s,
                    {
                        "unbiased_ss": {"est": truths * (1.0 + (-1) ** s * 0.1)},
                        "other": {"est": truths * (1.0 + (-1) ** s * 0.3)},
                    },
                )
                for s in range(4)
            ],
            ignore_index=True,
        )
        tab = summarize(rows, truths, 30.0, n_buckets=2)
        assert tab["other_over_uss"].to_numpy() == pytest.approx([3.0] * 4)


class TestQuerySummary:
    # query 0 (truth 10): estimates 8, 12, 10, 14 -> mean 11, bias 0.1,
    # RRMSE sqrt((4 + 4 + 0 + 16) / 4) / 10, SD sqrt(20 / 3), and the
    # truth inside two of the four intervals; query 1 (truth 4) is exact
    EST = ([8.0, 4.0], [12.0, 4.0], [10.0, 4.0], [14.0, 4.0])
    LO = ([7.0, 4.0], [9.0, 4.0], [9.0, 4.0], [13.0, 4.0])
    HI = ([9.0, 4.0], [13.0, 4.0], [11.0, 4.0], [15.0, 4.0])
    TRUTHS = np.asarray([10.0, 4.0])

    def rows(self, with_ci: bool) -> pd.DataFrame:
        reps = []
        for seed, (est, lo, hi) in enumerate(zip(self.EST, self.LO, self.HI)):
            cols = {"est": est, "lo": lo, "hi": hi} if with_ci else {"est": est}
            reps.append(replication_rows(seed, {"m": cols}))
        return pd.concat(reps, ignore_index=True)

    def test_known_errors_without_intervals(self):
        tab = query_summary(self.rows(False), self.TRUTHS)
        assert list(tab.columns) == [
            "method", "query", "truth", "mean_est", "rel_bias", "rrmse",
            "empirical_sd", "n_reps",
        ]
        q0, q1 = tab.iloc[0], tab.iloc[1]
        assert (q0["truth"], q0["mean_est"]) == (10.0, 11.0)
        assert q0["rel_bias"] == pytest.approx(0.1)
        assert q0["rrmse"] == pytest.approx(np.sqrt(6.0) / 10.0)
        assert q0["empirical_sd"] == pytest.approx(np.sqrt(20.0 / 3.0))
        assert q0["n_reps"] == 4
        assert (q1["rel_bias"], q1["rrmse"], q1["empirical_sd"]) == (0.0, 0.0, 0.0)

    def test_coverage_with_intervals(self):
        tab = query_summary(self.rows(True), self.TRUTHS)
        assert tab["coverage"].tolist() == [0.5, 1.0]
        assert tab.columns[-2:].tolist() == ["coverage", "n_reps"]

    def test_one_row_per_method_and_query_sorted(self):
        rows = pd.concat(
            [
                replication_rows(
                    s, {"b": {"est": [1.0, 2.0]}, "a": {"est": [1.0, 2.0]}}
                )
                for s in range(2)
            ],
            ignore_index=True,
        )
        tab = query_summary(rows, np.asarray([1.0, 2.0]))
        assert tab[["method", "query"]].values.tolist() == [
            ["a", 0], ["a", 1], ["b", 0], ["b", 1]
        ]
        assert (tab["n_reps"] == 2).all()

    def test_zero_truth_raises(self):
        rows = replication_rows(0, {"m": {"est": [1.0]}})
        with pytest.raises(ValueError):
            query_summary(rows, np.asarray([0.0]))


class TestJob:
    def test_t1_job_writes_both_csvs(self, tmp_path):
        # jobs/run.py starts its own Spark session, so it runs in a child
        root = Path(__file__).resolve().parent.parent
        path = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, str(root / "jobs" / "run.py"),
             "--table", "t1", "--scale", "test"],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        tab = pd.read_csv(tmp_path / "results" / "t1_inclusion_test.csv")
        items = pd.read_csv(tmp_path / "results" / "t1_inclusion_items_test.csv")
        assert list(tab.columns) == [
            "bucket", "mean_count", "pi_pps", "pi_empirical", "n_items", "abs_gap"
        ]
        assert list(items.columns) == [
            "item", "count", "pi_pps", "pi_empirical", "n_reps"
        ]
        assert (items["n_reps"] == TEST["t1"]["n_reps"]).all()


class TestScales:
    def test_params_copies(self):
        p = params("t1", "bench")
        p["m"] = -1
        assert BENCH["t1"]["m"] != -1

    def test_all_tables_present_in_both_scales(self):
        assert set(BENCH) == set(TEST) == {f"t{i}" for i in range(1, 10)}

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            params("t1", "huge")

    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_run_takes_exactly_the_book_keys(self, table):
        run = importlib.import_module(f"repro.experiments.{TABLES[table][0]}").run
        sig = dict(inspect.signature(run).parameters)
        assert list(sig)[0] == "spark"
        del sig["spark"]
        assert set(sig) == set(BENCH[table]) == set(TEST[table])
        for p in sig.values():
            assert p.kind is p.KEYWORD_ONLY and p.default is p.empty, p


class TestT5Queries:
    @pytest.fixture(scope="class")
    def agg(self):
        pdf = impressions_pdf(8000, seed=0)
        items = tuple_item_column(pdf).to_numpy()
        vc = pd.Series(items).value_counts()
        return vc.index.to_numpy(), vc.to_numpy().astype(float), float(len(pdf))

    def test_queries_above_threshold(self, agg):
        items, counts, total = agg
        queries = build_queries(items, counts, total, min_frac=0.01)
        truths = _eval_queries(items, counts, queries)
        assert (truths / total >= 0.01 - 1e-12).all()
        assert len(queries) > 0

    def test_eval_matches_pandas_groupby(self, agg):
        items, counts, total = agg
        from repro.streams.criteo import marginal_value

        q = build_queries(items, counts, total, min_frac=0.05)[:5]
        got = _eval_queries(items, counts, q)
        for query, val in zip(q, got):
            f, v = query[0], query[1]
            mask = marginal_value(items, f) == v
            if len(query) == 4:
                mask &= marginal_value(items, query[2]) == query[3]
            assert val == counts[mask].sum()

    def test_two_way_queries_present(self, agg):
        items, counts, total = agg
        queries = build_queries(items, counts, total, min_frac=0.002)
        assert any(len(q) == 4 for q in queries)
