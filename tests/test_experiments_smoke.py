"""Micro-scale runs of every table harness: structure + key claims.

These are the paper's qualitative findings at toy scale, each run with
``scales.TEST``'s parameters (the ones ``jobs/run.py --scale test`` uses);
the full-scale numbers live in benchmarks/ and EXPERIMENTS.md.
"""
import pytest

from repro.experiments import (
    t1_inclusion,
    t2_skew,
    t3_bottomk,
    t4_priority,
    t5_criteo,
    t6_pathological,
    t7_epochs_ci,
    t8_epochs_det,
    t9_distributed,
)
from repro.experiments.scales import params


class TestT1Inclusion:
    @pytest.fixture(scope="class")
    def per_item(self, spark):
        _, per_item = t1_inclusion.run(spark, **params("t1", "test"))
        return per_item

    def test_structure(self, per_item):
        assert {"item", "count", "pi_pps", "pi_empirical"} <= set(per_item.columns)
        assert per_item["pi_empirical"].between(0, 1).all()

    def test_matches_pps(self, per_item):
        tab = t1_inclusion.summarize(per_item, n_buckets=5)
        assert (tab["abs_gap"] < 0.12).all()

    def test_heavy_items_certain(self, per_item):
        top = per_item.nlargest(5, "count")
        assert (top["pi_empirical"] > 0.95).all()


class TestT2Skew:
    def test_more_skew_less_error(self, spark):
        tab = t2_skew.run(spark, **params("t2", "test"))
        mean_by_shape = tab.groupby("shape")["rrmse_mean"].mean()
        assert mean_by_shape[0.3] < mean_by_shape[2.0]


class TestT3BottomK:
    def test_uniform_sampling_much_worse(self, spark):
        tab = t3_bottomk.run(spark, **params("t3", "test"))
        ratios = tab["bottomk_over_uss"].dropna()
        assert (ratios > 1.0).all()
        assert ratios.max() > 3.0


class TestT4Priority:
    def test_uss_competitive_and_total_exact(self, spark):
        tab, totals = t4_priority.run(spark, **params("t4", "test"))
        by = tab.groupby("method")["rrmse_mean"].mean()
        assert by["unbiased_ss"] < 2.0 * by["priority"]
        t = totals.set_index("method")["total_rrmse"]
        assert t["unbiased_ss"] == 0.0
        assert t["priority"] > 0.0


class TestT5Criteo:
    def test_structure_and_ordering(self, spark):
        tab = t5_criteo.run(spark, **params("t5", "test"))
        assert {"method", "rel_mse_mean", "bucket"} <= set(tab.columns)
        for method, grp in tab.groupby("method"):
            g = grp.sort_values("bucket")
            # larger marginals are estimated (weakly) better
            assert g["rel_mse_mean"].iloc[-1] < g["rel_mse_mean"].iloc[0]


class TestT6Pathological:
    @pytest.fixture(scope="class")
    def result(self, spark):
        return t6_pathological.run(spark, **params("t6", "test"))

    def test_det_forgets_first_half(self, result):
        inc, _ = result
        det = inc[inc["method"] == "deterministic_ss"]
        uss = inc[inc["method"] == "unbiased_ss"]
        assert det["pi_empirical"].sum() < 0.3 * uss["pi_empirical"].sum()

    def test_det_biased_uss_not(self, result):
        _, err = result
        err = err.set_index("method")
        assert err.loc["deterministic_ss", "rel_bias_mean"] < -0.5
        assert abs(err.loc["unbiased_ss", "rel_bias_mean"]) < 0.15
        assert (
            err.loc["deterministic_ss", "rrmse_mean"]
            > err.loc["unbiased_ss", "rrmse_mean"]
        )


class TestT7EpochsCI:
    @pytest.fixture(scope="class")
    def tab(self, spark):
        return t7_epochs_ci.run(spark, **params("t7", "test"))

    def test_structure(self, tab):
        assert len(tab) == 5
        assert {"coverage", "empirical_sd", "estimated_sd", "pps_sd"} <= set(
            tab.columns
        )

    def test_coverage_good_where_clt_applies(self, tab):
        # epochs with >= ~10 sampled items should be near/above nominal
        ok = tab[tab["mean_items_in_sample"] >= 10]
        assert (ok["coverage"] >= 0.85).all()

    def test_variance_estimate_not_underestimating(self, tab):
        big = tab[tab["mean_items_in_sample"] >= 5]
        assert (big["estimated_sd"] >= 0.6 * big["empirical_sd"]).all()

    def test_unbiased_per_epoch(self, tab):
        big = tab[tab["mean_items_in_sample"] >= 5]
        assert (big["rel_bias"].abs() < 0.25).all()


class TestT8EpochsDet:
    def test_det_much_worse_on_late_epochs(self, spark):
        tab = t8_epochs_det.run(spark, **params("t8", "test"))
        late = tab.iloc[-2:]
        assert (late["det_over_uss"] > 1.5).all()


class TestT9Distributed:
    def test_unbiased_and_covered(self, spark):
        tab = t9_distributed.run(spark, **params("t9", "test"))
        # average relative bias across brands ~ 0 (unbiased merge)
        assert abs(tab["rel_bias"].mean()) < 0.1
        assert tab["coverage"].mean() >= 0.8
