"""High-level SpaceSaving API tests: queries, CIs, views."""
import math
import random

import numpy as np
import pytest

from repro.core.space_saving import (
    DeterministicSpaceSaving,
    SpaceSaving,
    UnbiasedSpaceSaving,
)
from repro.core.variance import _z_value, subset_sum_variance


def _skewed_stream(seed=0, n=3000, n_items=100):
    rng = random.Random(seed)
    return [min(int(rng.expovariate(0.1)), n_items - 1) for _ in range(n)]


class TestConstruction:
    def test_from_stream(self):
        sk = UnbiasedSpaceSaving.from_stream(list("aabbc"), 3, seed=0)
        assert sk.t == 5 and sk.total() == 5

    def test_len_and_contains(self):
        sk = UnbiasedSpaceSaving.from_stream(list("aabbc"), 10, seed=0)
        assert len(sk) == 3 and "a" in sk and "z" not in sk

    def test_m_property(self):
        assert UnbiasedSpaceSaving(7).m == 7

    def test_variants_flag(self):
        assert UnbiasedSpaceSaving.unbiased is True
        assert DeterministicSpaceSaving.unbiased is False


class TestQueries:
    def test_frequent_items_sorted_and_topk(self):
        sk = UnbiasedSpaceSaving.from_stream(_skewed_stream(), 50, seed=1)
        fi = sk.frequent_items()
        counts = [c for _, c in fi]
        assert counts == sorted(counts, reverse=True)
        assert len(sk.frequent_items(5)) == 5

    def test_frequent_items_finds_true_heavy_hitter(self):
        stream = ["hot"] * 500 + [f"x{i}" for i in range(300)]
        rng = random.Random(0)
        rng.shuffle(stream)
        sk = UnbiasedSpaceSaving.from_stream(stream, 20, seed=2)
        assert sk.frequent_items(1)[0][0] == "hot"

    def test_subset_sum_with_set_and_predicate(self):
        sk = UnbiasedSpaceSaving.from_stream(_skewed_stream(), 100, seed=3)
        s_set, c_set = sk.subset_sum({0, 1, 2, 3, 4})
        s_pred, c_pred = sk.subset_sum(lambda x: x < 5)
        assert s_set == s_pred and c_set == c_pred

    def test_subset_sum_everything_is_total(self):
        sk = UnbiasedSpaceSaving.from_stream(_skewed_stream(), 40, seed=4)
        s, c = sk.subset_sum(lambda x: True)
        assert s == sk.total() and c == len(sk)

    def test_subset_sum_nothing(self):
        sk = UnbiasedSpaceSaving.from_stream(_skewed_stream(), 40, seed=5)
        s, c = sk.subset_sum(set())
        assert s == 0.0 and c == 0

    def test_to_pandas_and_arrays(self):
        sk = UnbiasedSpaceSaving.from_stream(list("aabbbb"), 5, seed=0)
        pdf = sk.to_pandas()
        assert set(pdf.columns) == {"item", "estimate"}
        res = sk.result()
        assert res.estimates.sum() == 6

    def test_arrays_of_tuple_keys_are_1d(self):
        sk = UnbiasedSpaceSaving.from_stream([(1, "a"), (2, "b"), (1, "a")], 5, seed=0)
        res = sk.result()
        assert res.items.shape == res.estimates.shape == (2,)
        assert dict(zip(res.items.tolist(), res.estimates.tolist())) == {(1, "a"): 2, (2, "b"): 1}
        assert sk.to_pandas()["item"].tolist() == [(1, "a"), (2, "b")]

    def test_mixed_int_and_str_keys_stay_apart(self):
        sk = UnbiasedSpaceSaving.from_stream([7, "7", 7], 5, seed=0)
        assert sk.subset_sum({7}) == (2.0, 1)
        assert sk.result().estimate("7") == 1.0

    def test_result_follows_updates(self):
        sk = UnbiasedSpaceSaving.from_stream(list("aab"), 2, seed=0)
        first = sk.result()
        assert sk.result() is first
        sk.update("a")
        res = sk.result()
        assert res.t == 4 and res.estimate("a") == 3.0
        assert sk.subset_sum({"a"}) == (3.0, 1)
        assert first.t == 3 and first.estimate("a") == 2.0

    def test_result_matches_kernel(self):
        sk = DeterministicSpaceSaving.from_stream(_skewed_stream(), 20, seed=10)
        res = sk.result()
        assert res.estimates_dict() == sk.estimates()
        assert res.threshold == sk.n_min > 0 and res.t == sk.t


class TestVarianceAndCI:
    def test_variance_formula(self):
        assert subset_sum_variance(10, 3) == 300.0
        assert subset_sum_variance(10, 0) == 100.0  # C_S floored at 1
        assert subset_sum_variance(0, 5) == 0.0

    def test_ci_contains_estimate(self):
        sk = UnbiasedSpaceSaving.from_stream(_skewed_stream(), 30, seed=6)
        est, var, lo, hi = sk.subset_sum_ci(lambda x: x < 10)
        assert lo <= est <= hi
        assert var == subset_sum_variance(sk.n_min, sk.subset_sum(lambda x: x < 10)[1])

    def test_ci_width_scales_with_level(self):
        sk = UnbiasedSpaceSaving.from_stream(_skewed_stream(), 30, seed=7)
        _, _, lo95, hi95 = sk.subset_sum_ci(lambda x: x < 10, level=0.95)
        _, _, lo50, hi50 = sk.subset_sum_ci(lambda x: x < 10, level=0.50)
        assert hi95 - lo95 > hi50 - lo50

    @pytest.mark.parametrize(
        "level,z", [(0.95, 1.959964), (0.90, 1.644854), (0.99, 2.575829)]
    )
    def test_z_values(self, level, z):
        assert math.isclose(_z_value(level), z, abs_tol=1e-4)

    def test_z_value_rejects_bad_level(self):
        with pytest.raises(ValueError):
            _z_value(1.5)


class TestMisraGriesView:
    def test_view_soft_thresholds(self):
        sk = DeterministicSpaceSaving.from_stream(_skewed_stream(), 20, seed=8)
        nm = sk.n_min
        view = sk.misra_gries_view()
        for x, v in view.items():
            assert v == sk.estimate(x) - nm
            assert v > 0

    def test_view_drops_min_bins(self):
        sk = DeterministicSpaceSaving.from_stream(_skewed_stream(), 20, seed=9)
        assert len(sk.misra_gries_view()) < len(sk)
