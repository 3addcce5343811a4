"""CountSketchResult container tests."""
import numpy as np
import pytest

from repro.core.result import CountSketchResult, item_array


def _res():
    return CountSketchResult(
        items=np.asarray([10, 20, 30]),
        estimates=np.asarray([5.0, 15.0, 2.0]),
        threshold=3.0,
        t=22.0,
    )


class TestCountSketchResult:
    def test_len_and_dict(self):
        r = _res()
        assert len(r) == 3
        assert r.estimates_dict() == {10: 5.0, 20: 15.0, 30: 2.0}

    def test_estimate_lookup(self):
        r = _res()
        assert r.estimate(20) == 15.0
        assert r.estimate(99) == 0.0

    @pytest.mark.parametrize("present,absent", [(7, 8), ("x", "y"), ((7, "x"), (7, "y"))])
    def test_estimate_by_key_type(self, present, absent):
        r = CountSketchResult(
            item_array([present, "other"]), np.asarray([2.5, 1.0]), 1.0, 3.5
        )
        assert r.estimate(present) == 2.5
        assert r.estimate(absent) == 0.0

    def test_result_is_its_own_result(self):
        r = _res()
        assert r.result() is r

    def test_frequent_items(self):
        r = _res()
        assert r.frequent_items() == [(20, 15.0), (10, 5.0), (30, 2.0)]
        assert r.frequent_items(1) == [(20, 15.0)]

    def test_to_pandas(self):
        pdf = _res().to_pandas()
        assert list(pdf.columns) == ["item", "estimate"]
        assert len(pdf) == 3

    def test_subset_sum_set_vs_predicate(self):
        r = _res()
        s1, c1 = r.subset_sum({10, 30})
        s2, c2 = r.subset_sum(lambda x: x in (10, 30))
        assert s1 == s2 == 7.0 and c1 == c2 == 2

    def test_subset_sum_ci(self):
        r = _res()
        est, var, lo, hi = r.subset_sum_ci({10, 30})
        assert est == 7.0
        assert var == 9.0 * 2  # threshold^2 * C_S
        assert lo <= est <= hi

    def test_fractional_threshold_not_rounded_up(self):
        # a decayed sketch's threshold is a real number below 1
        r = CountSketchResult(
            np.asarray([1, 2, 3]), np.asarray([0.3, 0.3, 2.0]), 0.3, 2.6
        )
        est, var, lo, hi = r.subset_sum_ci({1, 2})
        assert np.isclose(est, 0.6)
        assert np.isclose(var, 0.09 * 2)
        assert np.isclose(hi - lo, 2 * 1.959963984540054 * np.sqrt(0.18))

    def test_empty_subset_ci_uses_floor(self):
        r = _res()
        est, var, lo, hi = r.subset_sum_ci(set())
        assert est == 0.0 and var == 9.0  # C_S floored at 1

    def test_zero_threshold_zero_variance(self):
        r = CountSketchResult(
            np.asarray([1]), np.asarray([4.0]), 0.0, 4.0
        )
        est, var, lo, hi = r.subset_sum_ci({1})
        assert var == 0.0 and lo == hi == est == 4.0

    def test_subset_sum_adds_in_item_order(self):
        # 1e16 + 1 + 1 rounds to 1e16 in this order, to 1e16 + 2 in reverse
        r = CountSketchResult(
            np.asarray([1, 2, 3]), np.asarray([1e16, 1.0, 1.0]), 1.0, 1e16 + 2
        )
        for member in ({3, 2, 1}, [3, 2, 1], lambda x: True):
            assert r.subset_sum(member) == (1e16, 3)

    def test_subset_sum_stats_is_one_scan(self):
        r = _res()
        seen = []

        def member(x):
            seen.append(x)
            return x in (10, 30)

        stats = r.subset_sum_stats(member, level=0.9)
        assert seen == [10, 20, 30]
        assert stats == (*r.subset_sum_ci({10, 30}, level=0.9), 2)
