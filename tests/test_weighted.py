"""Weighted Unbiased Space Saving tests (sec 5.3 generalization)."""
import warnings

import numpy as np
import pytest

from repro.core.weighted import WeightedUnbiasedSpaceSaving


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedUnbiasedSpaceSaving(0)

    def test_negative_weight_rejected(self):
        sk = WeightedUnbiasedSpaceSaving(3, seed=0)
        with pytest.raises(ValueError):
            sk.add("a", -1.0)

    def test_exact_when_under_capacity(self):
        sk = WeightedUnbiasedSpaceSaving(5, seed=0)
        sk.add("a", 2.5)
        sk.add("b", 1.0)
        sk.add("a", 0.5)
        assert sk.estimates() == {"a": 3.0, "b": 1.0}
        assert sk.t == 4.0

    def test_size_bounded(self):
        sk = WeightedUnbiasedSpaceSaving(4, seed=1)
        for i in range(100):
            sk.add(i, 1.0 + (i % 7))
        assert len(sk.estimates()) <= 4

    def test_update_many_unit_weights(self):
        sk = WeightedUnbiasedSpaceSaving(10, seed=0)
        sk.update_many(list("aabbb"))
        assert sk.estimates() == {"a": 2.0, "b": 3.0}

    def test_result_container(self):
        sk = WeightedUnbiasedSpaceSaving(10, seed=0)
        sk.update_many(list("aabbb"))
        res = sk.result()
        assert res.t == 5.0
        assert res.estimate("b") == 3.0

    @pytest.mark.parametrize("zeros", [1, 2])
    def test_zero_weight_on_full_sketch(self, zeros):
        # one zero-weight bin is the single drop; two leave fewer than m
        # positive bins, and every positive one is kept
        sk = WeightedUnbiasedSpaceSaving(3, seed=0)
        for x, w in [("a", 2.0), ("b", 1.0), ("c", 4.0)][: 3 - zeros + 1]:
            sk.add(x, w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in range(zeros):
                sk.add(f"zero{z}", 0.0)
            res = sk.result()
        est = sk.estimates()
        assert not any(x.startswith("zero") for x in est)
        assert np.isfinite(res.estimates).all() and np.isfinite(res.threshold)
        assert np.isclose(sum(est.values()), sk.t)


class TestUnbiasedness:
    def test_monte_carlo_unbiased_weighted(self):
        weights = {0: 12.0, 1: 7.0, 2: 1.5, 3: 1.5, 4: 1.5, 5: 1.5}
        rows = [(i, w / 3) for i, w in weights.items() for _ in range(3)]
        reps = 4000
        acc = np.zeros(len(weights))
        for r in range(reps):
            rng = np.random.default_rng(r)
            order = rng.permutation(len(rows))
            sk = WeightedUnbiasedSpaceSaving(3, seed=10_000 + r)
            for j in order:
                sk.add(*rows[j])
            for i in weights:
                acc[i] += sk.estimates().get(i, 0.0)
        means = acc / reps
        for i, w in weights.items():
            assert abs(means[i] - w) < 0.15 * w + 0.3, (i, means[i], w)

    def test_total_unbiased(self):
        reps = 2000
        tot = 0.0
        for r in range(reps):
            sk = WeightedUnbiasedSpaceSaving(2, seed=r)
            for i in range(10):
                sk.add(i, float(i + 1))
            tot += sum(sk.estimates().values())
        assert abs(tot / reps - 55.0) < 0.06 * 55.0
