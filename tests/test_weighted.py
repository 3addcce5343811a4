"""Weighted Unbiased Space Saving tests (sec 5.3 generalization)."""
import copy
import math
import warnings

import numpy as np
import pytest

from repro.core.weighted import WeightedUnbiasedSpaceSaving
from repro.sampling.pps import thresholded_pps_probs


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


def _full_sketch(m, seed=0):
    """A sketch past many reductions: its floor holds several bins."""
    sk = WeightedUnbiasedSpaceSaving(m, seed=seed)
    rng = np.random.default_rng(seed)
    for i in range(20 * m):
        sk.add(i, float(rng.uniform(0.5, 2.0)))
    return sk


def _drop_frequencies(base, item, weight, reps):
    """How often each bin of ``base`` plus ``item`` is dropped by one add."""
    values = base.estimates()
    values[item] = values.get(item, 0.0) + weight
    keys = list(values)
    drops = dict.fromkeys(keys, 0)
    for r in range(reps):
        sk = copy.deepcopy(base)
        sk._rng.seed(r)
        sk.add(item, weight)
        after = sk.estimates()
        (dropped,) = [x for x in keys if x not in after]
        drops[dropped] += 1
        assert len(after) == base.m
        assert np.isclose(sum(after.values()), sum(values.values()), rtol=1e-12)
    probs = thresholded_pps_probs(np.array([values[x] for x in keys]), base.m)
    return np.array([drops[x] / reps for x in keys]), 1.0 - probs


class TestReduction:
    """One m+1 -> m reduction drops bin i with probability 1 - pi_i."""

    REPS = 4000

    def _check(self, base, item, weight):
        freq, want = _drop_frequencies(base, item, weight, self.REPS)
        tol = 4.5 * np.sqrt(want * (1 - want) / self.REPS) + 1e-3
        assert np.all(np.abs(freq - want) <= tol), (freq, want)
        return want

    def test_light_item_on_populated_floor(self):
        base = _full_sketch(6)
        assert len(base._floor) >= 2
        self._check(base, "new", 0.3 * base._tau)

    def test_heavy_item_is_pinned(self):
        base = _full_sketch(6)
        want = self._check(base, "new", 10.0 * max(base.estimates().values()))
        assert want[-1] == 0.0  # the new item is never dropped

    def test_stale_heap_entry(self):
        base = _full_sketch(6, seed=3)
        x, y, z = base._floor[0], base._floor[1], base._floor[2]
        tau = base._tau
        base.add(y, 0.05 * tau)
        base.add(z, 0.05 * tau)
        base.add(x, 0.01 * tau)  # leaves the floor below y and z ...
        base.add(x, 10.0 * tau)  # ... and its heap entry goes stale
        assert any(key < base._above[b] for key, _, b in base._heap)
        want = self._check(base, "new", 0.5 * tau)
        keys = list(base.estimates()) + ["new"]
        assert want[keys.index(x)] == 0.0 and want[keys.index(y)] > 0.0

    def test_single_bin(self):
        base = WeightedUnbiasedSpaceSaving(1, seed=0)
        base.add("a", 2.0)
        want = self._check(base, "b", 1.0)
        assert np.allclose(want, [1 / 3, 2 / 3])

    @pytest.mark.parametrize("first", [("a",), ("a", "b")])
    def test_negligible_unit_dropped(self, first):
        # 1e20 * 1 >= 1e20 + (the rest) in floating point: the rest is
        # the single unpinned unit (on the floor after the second add)
        sk = WeightedUnbiasedSpaceSaving(1, seed=0)
        for x in first:
            sk.add(x, 1.0)
        sk.add("big", 1e20)
        assert sk.estimates() == {"big": 1e20}
        assert np.isfinite(sk.result().threshold)


class TestState:
    def test_total_conserved_on_miss_heavy_stream(self):
        rng = np.random.default_rng(5)
        items = rng.integers(0, 10**6, 20_000).tolist()
        weights = (1.0 + rng.pareto(1.5, 20_000)).tolist()
        sk = WeightedUnbiasedSpaceSaving(50, seed=5)
        sk.update_many(items, weights)
        est = sk.estimates()
        assert len(est) == 50
        assert math.isclose(sum(est.values()), sk.t, rel_tol=1e-9)
        assert math.isclose(sk.t, math.fsum(weights), rel_tol=1e-9)

    def test_estimates_and_result_agree(self):
        sk = _full_sketch(8, seed=2)
        sk.add(sk._floor[0], 1.0)
        est = sk.estimates()
        res = sk.result()
        assert res.estimates_dict() == est
        assert res.threshold == sk._tau > 0
        assert min(est.values()) >= 0

    def test_tuple_keys_result(self):
        sk = WeightedUnbiasedSpaceSaving(4, seed=0)
        sk.update_many([("a", 1), ("b", 2), ("a", 1)], [1.0, 2.0, 3.0])
        res = sk.result()
        assert res.items.shape == (2,)
        assert res.estimates_dict() == {("a", 1): 4.0, ("b", 2): 2.0}
