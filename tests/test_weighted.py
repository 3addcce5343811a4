"""Weighted Unbiased Space Saving tests (sec 5.3 generalization)."""
import math
import warnings

import numpy as np
import pytest

from repro.core import weighted
from repro.core.weighted import SPILL_FACTOR, WeightedUnbiasedSpaceSaving
from repro.sampling.pps import thresholded_pps_probs


def _fill(sk, items, weights=None):
    """One ``add`` per item, with unit weights unless ``weights`` is given."""
    if weights is None:
        weights = [1.0] * len(items)
    for x, w in zip(items, weights, strict=True):
        sk.add(x, w)


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedUnbiasedSpaceSaving(0)

    def test_negative_weight_rejected(self):
        sk = WeightedUnbiasedSpaceSaving(3, seed=0)
        with pytest.raises(ValueError):
            sk.add("a", -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, None])
    def test_bad_weight_rejected_before_any_change(self, bad):
        sk = WeightedUnbiasedSpaceSaving(2, seed=0)
        _fill(sk, "abc")
        res = sk.result()
        before = (res.t, res.estimates_dict())
        for item in ("a", "d"):  # held and absent
            with pytest.raises(ValueError, match="finite and non-negative"):
                sk.add(item, bad)
        res = sk.result()
        assert (res.t, res.estimates_dict()) == before

    def test_total_mass_overflow_rejected_before_any_change(self):
        # each weight is finite, their sum is not
        sk = WeightedUnbiasedSpaceSaving(2, seed=0)
        sk.add("a", 1e308)
        before = (sk._t, dict(sk._values))
        for item in ("a", "b"):  # held and absent
            with pytest.raises(ValueError, match="overflows the total mass 1e\\+308"):
                sk.add(item, 1e308)
        assert (sk._t, dict(sk._values)) == before
        assert sk.result().estimates_dict() == {"a": 1e308}

    def test_exact_when_under_capacity(self):
        sk = WeightedUnbiasedSpaceSaving(5, seed=0)
        sk.add("a", 2.5)
        sk.add("b", 1.0)
        sk.add("a", 0.5)
        assert sk.result().estimates_dict() == {"a": 3.0, "b": 1.0}
        assert sk.result().t == 4.0

    def test_size_bounded(self):
        sk = WeightedUnbiasedSpaceSaving(4, seed=1)
        for i in range(100):
            sk.add(i, 1.0 + (i % 7))
        assert len(sk.result().estimates_dict()) <= 4

    def test_unit_weight_by_default(self):
        sk = WeightedUnbiasedSpaceSaving(10, seed=0)
        for x in "aabbb":
            sk.add(x)
        assert sk.result().estimates_dict() == {"a": 2.0, "b": 3.0}

    def test_result_container(self):
        sk = WeightedUnbiasedSpaceSaving(10, seed=0)
        _fill(sk, "aabbb")
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
        est = sk.result().estimates_dict()
        assert not any(x.startswith("zero") for x in est)
        assert np.isfinite(res.estimates).all() and np.isfinite(res.threshold)
        assert np.isclose(sum(est.values()), res.t)


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
                acc[i] += sk.result().estimates_dict().get(i, 0.0)
        means = acc / reps
        for i, w in weights.items():
            assert abs(means[i] - w) < 0.15 * w + 0.3, (i, means[i], w)

    def test_monte_carlo_unbiased_across_spills(self, monkeypatch):
        # m = 2 and 40 items: three passes over the items, a query after
        # the second. Pass 1 spills at rows 17 and 32 and leaves 10 items;
        # pass 2 brings at least 30 new ones, so a third spill comes before
        # the query and more follow after it
        real, spills = weighted.splitting_pps_sample, []

        def counted(*args):
            spills.append(1)
            return real(*args)

        monkeypatch.setattr(weighted, "splitting_pps_sample", counted)
        w = np.where(np.arange(40) == 7, 30.0, 1.0 + np.arange(40) % 5)
        reps = 3000
        mid = np.zeros((reps, 40))
        end = np.zeros((reps, 40))
        for r in range(reps):
            sk = WeightedUnbiasedSpaceSaving(2, seed=r)
            _fill(sk, range(40), w.tolist())
            _fill(sk, range(40), w.tolist())
            if r == 0:
                assert len(spills) >= 3
            for x, v in sk.result().estimates_dict().items():
                mid[r, x] = v
            _fill(sk, range(40), w.tolist())
            for x, v in sk.result().estimates_dict().items():
                end[r, x] = v
        assert len(spills) >= 5 * reps
        for est, truth in ((mid, 2 * w), (end, 3 * w)):
            se = est.std(axis=0) / np.sqrt(reps)
            gap = np.abs(est.mean(axis=0) - truth)
            assert np.all(gap <= 4.5 * se + 1e-9 * truth), (gap, se)

    def test_total_unbiased(self):
        reps = 2000
        tot = 0.0
        for r in range(reps):
            sk = WeightedUnbiasedSpaceSaving(2, seed=r)
            for i in range(10):
                sk.add(i, float(i + 1))
            tot += sum(sk.result().estimates_dict().values())
        assert abs(tot / reps - 55.0) < 0.06 * 55.0


def _spill(values, m, seed):
    """A sketch fed one row per item of ``values``; the last add spills
    when ``values`` holds ``SPILL_FACTOR * m + 1`` items."""
    sk = WeightedUnbiasedSpaceSaving(m, seed=seed)
    for x, w in values.items():
        sk.add(x, w)
    return sk


def _full_dict(m, seed=0, heavy=()):
    """``SPILL_FACTOR * m + 1`` light values, the last ones replaced by ``heavy``."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, SPILL_FACTOR * m + 1)
    w[len(w) - len(heavy):] = heavy
    return dict(enumerate(w.tolist()))


class TestReduction:
    """One spill reduces the dict to m items with a fixed-size PPS sample."""

    REPS = 4000

    def _check_inclusion(self, values, m, query=False):
        keys = list(values)
        hits = np.zeros(len(keys))
        for r in range(self.REPS):
            sk = _spill(values, m, r)
            kept = sk.result().estimates_dict() if query else sk._values
            assert len(kept) == m
            hits += [x in kept for x in keys]
        want = thresholded_pps_probs(np.array(list(values.values())), m)
        tol = 4.5 * np.sqrt(want * (1 - want) / self.REPS) + 1e-3
        assert np.all(np.abs(hits / self.REPS - want) <= tol), (hits / self.REPS, want)
        return want

    def test_inclusion_frequencies_match_pps(self):
        want = self._check_inclusion(_full_dict(4, heavy=(100.0, 50.0)), 4)
        assert (want == 1).sum() == 2 and want.min() > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_kept_unpinned_values_equal_one_over_alpha(self, seed):
        values = _full_dict(4, seed, heavy=(100.0,) * (seed % 3))
        sk = _spill(values, 4, seed)
        w = np.array(list(values.values()))
        pi = thresholded_pps_probs(w, 4)
        inv_alpha = (w / pi)[pi < 1]
        assert np.allclose(inv_alpha, inv_alpha[0], rtol=1e-12)
        for x, v in sk._values.items():
            if pi[x] == 1:
                assert v == values[x]
            else:
                assert v == pytest.approx(inv_alpha[0], rel=1e-12)
        assert sk.result().threshold == pytest.approx(inv_alpha[0], rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_spill_conserves_total(self, seed):
        values = _full_dict(8, seed, heavy=(1e3, 20.0, 5.0)[: seed % 4])
        sk = _spill(values, 8, seed)
        assert len(sk._values) == 8
        assert math.isclose(
            math.fsum(sk._values.values()), math.fsum(values.values()), rel_tol=1e-12
        )

    def test_heavy_item_is_pinned(self):
        values = _full_dict(6, heavy=(1e3,))
        want = self._check_inclusion(values, 6)
        assert want[-1] == 1.0  # the heavy item is always kept ...
        for r in range(20):
            est = _spill(values, 6, r).result().estimates_dict()
            assert est[len(values) - 1] == 1e3  # ... with its exact value

    def test_single_bin(self):
        # m = 1: the query reduces {a: 2, b: 1} to one item worth 3
        values = {"a": 2.0, "b": 1.0}
        want = self._check_inclusion(values, 1, query=True)
        assert np.allclose(want, [2 / 3, 1 / 3])
        for r in range(10):
            assert list(_spill(values, 1, r).result().estimates_dict().values()) == [3.0]

    @pytest.mark.parametrize("first, before", [(("a",), 0.0), (("a", "b"), 2.0)])
    def test_negligible_unit_dropped(self, first, before):
        # 1e20 * 1 >= 1e20 + (the rest) in floating point: the one slot is
        # pinned, the rest has pi == 0 and the threshold does not move
        sk = WeightedUnbiasedSpaceSaving(1, seed=0)
        for x in first:
            sk.add(x, 1.0)
        assert sk.result().threshold == before  # two items reduce to one
        sk.add("big", 1e20)
        assert sk.result().estimates_dict() == {"big": 1e20}
        assert sk.result().threshold == before


class TestState:
    def test_total_conserved_on_miss_heavy_stream(self):
        rng = np.random.default_rng(5)
        items = rng.integers(0, 10**6, 20_000).tolist()
        weights = (1.0 + rng.pareto(1.5, 20_000)).tolist()
        sk = WeightedUnbiasedSpaceSaving(50, seed=5)
        _fill(sk, items, weights)
        res = sk.result()
        est = res.estimates_dict()
        assert len(est) == 50
        assert math.isclose(sum(est.values()), res.t, rel_tol=1e-9)
        assert math.isclose(res.t, math.fsum(weights), rel_tol=1e-9)

    @pytest.mark.parametrize("m", [1, 5])
    def test_estimates_and_result_agree(self, m):
        # both reduce in place first, so either may be called first
        rng = np.random.default_rng(2)
        items = rng.integers(0, 100, 30 * m).tolist()
        first, second = (WeightedUnbiasedSpaceSaving(m, seed=2) for _ in range(2))
        _fill(first, items)
        _fill(second, items)
        assert len(first._values) > m
        res = first.result()
        est = second.result().estimates_dict()
        assert res.estimates_dict() == est == first.result().estimates_dict()
        assert res.threshold == second.result().threshold > 0
        assert len(est) == m and min(est.values()) > 0

    def test_dict_bounded_by_cap(self):
        m = 5
        sk = WeightedUnbiasedSpaceSaving(m, seed=3)
        rng = np.random.default_rng(3)
        for x, w in zip(range(500), rng.uniform(0.5, 2.0, 500).tolist()):
            sk.add(x, w)
            assert len(sk._values) <= SPILL_FACTOR * m
        assert len(sk.result()) <= m and len(sk._values) <= m

    def test_spill_factor_matches_the_spark_operator(self, spark, monkeypatch):
        # each partition ships m items and spills past SPILL_FACTOR * m, as
        # this sketch does
        from repro.core import spark_sketch

        class Handed(Exception):
            pass

        class Runner:
            def sketch(self, rows, strings, bins, cap, seed):
                raise Handed(bins, cap)

        monkeypatch.setattr(spark_sketch, "_runner", lambda sc: Runner())
        df = spark.createDataFrame([(1,), (2,)], "k long")
        with pytest.raises(Handed) as handed:
            spark_sketch.sketch_dataframe(df, "k", 7)
        assert handed.value.args == (7, SPILL_FACTOR * 7)

    def test_tuple_keys_result(self):
        sk = WeightedUnbiasedSpaceSaving(4, seed=0)
        _fill(sk, [("a", 1), ("b", 2), ("a", 1)], [1.0, 2.0, 3.0])
        res = sk.result()
        assert res.items.shape == (2,)
        assert res.estimates_dict() == {("a", 1): 4.0, ("b", 2): 2.0}
