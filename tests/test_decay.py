"""Forward-decay time-weighted sketch tests (sec 5.3)."""
import math

import numpy as np
import pytest

from repro.core.decay import ForwardDecaySpaceSaving


class TestForwardDecay:
    def test_validation(self):
        with pytest.raises(ValueError):
            ForwardDecaySpaceSaving(5, rate=-1.0)

    def test_timestamps_must_be_monotone(self):
        sk = ForwardDecaySpaceSaving(5, rate=0.1, seed=0)
        sk.add("a", 1.0)
        with pytest.raises(ValueError):
            sk.add("b", 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, None])
    def test_bad_weight_rejected(self, bad):
        sk = ForwardDecaySpaceSaving(5, rate=0.1, seed=0)
        sk.add("a", 1.0)
        for time in (2.0, 5_000.0):  # the second would move the landmark
            with pytest.raises(ValueError, match="finite and non-negative"):
                sk.add("b", time, bad)
        assert sk.landmark == 0.0
        assert sk.result().estimates_dict() == pytest.approx({"a": 1.0})
        sk.add("b", 1.5)  # the rejected row did not move the clock to 2.0

    def test_zero_rate_is_plain_counting(self):
        sk = ForwardDecaySpaceSaving(10, rate=0.0, seed=0)
        for t, x in enumerate(["a", "a", "b", "c", "a"]):
            sk.add(x, float(t))
        assert sk.result().estimates_dict() == {"a": 3.0, "b": 1.0, "c": 1.0}

    def test_exact_decayed_counts_under_capacity(self):
        rate = 0.5
        sk = ForwardDecaySpaceSaving(10, rate=rate, seed=0)
        rows = [("a", 0.0), ("b", 1.0), ("a", 2.0)]
        for x, t in rows:
            sk.add(x, t)
        q = 2.0
        est = sk.result(q).estimates_dict()
        exact_a = math.exp(-rate * 2.0) + math.exp(-rate * 0.0)
        exact_b = math.exp(-rate * 1.0)
        assert math.isclose(est["a"], exact_a, rel_tol=1e-9)
        assert math.isclose(est["b"], exact_b, rel_tol=1e-9)

    def test_recent_items_weighted_more(self):
        # same raw count, but "new" arrives later -> larger decayed count
        sk = ForwardDecaySpaceSaving(10, rate=1.0, seed=0)
        for t in range(5):
            sk.add("old", float(t))
        for t in range(5, 10):
            sk.add("new", float(t))
        est = sk.result(10.0).estimates_dict()
        assert est["new"] > est["old"]

    def test_size_bounded(self):
        sk = ForwardDecaySpaceSaving(4, rate=0.01, seed=1)
        for t in range(200):
            sk.add(t % 50, float(t))
        assert len(sk.result().estimates_dict()) <= 4

    def test_unbiased_mc(self):
        rate = 0.1
        rows = [(i % 6, float(t)) for t, i in enumerate(range(30))]
        q = 30.0
        exact: dict = {}
        for x, t in rows:
            exact[x] = exact.get(x, 0.0) + math.exp(-rate * (q - t))
        reps = 3000
        acc = {x: 0.0 for x in exact}
        for r in range(reps):
            sk = ForwardDecaySpaceSaving(3, rate=rate, seed=r)
            for x, t in rows:
                sk.add(x, t)
            est = sk.result(q).estimates_dict()
            for x in acc:
                acc[x] += est.get(x, 0.0)
        for x, e in exact.items():
            assert abs(acc[x] / reps - e) < 0.2 * e + 0.05, (x, acc[x] / reps, e)

    def test_result_normalized(self):
        sk = ForwardDecaySpaceSaving(5, rate=0.2, seed=0)
        sk.add("a", 0.0)
        sk.add("a", 1.0)
        res = sk.result(1.0)
        assert math.isclose(
            res.estimate("a"), math.exp(-0.2) + 1.0, rel_tol=1e-9
        )

    def test_long_span_exact_under_capacity(self):
        # rate * span = 2000: exp(rate * (t - landmark)) alone overflows
        rate = 1.0
        sk = ForwardDecaySpaceSaving(5, rate=rate, seed=0)
        rows = [("abc"[i % 3], 0.5 * i) for i in range(4001)]
        for x, t in rows:
            sk.add(x, t)
        q = rows[-1][1]
        exact: dict = {}
        for x, t in rows:
            exact[x] = exact.get(x, 0.0) + math.exp(-rate * (q - t))
        est = sk.result(q).estimates_dict()
        assert est.keys() == exact.keys()
        for x, e in exact.items():
            assert math.isclose(est[x], e, rel_tol=1e-9), (x, est[x], e)

    def test_long_span_over_capacity(self):
        rate, m = 0.5, 8
        rng = np.random.default_rng(4)
        times = np.sort(rng.uniform(0.0, 4000.0, 3000))  # rate * span = 2000
        items = rng.integers(0, 40, len(times)).tolist()
        sk = ForwardDecaySpaceSaving(m, rate=rate, seed=4)
        for x, t in zip(items, times.tolist()):
            sk.add(x, t)
        q = float(times[-1])
        total = math.fsum(np.exp(-rate * (q - times)).tolist())
        res = sk.result(q)
        assert len(res) <= m
        assert np.isfinite(res.estimates).all() and np.isfinite(res.threshold)
        assert math.isclose(res.estimates.sum(), total, rel_tol=1e-9)
        assert math.isclose(res.t, total, rel_tol=1e-9)

    def test_threshold_moves_with_the_landmark(self):
        # ten unit rows reduced to m = 2 take 1/alpha = 5; a landmark move
        # scales the threshold and the estimates by one factor
        sk = ForwardDecaySpaceSaving(2, rate=1.0, seed=0)
        for x in range(10):
            sk.add(x, 0.0)
        assert sk.result().threshold == 5.0
        sk.add("absent", 400.0, 0.0)  # a = 400 moves the landmark
        res = sk.result()
        assert sk.landmark == 400.0
        assert res.threshold == pytest.approx(5.0 * math.exp(-400.0), rel=1e-12)
        assert res.estimates.tolist() == pytest.approx([res.threshold] * 2, rel=1e-12)

    def test_time_gap_past_underflow(self):
        # exp(-rate * gap) == 0.0: the old bins carry no mass any more
        sk = ForwardDecaySpaceSaving(3, rate=1.0, seed=0)
        for t in range(12):
            sk.add(t % 5, float(t))
        sk.add("late", 2_000.0, 2.0)
        sk.add("later", 2_000.0)
        assert sk.result().estimates_dict() == {"late": 2.0, "later": 1.0}
        assert sk.result().t == 3.0
