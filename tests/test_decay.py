"""Forward-decay time-weighted sketch tests (sec 5.3)."""
import math

import numpy as np
import pytest

from repro.core import weighted
from repro.core.decay import ForwardDecaySpaceSaving
from repro.core.weighted import SPILL_FACTOR, WeightedUnbiasedSpaceSaving


def _state(sk):
    """Everything a rejected row must leave as it was."""
    return sk._t, dict(sk._values), sk.landmark, sk._last_time


class TestForwardDecay:
    @pytest.mark.parametrize("rate", [-1.0, math.nan, math.inf])
    def test_validation(self, rate):
        with pytest.raises(ValueError, match="decay rate"):
            ForwardDecaySpaceSaving(5, rate=rate)

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

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_non_finite_time_rejected(self, rate, bad):
        # an infinite time used to give a = inf, scale every bin and t to 0
        # and move the landmark to inf; a NaN time read as a NaN weight
        sk = ForwardDecaySpaceSaving(4, rate=rate, seed=0)
        sk.add("a", 0.0)
        sk.add("b", 1.0)
        before = _state(sk)
        with pytest.raises(ValueError, match=f"timestamp must be finite, got {bad!r}"):
            sk.add("c", bad)
        assert _state(sk) == before
        want = {"a": math.exp(-rate), "b": 1.0}
        assert sk.result().estimates_dict() == pytest.approx(want, rel=1e-12)

    def test_decreasing_time_names_both_times(self):
        sk = ForwardDecaySpaceSaving(4, rate=1.0, seed=0)
        sk.add("a", 2.0)
        with pytest.raises(ValueError, match="got 1.0 after 2.0"):
            sk.add("b", 1.0)

    @pytest.mark.parametrize("query_time", [1_000.0, math.inf])
    def test_query_long_after_the_landmark(self, query_time):
        # exp(rate * 999) overflows; the decayed mass underflows to 0
        sk = ForwardDecaySpaceSaving(4, rate=1.0, seed=0)
        sk.add("a", 0.0)
        sk.add("b", 1.0)
        res = sk.result(query_time)
        assert res.estimates_dict() == {"a": 0.0, "b": 0.0}
        assert (res.t, res.threshold) == (0.0, 0.0)
        assert sk.result(1.0).estimates_dict() == pytest.approx(
            {"a": math.exp(-1.0), "b": 1.0}, rel=1e-12
        )

    @pytest.mark.parametrize("time, weight", [(1.0, 1e308), (250.0, 1e200)])
    def test_weight_overflowing_once_scaled_rejected(self, time, weight):
        # the weight itself is finite; weight * exp(rate * time) is not
        sk = ForwardDecaySpaceSaving(4, rate=1.0, seed=0)
        sk.add("a", 0.0)
        sk.add("b", 0.5, 2.0)
        before = _state(sk)
        with pytest.raises(ValueError, match="overflows once scaled"):
            sk.add("a", time, weight)
        with pytest.raises(ValueError, match="overflows once scaled"):
            sk.add("new", time, weight)
        assert _state(sk) == before
        sk.add("c", 0.75)  # the clock did not move to ``time``
        assert len(sk.result()) == 3

    @pytest.mark.parametrize("time", [0.0, 1.0])
    def test_total_mass_overflow_rejected(self, time):
        # at rate 0 no weight is scaled: 1e308 twice overflows t
        sk = ForwardDecaySpaceSaving(2, rate=0.0, seed=0)
        sk.add("a", 0.0, 1e308)
        before = _state(sk)
        for item in ("a", "b"):  # held and absent
            with pytest.raises(ValueError, match="overflows the total mass 1e\\+308"):
                sk.add(item, time, 1e308)
        assert _state(sk) == before
        assert sk.result(0.0).estimates_dict() == {"a": 1e308}

    def test_query_far_before_the_landmark_rejected(self):
        # the landmark moves to 1000; exp(rate * (0 - 1000)) underflows to 0
        sk = ForwardDecaySpaceSaving(4, rate=1.0, seed=0)
        sk.add("a", 0.0)
        sk.add("b", 1000.0)
        assert sk.landmark == 1000.0
        with pytest.raises(ValueError, match="query_time 0.0 .* landmark 1000.0"):
            sk.result(0.0)
        # a query before the last row but near the landmark extrapolates; a's
        # mass underflowed to 0 when the landmark moved
        assert sk.result(999.0).estimates_dict() == pytest.approx(
            {"b": math.exp(1.0)}, rel=1e-12
        )

    def test_landmark_move_rescales_before_the_weight(self):
        # a = 500 moves the landmark first, so a weight that would
        # overflow against the old landmark is accepted unscaled
        sk = ForwardDecaySpaceSaving(4, rate=1.0, seed=0)
        sk.add("a", 0.0)
        sk.add("b", 500.0, 1e308)
        assert sk.landmark == 500.0
        assert sk.result().estimates_dict() == {"a": math.exp(-500.0), "b": 1e308}

    @pytest.mark.parametrize("rate", [0.0, 0.01])
    def test_same_reduction_as_the_weighted_sketch(self, rate, monkeypatch):
        # same seed, same rows: with the weights scaled by exp(rate * t)
        # (no landmark move here), both paths hold the same dict and make
        # the same draws, so the results are bit-identical through spills
        real, spills = weighted.splitting_pps_sample, []

        def counted(*args):
            spills.append(1)
            return real(*args)

        monkeypatch.setattr(weighted, "splitting_pps_sample", counted)
        m = 3
        rng = np.random.default_rng(7)
        items = rng.integers(0, 60, 40 * SPILL_FACTOR * m).tolist()
        weights = rng.uniform(0.5, 2.0, len(items)).tolist()
        times = np.linspace(0.0, 100.0, len(items)).tolist()
        dec = ForwardDecaySpaceSaving(m, rate=rate, seed=3)
        ref = WeightedUnbiasedSpaceSaving(m, seed=3)
        for k, (x, t, w) in enumerate(zip(items, times, weights)):
            dec.add(x, t, w)
            ref.add(x, w * math.exp(rate * t))
            if k % 500 == 499:  # a query reduces in place too
                got, want = dec.result(0.0), ref.result()
                assert got.items.tolist() == want.items.tolist()
                assert got.estimates.tobytes() == want.estimates.tobytes()
                assert (got.threshold, got.t) == (want.threshold, want.t)
        assert len(spills) >= 10 and dec.landmark == 0.0
        got, want = dec.result(0.0), ref.result()
        assert got.items.tolist() == want.items.tolist()
        assert got.estimates.tobytes() == want.estimates.tobytes()
        assert (got.threshold, got.t) == (want.threshold, want.t) and want.threshold > 0
        if rate == 0.0:  # at rate 0 every query time reads the same
            assert dec.result().estimates.tobytes() == want.estimates.tobytes()

    def test_no_reader_that_misreads_rows(self):
        # an inherited update_many(items, weights) would take the weights
        # for timestamps, and an inherited t would read landmark-scaled mass
        sk = ForwardDecaySpaceSaving(4, rate=1.0, seed=0)
        assert not hasattr(sk, "update_many")
        assert not hasattr(sk, "t")
