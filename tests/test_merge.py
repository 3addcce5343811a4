"""Merge operation tests (sec 5.5, Theorem 2)."""
import math
import random

import numpy as np
import pytest

from repro.core.decay import ForwardDecaySpaceSaving
from repro.core.merge import merge_misra_gries, merge_unbiased, reduce_counts
from repro.core.space_saving import UnbiasedSpaceSaving
from repro.core.weighted import WeightedUnbiasedSpaceSaving


def _sketch(stream, m, seed):
    return UnbiasedSpaceSaving.from_stream(stream, m, seed=seed)


class TestReduceCounts:
    def test_no_reduction_when_small(self):
        items = np.arange(3)
        counts = np.asarray([1.0, 2, 3])
        res = reduce_counts(items, counts, 5, np.random.default_rng(0))
        assert res.threshold == 0.0 and (res.estimates == counts).all()

    @pytest.mark.parametrize("method", ["priority", "pps"])
    def test_size_bound(self, method):
        g = np.random.default_rng(1)
        res = reduce_counts(
            np.arange(50), np.arange(1.0, 51), 10, g, method=method
        )
        assert len(res) <= 10

    @pytest.mark.parametrize("method", ["priority", "pps"])
    def test_unbiased_per_item(self, method):
        items = np.arange(6)
        counts = np.asarray([1.0, 2, 3, 4, 5, 50])
        reps = 6000
        acc = np.zeros(6)
        for r in range(reps):
            res = reduce_counts(
                items, counts, 3, np.random.default_rng(r), method=method
            )
            for it, est in zip(res.items, res.estimates):
                acc[int(it)] += est
        means = acc / reps
        assert np.allclose(means, counts, rtol=0.1, atol=0.3)

    def test_priority_drops_zero_counts(self):
        res = reduce_counts(
            np.arange(5), [0, 1, 2, 3, 4], 3, np.random.default_rng(0)
        )
        assert len(res) == 3 and 0 not in res.items.tolist()
        assert res.t == 10.0

    def test_priority_all_zero_beyond_m(self):
        res = reduce_counts(np.arange(5), np.zeros(5), 3, np.random.default_rng(0))
        assert len(res) == 0 and res.t == 0.0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            reduce_counts(
                np.arange(2), np.ones(2), 1, np.random.default_rng(0), method="x"
            )

    @pytest.mark.parametrize(
        "counts",
        [np.arange(1.0, 51), np.r_[np.zeros(5), np.geomspace(0.1, 1e6, 45)]],
    )
    def test_pps_conserves_total(self, counts):
        for r in range(50):
            res = reduce_counts(
                np.arange(len(counts)), counts, 10, np.random.default_rng(r),
                method="pps",
            )
            assert np.isfinite(res.threshold)
            assert np.isclose(res.estimates.sum(), counts.sum(), rtol=1e-9, atol=0)

    def test_t_preserved(self):
        g = np.random.default_rng(2)
        counts = np.arange(1.0, 21)
        res = reduce_counts(np.arange(20), counts, 5, g)
        assert res.t == counts.sum()


class TestMergeUnbiased:
    def test_exact_union_when_few_items(self):
        a = _sketch(list("aab"), 5, 0)
        b = _sketch(list("bcc"), 5, 1)
        res = merge_unbiased([a, b], 10, rng=np.random.default_rng(0))
        assert res.estimates_dict() == {"a": 2.0, "b": 2.0, "c": 2.0}

    def test_merge_accepts_mappings_and_results(self):
        res1 = merge_unbiased(
            [{"a": 3.0}, {"a": 1.0, "b": 2.0}], 5, rng=np.random.default_rng(1)
        )
        res2 = merge_unbiased([res1], 5, rng=np.random.default_rng(2))
        assert res2.estimates_dict() == {"a": 4.0, "b": 2.0}

    def test_merged_unbiased_mc(self):
        """Distributed counting: two sketch halves, merged, stays unbiased."""
        counts = {0: 30, 1: 20, 2: 4, 3: 4, 4: 4, 5: 4, 6: 4}
        half1 = [i for i, c in counts.items() for _ in range(c // 2)]
        half2 = [i for i, c in counts.items() for _ in range(c - c // 2)]
        m = 4
        reps = 4000
        acc = np.zeros(len(counts))
        for r in range(reps):
            rng = np.random.default_rng(r)
            s1, s2 = list(half1), list(half2)
            rng.shuffle(s1)
            rng.shuffle(s2)
            a = _sketch(s1, m, 3 * r)
            b = _sketch(s2, m, 3 * r + 1)
            merged = merge_unbiased(
                [a, b], m, rng=np.random.default_rng(3 * r + 2)
            )
            for i in counts:
                acc[i] += merged.estimate(i)
        means = acc / reps
        for i, c in counts.items():
            assert abs(means[i] - c) < 0.12 * c + 0.7, (i, means[i], c)

    def test_merge_size_bound(self):
        rng = random.Random(0)
        a = _sketch([rng.randrange(100) for _ in range(500)], 10, 0)
        b = _sketch([rng.randrange(100, 200) for _ in range(500)], 10, 1)
        res = merge_unbiased([a, b], 10, rng=np.random.default_rng(0))
        assert len(res) <= 10
        assert res.threshold > 0


    def test_weighted_sketches(self):
        a = WeightedUnbiasedSpaceSaving(10, seed=0)
        a.update_many("aab", [1.0, 2.0, 0.5])
        b = WeightedUnbiasedSpaceSaving(10, seed=1)
        b.update_many("bc", [1.5, 4.0])
        res = merge_unbiased([a, b], 10, rng=np.random.default_rng(0))
        assert res.estimates_dict() == {"a": 3.0, "b": 2.0, "c": 4.0}

    def test_decayed_sketches(self):
        a = ForwardDecaySpaceSaving(10, rate=math.log(2), seed=0)
        a.add("a", 0.0)
        a.add("b", 1.0)
        b = ForwardDecaySpaceSaving(10, rate=math.log(2), seed=1)
        b.add("a", 1.0)
        res = merge_unbiased([a, b], 10, rng=np.random.default_rng(0))
        assert res.estimates_dict() == pytest.approx({"a": 1.5, "b": 1.0})
        later = merge_unbiased(
            [a.result(2.0), b.result(2.0)], 10, rng=np.random.default_rng(0)
        )
        assert later.estimates_dict() == pytest.approx({"a": 0.75, "b": 0.5})

    @pytest.mark.parametrize("make", ["space_saving", "weighted"])
    def test_tuple_keys(self, make):
        rows = [("x", 1), ("y", 2), ("x", 1)]
        if make == "space_saving":
            s = _sketch(rows, 5, 0)
        else:
            s = WeightedUnbiasedSpaceSaving(5, seed=0)
            s.update_many(rows)
        res = merge_unbiased([s, s], 5, rng=np.random.default_rng(0))
        assert res.items.shape == (2,)
        assert res.estimates_dict() == {("x", 1): 4.0, ("y", 2): 2.0}

    def test_tuple_keys_reduced(self):
        s = _sketch([(i % 7, "k") for i in range(70)], 10, 0)
        res = merge_unbiased([s, s], 3, rng=np.random.default_rng(0))
        assert len(res) == 3
        assert all(isinstance(x, tuple) for x in res.estimates_dict())


class TestMergeMisraGries:
    def test_size_bound_and_soft_threshold(self):
        maps = [
            {f"a{i}": float(i + 1) for i in range(8)},
            {f"b{i}": float(i + 1) for i in range(8)},
        ]
        m = 5
        merged = merge_misra_gries(maps, m)
        assert len(merged) <= m
        combined = {}
        for mp in maps:
            for k, v in mp.items():
                combined[k] = combined.get(k, 0) + v
        # each counter underestimates by exactly the (m+1)-th largest
        thr = sorted(combined.values(), reverse=True)[m]
        for k, v in merged.items():
            assert v == combined[k] - thr

    def test_exact_when_few(self):
        merged = merge_misra_gries([{"a": 1.0}, {"b": 2.0}], 5)
        assert merged == {"a": 1.0, "b": 2.0}

    def test_biased_downward(self):
        maps = [{f"x{i}": 2.0 for i in range(10)}]
        merged = merge_misra_gries(maps, 4)
        combined_total = 20.0
        assert sum(merged.values()) < combined_total
