"""Merge operation tests (sec 5.5, Theorem 2)."""
import math
import random
from collections import Counter

import numpy as np
import pandas as pd
import pytest

from repro.core import spark_sketch
from repro.core.decay import ForwardDecaySpaceSaving
from repro.core.merge import merge_misra_gries, merge_unbiased, reduce_counts, sum_by_item
from repro.core.result import item_array
from repro.core.space_saving import UnbiasedSpaceSaving
from repro.core.weighted import WeightedUnbiasedSpaceSaving


def _sketch(stream, m, seed):
    return UnbiasedSpaceSaving.from_stream(stream, m, seed=seed)


# Priority sampling is the one reduction; the id names it in the test ids.
BY_REDUCTION = pytest.mark.parametrize("reduce", [reduce_counts], ids=["priority"])


class TestReduceCounts:
    def test_no_reduction_when_small(self):
        items = np.arange(3)
        counts = np.asarray([1.0, 2, 3])
        res = reduce_counts(items, counts, 5, np.random.default_rng(0))
        assert res.threshold == 0.0 and (res.estimates == counts).all()

    @BY_REDUCTION
    def test_size_bound(self, reduce):
        g = np.random.default_rng(1)
        res = reduce(np.arange(50), np.arange(1.0, 51), 10, g)
        assert len(res) <= 10

    @BY_REDUCTION
    def test_unbiased_per_item(self, reduce):
        items = np.arange(6)
        counts = np.asarray([1.0, 2, 3, 4, 5, 50])
        reps = 6000
        acc = np.zeros(6)
        for r in range(reps):
            res = reduce(items, counts, 3, np.random.default_rng(r))
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

    def test_zero_counts_dropped_below_m(self):
        # m above the number of items: nothing is sampled, zeros still go
        res = reduce_counts(
            np.arange(5), [0, 1, 0, 3, 4], 10, np.random.default_rng(0)
        )
        assert res.items.tolist() == [1, 3, 4] and res.estimates.tolist() == [1, 3, 4]
        assert res.threshold == 0.0 and res.t == 8.0

    def test_priority_all_zero_beyond_m(self):
        res = reduce_counts(np.arange(5), np.zeros(5), 3, np.random.default_rng(0))
        assert len(res) == 0 and res.t == 0.0

    def test_t_preserved(self):
        g = np.random.default_rng(2)
        counts = np.arange(1.0, 21)
        res = reduce_counts(np.arange(20), counts, 5, g)
        assert res.t == counts.sum()


class TestSumByItem:
    @staticmethod
    def _loop(pairs):
        """The reference union: a dict summing counts in input order."""
        acc: dict = {}
        for items, counts in pairs:
            for x, c in zip(items.tolist(), counts.tolist()):
                acc[x] = acc.get(x, 0.0) + c
        return list(acc), list(acc.values())

    @pytest.mark.parametrize("keys", [
        [[3, 1, 4], [1, 5, 9, 3]],
        [["ab", "c"], ["abcd", "c", "e"]],
        [[(1, "a"), (2, "b")], [(1, "a")]],
        [[7, 8], ["7", 8]],
        [[None, 1], [None, 2]],
        [[], [5, 6], []],
    ], ids=["ints", "strings", "tuples", "mixed", "none", "empty"])
    def test_matches_a_dict_loop(self, keys):
        g = np.random.default_rng(0)
        pairs = [(item_array(k), g.random(len(k)) * 1e3) for k in keys]
        items, counts = sum_by_item(pairs)
        ref_items, ref_counts = self._loop(pairs)
        assert items.shape == (len(ref_items),)
        assert items.tolist() == ref_items and counts.tolist() == ref_counts

    def test_bit_equal_to_a_dict_loop_on_many_partitions(self):
        g = np.random.default_rng(1)
        pairs = [
            (g.choice(5000, 300, replace=False), g.random(300) * g.integers(1, 1000))
            for _ in range(16)
        ]
        items, counts = sum_by_item(pairs)
        assert (items.tolist(), counts.tolist()) == self._loop(pairs)
        assert items.dtype == np.int64


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


class TestMergeRule:
    """A merge reports the largest threshold of its reduction and its
    inputs, and the inputs' total mass."""

    def test_unreduced_union_keeps_inputs_threshold(self):
        rng = random.Random(0)
        a = _sketch([rng.randrange(500) for _ in range(12_000)], 50, 0)
        b = _sketch([rng.randrange(500) for _ in range(9_000)], 50, 1)
        assert a.n_min != b.n_min
        # 100 bins hold both 50-bin sketches, so nothing is reduced
        res = merge_unbiased([a, b], 100, rng=np.random.default_rng(0))
        union = Counter(a.result().estimates_dict()) + Counter(b.result().estimates_dict())
        assert res.estimates_dict() == union
        assert res.threshold == max(a.n_min, b.n_min)
        assert res.t == 21_000
        est, var, lo, hi = res.subset_sum_ci(set(range(250)))
        assert var > 0 and hi - lo > 0

    def test_t_sums_inputs_t_not_estimates(self):
        counts = np.arange(1.0, 41)
        r1 = reduce_counts(np.arange(40), counts, 5, np.random.default_rng(0))
        r2 = reduce_counts(np.arange(40, 80), counts, 5, np.random.default_rng(1))
        est_sum = r1.estimates.sum() + r2.estimates.sum()
        assert est_sum != r1.t + r2.t
        res = merge_unbiased([r1, r2], 10, rng=np.random.default_rng(2))
        assert res.t == r1.t + r2.t == 2 * counts.sum()
        assert res.threshold == max(r1.threshold, r2.threshold)
        reduced = merge_unbiased([r1, r2], 4, rng=np.random.default_rng(2))
        assert reduced.t == r1.t + r2.t
        assert reduced.threshold >= max(r1.threshold, r2.threshold)

    def test_final_merge_follows_the_same_rule(self):
        r1 = reduce_counts(np.arange(40), np.arange(1.0, 41), 5, np.random.default_rng(0))
        r2 = reduce_counts(np.arange(30, 70), np.arange(41.0, 81), 5, np.random.default_rng(1))
        parts = pd.concat([
            pd.DataFrame({
                "item": r.items, "estimate": r.estimates, "threshold": r.threshold,
                "part_t": r.t, "pid": pid,
            })
            for pid, r in enumerate((r1, r2))
        ], ignore_index=True)
        final = spark_sketch._final_merge(parts, 10, seed=0)
        merged = merge_unbiased([r1, r2], 10, rng=np.random.default_rng(0))
        assert final.estimates_dict() == merged.estimates_dict()
        assert (final.threshold, final.t) == (merged.threshold, merged.t)
