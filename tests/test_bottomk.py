"""Bottom-k uniform item sampling tests."""
import math

import numpy as np

from repro.core.result import CountSketchResult
from repro.sampling.bottomk import bottomk_from_counts


class TestVectorized:
    def test_exact_when_few_items(self):
        items = np.arange(3)
        counts = np.asarray([5.0, 6, 7])
        bk = bottomk_from_counts(items, counts, 10, np.random.default_rng(0))
        assert bk.threshold == 0.0
        assert bk.subset_sum(set(items.tolist()))[0] == 18.0

    def test_sample_size(self):
        g = np.random.default_rng(1)
        bk = bottomk_from_counts(np.arange(100), np.ones(100), 10, g)
        tau = 1.0 / bk.estimates  # every count is 1
        assert len(bk.items) == 10 and ((0 < tau) & (tau < 1)).all()

    def test_subset_sum_unbiased_mc(self):
        counts = np.asarray([50.0] * 4 + [2.0] * 96)
        items = np.arange(100)
        subset = set(range(0, 100, 2))
        truth = counts[::2].sum()
        g = np.random.default_rng(2)
        ests = [
            bottomk_from_counts(items, counts, 20, g).subset_sum(subset)[0]
            for _ in range(6000)
        ]
        assert abs(np.mean(ests) - truth) < 0.08 * truth

    def test_uniform_inclusion_regardless_of_count(self):
        counts = np.asarray([1000.0] + [1.0] * 99)
        items = np.arange(100)
        g = np.random.default_rng(3)
        hits = sum(
            0 in bottomk_from_counts(items, counts, 10, g).items
            for _ in range(4000)
        )
        # the heavy item is included ~ k/n = 10%, not ~100%
        assert 0.06 < hits / 4000 < 0.14


class TestOneResultType:
    """The sample is a CountSketchResult with estimates ``n_i / tau``."""

    def test_subset_sum_is_kept_counts_over_tau(self):
        g = np.random.default_rng(4)
        counts = np.floor(1.0 + g.pareto(1.0, 200))
        items = np.arange(200)
        k = 25
        bk = bottomk_from_counts(items, counts, k, np.random.default_rng(5))
        # the same draw: tau is the (k+1)-th smallest uniform
        u = np.random.default_rng(5).random(200)
        tau = np.sort(u)[k]
        assert isinstance(bk, CountSketchResult)
        assert sorted(bk.items.tolist()) == np.flatnonzero(u < tau).tolist()
        assert bk.t == counts.sum()
        for subset in (set(range(0, 200, 3)), set(range(50)), set(items.tolist())):
            kept = [i for i in bk.items.tolist() if i in subset]
            old = counts[kept].sum() / tau
            assert math.isclose(bk.subset_sum(subset)[0], old, rel_tol=1e-12)

    def test_exact_sample_has_zero_threshold(self):
        bk = bottomk_from_counts(
            np.arange(4), np.asarray([3.0, 1, 4, 1]), 4, np.random.default_rng(0)
        )
        est, var, lo, hi = bk.subset_sum_ci({0, 2})
        assert bk.threshold == 0.0
        assert (est, var, lo, hi) == (7.0, 0.0, 7.0, 7.0)

    def test_reduced_sample_has_nan_interval(self):
        g = np.random.default_rng(6)
        bk = bottomk_from_counts(np.arange(50), np.ones(50), 10, g)
        est, var, lo, hi = bk.subset_sum_ci(set(range(50)))
        assert math.isnan(bk.threshold)
        assert est > 0 and math.isnan(var) and math.isnan(lo) and math.isnan(hi)


class TestPredicateMember:
    def test_callable_membership(self):
        counts = np.asarray([4.0, 5, 6, 7, 8, 9])
        bk = bottomk_from_counts(np.arange(6), counts, 3, np.random.default_rng(7))
        by_set = bk.subset_sum({2, 3, 4, 5})
        assert bk.subset_sum(lambda x: x > 1) == by_set
        kept = [i for i in bk.items.tolist() if i > 1]
        assert by_set[0] == sum(bk.estimate(i) for i in kept) and by_set[1] == len(kept)
