"""PPS machinery tests: thresholded probabilities and splitting."""
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.sampling.pps import splitting_pps_sample, thresholded_pps_probs


def _iterative_probs(weights, k):
    """Reference: pin the over-threshold weights, rescale, repeat."""
    w = np.asarray(weights, dtype=np.float64)
    n = len(w)
    if k >= n:
        return np.ones(n)
    if k <= 0:
        return np.zeros(n)
    pi = np.zeros(n)
    pinned = np.zeros(n, dtype=bool)
    remaining = k
    for _ in range(n):
        free = ~pinned
        total = w[free].sum()
        if total <= 0:
            break
        alpha = remaining / total
        over = free & (w * alpha >= 1.0)
        if not over.any():
            pi[free] = alpha * w[free]
            break
        pinned |= over
        pi[over] = 1.0
        remaining = k - pinned.sum()
        if remaining <= 0:
            break
    return np.clip(pi, 0.0, 1.0)


def _frontier_pivotal(pi, rng):
    """Reference: the pivotal method on the last two unresolved units,
    re-scanning for unresolved units after every step (O(n^2))."""
    p = pi.copy()
    eps = 1e-12
    frontier = [i for i in range(len(p)) if eps < p[i] < 1 - eps]
    while len(frontier) >= 2:
        i, j = frontier[-1], frontier[-2]
        a, b = p[i], p[j]
        s = a + b
        if s <= 1.0:
            if rng.random() * s < b:
                p[i], p[j] = 0.0, s
            else:
                p[i], p[j] = s, 0.0
        else:
            if rng.random() * (2 - s) < (1 - b):
                p[i], p[j] = 1.0, s - 1.0
            else:
                p[i], p[j] = s - 1.0, 1.0
        frontier = [x for x in frontier if eps < p[x] < 1 - eps]
    for i in frontier:
        p[i] = 1.0 if rng.random() < p[i] else 0.0
    return p > 0.5


# weights with ties and zeros: a few repeated values mixed with arbitrary ones
_weights = st.lists(
    st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, 7.5]),
        st.floats(min_value=1e-6, max_value=1e3),
    ),
    max_size=40,
)


class TestThresholdedProbs:
    def test_sum_equals_k(self):
        w = np.asarray([1.0, 2, 3, 4, 100])
        for k in (1, 2, 3, 4):
            pi = thresholded_pps_probs(w, k)
            assert np.isclose(pi.sum(), k)

    def test_k_at_least_n_gives_ones(self):
        w = np.asarray([1.0, 2, 3])
        assert (thresholded_pps_probs(w, 3) == 1).all()
        assert (thresholded_pps_probs(w, 10) == 1).all()

    def test_k_zero(self):
        assert (thresholded_pps_probs(np.asarray([1.0, 2]), 0) == 0).all()

    def test_proportional_when_no_pinning(self):
        w = np.asarray([1.0, 2, 3, 4])
        pi = thresholded_pps_probs(w, 2)
        assert np.allclose(pi / w, pi[0] / w[0])

    def test_huge_item_pinned(self):
        w = np.asarray([1.0, 1, 1, 1000])
        pi = thresholded_pps_probs(w, 2)
        assert pi[3] == 1.0
        assert np.allclose(pi[:3], 1 / 3)

    def test_negligible_rest_not_sampled(self):
        # 1e20 * 1 >= 1e20 + 2 in floating point: the one slot is pinned
        # and the rest gets pi == 0, without a division by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pi = thresholded_pps_probs(np.asarray([1.0, 1e20, 1.0]), 1)
        assert pi.tolist() == [0.0, 1.0, 0.0]

    def test_paper_example_1_1_10(self):
        # sec 5.1: values 1,1,10 and k=2 -> the big item is pinned
        pi = thresholded_pps_probs(np.asarray([1.0, 1, 10]), 2)
        assert pi[2] == 1.0 and np.allclose(pi[:2], 0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            thresholded_pps_probs(np.asarray([-1.0, 2]), 1)

    def test_monotone_in_weight(self):
        w = np.asarray([1.0, 5, 2, 9, 3])
        pi = thresholded_pps_probs(w, 2)
        order = np.argsort(w)
        assert (np.diff(pi[order]) >= -1e-12).all()

    @settings(max_examples=300, deadline=None)
    @given(_weights, st.data())
    def test_matches_iterative_reference(self, w, data):
        k = data.draw(st.integers(min_value=0, max_value=len(w) + 1))
        pi = thresholded_pps_probs(np.asarray(w), k)
        ref = _iterative_probs(w, k)
        assert np.allclose(pi, ref, rtol=1e-12, atol=1e-12)


class TestSplittingSample:
    def test_fixed_size(self):
        rng = np.random.default_rng(0)
        w = np.asarray([1.0, 2, 3, 4, 5, 100])
        for k in (1, 2, 3, 5):
            mask, pi = splitting_pps_sample(w, k, rng)
            assert mask.sum() == k

    def test_marginals_match_pi(self):
        rng = np.random.default_rng(1)
        w = np.asarray([1.0, 2, 3, 4, 20])
        k = 3
        pi = thresholded_pps_probs(w, k)
        reps = 6000
        hits = np.zeros(len(w))
        for _ in range(reps):
            mask, _ = splitting_pps_sample(w, k, rng)
            hits += mask
        emp = hits / reps
        se = np.sqrt(pi * (1 - pi) / reps)
        assert (np.abs(emp - pi) < 5 * se + 1e-9).all()

    def test_certainty_items_always_kept(self):
        rng = np.random.default_rng(2)
        w = np.asarray([1.0, 1, 1, 500])
        for _ in range(50):
            mask, pi = splitting_pps_sample(w, 2, rng)
            assert mask[3]

    def test_ht_total_unbiased(self):
        rng = np.random.default_rng(3)
        w = np.asarray([3.0, 7, 11, 2, 30, 5])
        k = 3
        reps = 4000
        tot = 0.0
        for _ in range(reps):
            mask, pi = splitting_pps_sample(w, k, rng)
            tot += (w[mask] / pi[mask]).sum()
        assert abs(tot / reps - w.sum()) < 0.05 * w.sum()

    def test_one_dropped_marginals_with_pinned_units(self):
        # k = n - 1: the closed-form single drop, with two pinned units
        rng = np.random.default_rng(5)
        w = np.asarray([5.0, 6, 7, 8, 100, 200])
        k = len(w) - 1
        pi = thresholded_pps_probs(w, k)
        assert (pi == 1).sum() == 2
        reps = 8000
        hits = np.zeros(len(w))
        for _ in range(reps):
            mask, _ = splitting_pps_sample(w, k, rng)
            assert mask.sum() == k
            hits += mask
        emp = hits / reps
        se = np.sqrt(pi * (1 - pi) / reps)
        assert (np.abs(emp - pi) < 5 * se + 1e-9).all()

    @pytest.mark.parametrize(
        "w,k",
        [
            ([0.0, 0.0, 5.0], 2),  # fewer positive weights than k
            ([0.0, 3.0, 5.0], 2),  # the single drop is the zero
            ([4.0, 0.0, 1.0, 0.0, 2.0], 3),
            ([0.0, 1.0, 2.0, 0.0, 3.0, 4.0, 0.0], 2),  # pivotal pass
        ],
    )
    def test_zero_weights_never_selected(self, w, k):
        rng = np.random.default_rng(6)
        w = np.asarray(w)
        for _ in range(200):
            mask, _ = splitting_pps_sample(w, k, rng)
            assert mask.sum() == min(k, np.count_nonzero(w))
            assert not mask[w == 0].any()

    @settings(max_examples=200, deadline=None)
    @given(_weights, st.data(), st.integers(min_value=0, max_value=2**31))
    def test_same_draws_as_frontier_pivotal(self, w, data, seed):
        # off the single-drop case the design is the pivotal method's,
        # draw for draw
        w = np.asarray(w)
        k = data.draw(st.integers(min_value=0, max_value=len(w) + 1))
        mask, pi = splitting_pps_sample(w, k, np.random.default_rng(seed))
        if k == len(w) - 1 and np.isclose(pi.sum(), k):
            return
        ref = _frontier_pivotal(pi, np.random.default_rng(seed))
        assert (mask == ref).all()

    def test_large_n_fixed_size_keeps_pinned(self):
        rng = np.random.default_rng(8)
        n, k = 20_000, 10_000
        w = rng.pareto(0.7, n) + 1e-3
        mask, pi = splitting_pps_sample(w, k, rng)
        assert (pi == 1).sum() > 100
        assert mask.sum() == k
        assert mask[pi == 1].all()

