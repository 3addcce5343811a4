"""Workload generator tests: Weibull counts and stream arrangements."""
import numpy as np
import pytest

from repro.streams.orders import (
    epoch_of_items,
    expand_counts,
    permuted_stream,
    sorted_stream,
    two_phase_stream,
)
from repro.streams.weibull import weibull_counts, weibull_quantile


class TestWeibull:
    def test_quantile_known_values(self):
        # shape 1 is exponential: F^-1(1-e^-1) = 1
        assert np.isclose(weibull_quantile(np.asarray([1 - np.e**-1]), shape=1.0)[0], 1.0)

    def test_target_total_hit_approximately(self):
        c = weibull_counts(1000, shape=0.5, target_total=100_000)
        assert abs(c.sum() - 100_000) < 0.02 * 100_000

    def test_deterministic(self):
        a = weibull_counts(500, shape=0.3, target_total=50_000)
        b = weibull_counts(500, shape=0.3, target_total=50_000)
        assert (a == b).all()

    def test_lower_shape_more_skew(self):
        heavy = weibull_counts(1000, shape=0.3, target_total=100_000)
        light = weibull_counts(1000, shape=2.0, target_total=100_000)
        cv_heavy = heavy.std() / heavy.mean()
        cv_light = light.std() / light.mean()
        assert cv_heavy > 3 * cv_light

    def test_paper_skew_shape_015(self):
        # Figure 2's setting: sd roughly 30x the mean in the continuous
        # limit; the 1000-point grid truncates the extreme quantiles, so
        # the discretized ratio lands lower but still extreme
        c = weibull_counts(1000, shape=0.15, target_total=1_000_000)
        assert c.std() / c.mean() > 5

    def test_validation(self):
        with pytest.raises(TypeError):
            weibull_counts(10, shape=1.0)
        with pytest.raises(ValueError):
            weibull_counts(0, shape=1.0, target_total=5)

    def test_zeros_dropped(self):
        c = weibull_counts(1000, shape=0.15, target_total=10_000)
        assert (c > 0).all()


class TestArrangements:
    COUNTS = np.asarray([3, 1, 4, 1, 5])

    def test_expand_counts(self):
        rows = expand_counts(self.COUNTS)
        assert len(rows) == self.COUNTS.sum()
        for i, c in enumerate(self.COUNTS):
            assert (rows == i).sum() == c

    def test_expand_offset(self):
        rows = expand_counts(np.asarray([2, 2]), offset=10)
        assert set(rows.tolist()) == {10, 11}

    def test_permuted_same_composition(self):
        rng = np.random.default_rng(0)
        rows = permuted_stream(self.COUNTS, rng)
        for i, c in enumerate(self.COUNTS):
            assert (rows == i).sum() == c

    def test_permuted_actually_shuffles(self):
        rng = np.random.default_rng(1)
        counts = np.full(50, 10)
        rows = permuted_stream(counts, rng)
        assert not (rows == expand_counts(counts)).all()

    def test_sorted_ascending_grouped(self):
        rows = sorted_stream(self.COUNTS)
        # rows grouped per item and group sizes non-decreasing
        sizes = []
        prev = None
        for x in rows:
            if x != prev:
                sizes.append(0)
                prev = x
            sizes[-1] += 1
        assert sizes == sorted(sizes)
        assert len(rows) == self.COUNTS.sum()

    def test_sorted_rarest_first(self):
        # the rarest items lead, tied counts keep id order, the heaviest
        # item closes the stream
        rows = sorted_stream(self.COUNTS)
        assert rows.dtype == np.int64
        assert rows.tolist() == [1, 3] + [0] * 3 + [2] * 4 + [4] * 5

    def test_two_phase_disjoint(self):
        rng = np.random.default_rng(2)
        c1 = np.asarray([5, 5])
        c2 = np.asarray([3, 3, 3])
        stream, n_first = two_phase_stream(c1, c2, rng)
        assert n_first == 2
        first, second = stream[:10], stream[10:]
        assert set(first.tolist()) <= {0, 1}
        assert set(second.tolist()) <= {2, 3, 4}

    def test_epochs_balanced(self):
        e = epoch_of_items(100, 10)
        assert len(e) == 100
        counts = np.bincount(e)
        assert (counts == 10).all()
        assert (np.diff(e) >= 0).all()  # contiguous blocks

    def test_epochs_validation(self):
        with pytest.raises(ValueError):
            epoch_of_items(5, 10)
