"""Priority sampling baseline tests (Duffield et al.)."""
import numpy as np
import pytest

from repro.core.result import CountSketchResult
from repro.sampling.priority import priority_sample


def _weights(seed=0, n=60):
    g = np.random.default_rng(seed)
    return np.arange(n) % 17 + 1.0, g


class TestStructure:
    def test_keep_all_when_small(self):
        items = np.arange(3)
        w = np.asarray([1.0, 2, 3])
        ps = priority_sample(items, w, 5, np.random.default_rng(0))
        assert ps.threshold == 0.0
        assert (ps.estimates == w).all()

    def test_sample_size(self):
        w, g = _weights()
        ps = priority_sample(np.arange(len(w)), w, 10, g)
        assert len(ps.items) == 10

    def test_estimates_at_least_weight_or_tau(self):
        w, g = _weights(1)
        ps = priority_sample(np.arange(len(w)), w, 10, g)
        kept = w[ps.items]
        assert (ps.estimates >= kept - 1e-12).all()
        assert (ps.estimates >= min(ps.threshold, ps.estimates.max()) - 1e-12).all()
        assert np.allclose(ps.estimates, np.maximum(kept, ps.threshold))

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf, -1.0])
    def test_positive_weights_required(self, bad):
        with pytest.raises(ValueError):
            priority_sample(
                np.arange(2), np.asarray([bad, 1.0]), 1, np.random.default_rng(0)
            )

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            priority_sample(
                np.arange(3), np.asarray([1.0, 2.0]), 1, np.random.default_rng(0)
            )


class TestUnbiasedness:
    def test_subset_sum_unbiased_mc(self):
        w, _ = _weights(2)
        items = np.arange(len(w))
        subset = set(range(0, len(w), 3))
        truth = sum(w[i] for i in subset)
        reps = 5000
        tot = 0.0
        g = np.random.default_rng(3)
        for _ in range(reps):
            ps = priority_sample(items, w, 12, g)
            tot += ps.subset_sum(subset)[0]
        assert abs(tot / reps - truth) < 0.05 * truth

    def test_total_sum_unbiased_but_noisy(self):
        # sec 7: priority sampling does not conserve the total exactly
        w = np.full(50, 4.0)
        items = np.arange(50)
        g = np.random.default_rng(4)
        ests = [
            priority_sample(items, w, 10, g).subset_sum(set(items.tolist()))[0]
            for _ in range(2000)
        ]
        ests = np.asarray(ests)
        assert ests.std() > 0  # noisy
        assert abs(ests.mean() - 200.0) < 0.05 * 200.0  # but unbiased

    def test_variance_estimator_scale(self):
        w, _ = _weights(5)
        items = np.arange(len(w))
        subset = set(items.tolist())
        g = np.random.default_rng(6)
        ests, vars_ = [], []
        for _ in range(2000):
            est, var, _lo, _hi = priority_sample(items, w, 15, g).subset_sum_ci(subset)
            ests.append(est)
            vars_.append(var)
        emp_var = np.var(ests)
        mean_est_var = np.mean(vars_)
        # the eq.-5 plug-in tau**2 * C_S: right order of magnitude
        assert 0.3 * emp_var < mean_est_var < 3.0 * emp_var


class TestOneResultType:
    """The sample is a CountSketchResult: estimates ``max(n_i, tau)``,
    threshold ``tau``, and the total weight as ``t``."""

    def test_sample_is_a_count_sketch_result(self):
        w, _ = _weights(7)
        m = 12
        ps = priority_sample(np.arange(len(w)), w, m, np.random.default_rng(8))
        # the same draw, by sorting the priorities
        q = w / np.random.default_rng(8).random(len(w))
        tau = np.sort(q)[-(m + 1)]
        assert isinstance(ps, CountSketchResult)
        assert ps.threshold == tau
        assert sorted(ps.items.tolist()) == np.flatnonzero(q > tau).tolist()
        assert (ps.estimates == np.maximum(w[ps.items], tau)).all()
        assert ps.t == w.sum()
