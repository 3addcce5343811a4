"""Deterministic Space Saving guarantees and adversarial failures.

Covers the classic error bound, the frequent-item guarantee, and the
paper's Theorem 11 adversarial sequence that zeroes every estimate.
"""
import random

import numpy as np

from repro.core.space_saving import DeterministicSpaceSaving, UnbiasedSpaceSaving


def _random_stream(seed, n=4000, n_items=300):
    rng = random.Random(seed)
    return [rng.randrange(n_items) for _ in range(n)]


class TestErrorBound:
    def test_error_at_most_n_over_m(self):
        for seed in range(5):
            stream = _random_stream(seed)
            m = 50
            sk = DeterministicSpaceSaving.from_stream(stream, m, seed=seed)
            truth = {x: stream.count(x) for x in set(stream)}
            bound = len(stream) / m
            for x, n_x in truth.items():
                assert abs(sk.result().estimate(x) - n_x) <= bound

    def test_stored_estimates_overestimate(self):
        stream = _random_stream(11)
        sk = DeterministicSpaceSaving.from_stream(stream, 40, seed=0)
        truth = {x: stream.count(x) for x in set(stream)}
        for x, est in sk.result().estimates_dict().items():
            assert est >= truth[x]

    def test_frequent_items_always_included(self):
        # any item with n_i > t/m must be in the det sketch
        rng = random.Random(3)
        heavy = ["H1"] * 800 + ["H2"] * 600
        tail = [f"t{rng.randrange(500)}" for _ in range(2000)]
        stream = heavy + tail
        rng.shuffle(stream)
        m = 10
        sk = DeterministicSpaceSaving.from_stream(stream, m, seed=1)
        assert "H1" in sk and "H2" in sk


class TestTheorem11Adversarial:
    """Appending n_tot distinct rows zeroes all det estimates."""

    def _base_counts(self, m=10, v=20):
        # all n_i < 2 n_tot / m as the theorem requires
        n = np.full(v, 8)
        assert all(n < 2 * n.sum() / m)
        return n

    def test_det_estimates_zeroed(self):
        m = 10
        n = self._base_counts(m)
        n_tot = int(n.sum())
        stream = [f"orig{i}" for i in range(len(n)) for _ in range(n[i])]
        stream += [f"adv{j}" for j in range(n_tot)]
        sk = DeterministicSpaceSaving.from_stream(stream, m, seed=0)
        # no original item survives: estimates are all 0
        for i in range(len(n)):
            assert sk.result().estimate(f"orig{i}") == 0
        # bins hold ~2 n_tot / m each
        for _, c in sk.result().estimates_dict().items():
            assert abs(c - 2 * n_tot / m) <= 1

    def test_unbiased_degrades_gracefully(self):
        # same adversarial stream: USS still has unbiased estimates, so
        # averaging over runs recovers the original counts approximately
        m = 10
        n = self._base_counts(m)
        n_tot = int(n.sum())
        stream = [f"orig{i}" for i in range(len(n)) for _ in range(n[i])]
        stream += [f"adv{j}" for j in range(n_tot)]
        reps = 600
        acc = 0.0
        for r in range(reps):
            sk = UnbiasedSpaceSaving.from_stream(stream, m, seed=r)
            acc += sk.result().subset_sum(lambda x: x.startswith("orig"))[0]
        mean = acc / reps
        # truth = n_tot; allow a generous 5-sigma Monte-Carlo band
        assert abs(mean - n_tot) < 0.25 * n_tot
