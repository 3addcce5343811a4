"""Misra-Gries sketch and the sec 5.2 isomorphism with Space Saving."""
import random

import pytest

from repro.core.space_saving import DeterministicSpaceSaving
from tests.misra_gries import MisraGries, misra_gries_view


def _stream(seed, n=2000, n_items=200):
    rng = random.Random(seed)
    return [rng.randrange(n_items) for _ in range(n)]


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            MisraGries(0)

    def test_counter_bound(self):
        mg = MisraGries(5)
        mg.update_many(_stream(0))
        assert len(mg.counters) <= 5

    def test_underestimates(self):
        stream = _stream(1)
        mg = MisraGries(20)
        mg.update_many(stream)
        truth = {x: stream.count(x) for x in set(stream)}
        for x, c in mg.counters.items():
            assert 0 < c <= truth[x]

    def test_error_bound(self):
        stream = _stream(2)
        m = 25
        mg = MisraGries(m)
        mg.update_many(stream)
        truth = {x: stream.count(x) for x in set(stream)}
        for x, n_x in truth.items():
            assert n_x - mg.estimate(x) <= mg.error_bound()

    def test_exact_when_few_items(self):
        mg = MisraGries(10)
        mg.update_many(list("aabbbcc"))
        assert mg.estimates() == {"a": 2, "b": 3, "c": 2}
        assert mg.decrements == 0


class TestIsomorphism:
    """MG with m counters == Det Space Saving with m+1 bins (sec 5.2)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_estimates_match_soft_threshold_view(self, seed):
        rng = random.Random(seed)
        stream = [rng.randrange(1, 12) for _ in range(rng.randrange(20, 200))]
        m = rng.randrange(1, 6)
        mg = MisraGries(m)
        mg.update_many(stream)
        ss = DeterministicSpaceSaving.from_stream(stream, m + 1, seed=seed)
        assert mg.estimates() == misra_gries_view(ss.result())

    @pytest.mark.parametrize("seed", range(8))
    def test_decrements_equal_min_bin(self, seed):
        rng = random.Random(100 + seed)
        stream = [rng.randrange(1, 12) for _ in range(rng.randrange(20, 200))]
        m = rng.randrange(1, 6)
        mg = MisraGries(m)
        mg.update_many(stream)
        ss = DeterministicSpaceSaving.from_stream(stream, m + 1, seed=seed)
        assert mg.decrements == ss.n_min

    def test_space_saving_view_roundtrip(self):
        stream = _stream(5, n=500, n_items=30)
        mg = MisraGries(8)
        mg.update_many(stream)
        ss_view = mg.space_saving_view()
        for x, c in mg.counters.items():
            assert ss_view[x] == c + mg.decrements
