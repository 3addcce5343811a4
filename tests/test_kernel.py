"""Unit tests for the Space Saving kernel (Algorithm 1 mechanics)."""
import random
from collections import Counter

import numpy as np
import pytest

from repro.core.kernel import SpaceSavingKernel
from repro.core.space_saving import DeterministicSpaceSaving
from tests.exact import exact_state_distribution
from tests.misra_gries import misra_gries_view
from tests.test_exact_unbiasedness import STREAMS


def _kernel(m, unbiased, seed):
    """A kernel of either variant; ``unbiased`` is a class attribute."""
    return (SpaceSavingKernel if unbiased else DeterministicSpaceSaving)(m, seed=seed)


def _estimates(k):
    """item -> bin count, read straight from the kernel's state."""
    return {x: k.counts[b] for x, b in k.bin_of.items()}


class TestKernelBasics:
    def test_m_validation(self):
        with pytest.raises(ValueError):
            SpaceSavingKernel(0)

    def test_fill_phase_exact(self):
        k = SpaceSavingKernel(5, seed=0)
        k.update_many(["a", "b", "a", "c", "a", "b"])
        assert _estimates(k) == {"a": 3, "b": 2, "c": 1}
        assert k.t == 6
        assert k.n_min == 0  # sketch not full: no displacement happened

    def test_n_min_when_full(self):
        k = SpaceSavingKernel(2, seed=0)
        k.update_many(["a", "a", "b", "b", "b"])
        assert k.n_min == 2

    def test_mass_conservation_exact(self):
        rng = random.Random(2)
        for m in (1, 2, 5, 17):
            k = SpaceSavingKernel(m, seed=m)
            n = 500
            k.update_many(rng.randrange(40) for _ in range(n))
            assert k.total() == n == k.t

    def test_sketch_size_bounded(self):
        rng = random.Random(3)
        k = SpaceSavingKernel(7, seed=0)
        k.update_many(rng.randrange(1000) for _ in range(3000))
        assert len(k.item_of) == 7
        assert len(k.bin_of) == 7

    def test_absent_item_estimate_zero(self):
        k = SpaceSavingKernel(2, seed=0)
        k.update_many(["a", "b"])
        assert _estimates(k).get("zzz", 0) == 0

    def test_deterministic_always_replaces_label(self):
        # p=1: new item always takes over the min bin
        k = DeterministicSpaceSaving(2, seed=0)
        k.update_many(["a", "a", "b", "b", "c"])
        assert "c" in k.bin_of  # c must have displaced the min label
        assert _estimates(k).get("c", 0) == 3  # N_min+1 = 2+1

    def test_unbiased_sometimes_keeps_label(self):
        # with large counts the flip probability 1/(c+1) is small
        kept = 0
        for s in range(50):
            k = SpaceSavingKernel(2, seed=s)
            k.update_many(["a"] * 50 + ["b"] * 50 + ["c"])
            if "c" not in k.bin_of:
                kept += 1
        assert kept >= 40  # P(keep) = 50/51 each trial

    def test_seed_reproducibility(self):
        rng = random.Random(4)
        stream = [rng.randrange(30) for _ in range(800)]
        a = SpaceSavingKernel(5, seed=99)
        b = SpaceSavingKernel(5, seed=99)
        a.update_many(stream)
        b.update_many(stream)
        assert _estimates(a) == _estimates(b)

    def test_update_equals_update_many(self):
        rng = random.Random(5)
        stream = [rng.randrange(20) for _ in range(300)]
        a = SpaceSavingKernel(4, seed=7)
        b = SpaceSavingKernel(4, seed=7)
        for x in stream:
            a.update(x)
        b.update_many(stream)
        assert _estimates(a) == _estimates(b)

    def test_min_val_invariant(self):
        rng = random.Random(6)
        k = SpaceSavingKernel(6, seed=0)
        for i in range(2000):
            k.update(rng.randrange(100))
            if len(k.item_of) == k.m:
                assert k.n_min == min(k.counts) >= k.min_val

    @pytest.mark.parametrize("m", [1, 5])
    @pytest.mark.parametrize("unbiased", [True, False])
    def test_mins_holds_every_min_bin_once(self, m, unbiased):
        # once full, after every row every bin at min_val is in mins
        # exactly once and no count is below min_val: a uniform draw from
        # mins that rejects stale entries is a uniform bin at N_min
        rng = random.Random(7)
        k = _kernel(m, unbiased, 0)
        for _ in range(1000):
            k.update(rng.randrange(3 * m + 5))
            if len(k.item_of) == k.m:
                assert min(k.counts) >= k.min_val
                held = Counter(k.mins)
                assert all(
                    held[b] == 1 for b, c in enumerate(k.counts) if c == k.min_val
                )

    def test_queries_read_min_count_not_stale_min_val(self):
        # d displaces b or c at N_min = 1; hitting the survivor leaves
        # min_val = 1 with every bin at 2 or more
        k = DeterministicSpaceSaving(3, seed=0)
        k.update_many(list("aaabcd"))
        (survivor,) = {"b", "c"} & set(k.bin_of)
        assert k.item_of[k.mins[0]] == survivor
        k.update(survivor)
        assert k.min_val == 1 and k.n_min == min(k.counts) == 2
        assert k.result().threshold == 2
        assert misra_gries_view(k.result()) == {"a": 1}

    def test_single_bin(self):
        k = DeterministicSpaceSaving(1, seed=0)
        k.update_many(list("abcde"))
        assert k.total() == 5 and len(k.bin_of) == 1
        assert _estimates(k).get("e", 0) == 5  # det variant: last item holds all mass

    def test_frequent_item_nearly_exact_iid(self):
        # one heavy item (60%) in an i.i.d. stream: estimate within N_min
        rng = random.Random(8)
        stream = [0 if rng.random() < 0.6 else rng.randrange(1, 200) for _ in range(5000)]
        k = SpaceSavingKernel(20, seed=0)
        k.update_many(stream)
        true = stream.count(0)
        assert abs(_estimates(k).get(0, 0) - true) <= k.n_min

    @pytest.mark.parametrize("unbiased", [True, False])
    def test_chunked_update_many_matches_one_call(self, unbiased):
        m = 4
        rng = random.Random(9)
        stream = [rng.randrange(12) for _ in range(400)]
        whole = _kernel(m, unbiased, 3)
        min_vals = []
        for x in stream:
            whole.update(x)
            min_vals.append(whole.min_val)
        distinct = list(dict.fromkeys(stream))
        fill_end = stream.index(distinct[m - 1]) + 1  # row that fills the sketch
        # a row that raises min_val: split just before and just after it
        rise = next(i for i in range(fill_end + 1, len(stream)) if min_vals[i] > min_vals[i - 1])
        splits = sorted({fill_end - 1, fill_end, rise, rise + 1, 150, 300})

        chunked = _kernel(m, unbiased, 3)
        for lo, hi in zip([0] + splits, splits + [len(stream)]):
            chunked.update_many(stream[lo:hi])
        one = _kernel(m, unbiased, 3)
        one.update_many(stream)
        for k in (chunked, whole):
            assert k.item_of == one.item_of and k.counts == one.counts
            assert k.bin_of == one.bin_of and k.t == one.t
            assert k.min_val == one.min_val and k.mins == one.mins
            assert k.rng.getstate() == one.rng.getstate()


class TestKernelSamplesAlgorithm1:
    """The kernel's final-state frequencies against exact enumeration."""

    SEEDS = 20_000

    @pytest.mark.parametrize("stream,m", STREAMS)
    @pytest.mark.parametrize("unbiased", [True, False])
    def test_state_frequencies_match_exact_distribution(self, stream, m, unbiased):
        exact = {
            frozenset(state): float(p)
            for state, p in exact_state_distribution(stream, m, unbiased=unbiased).items()
        }
        seen = Counter()
        for seed in range(self.SEEDS):
            k = _kernel(m, unbiased, seed)
            k.update_many(stream)
            seen[frozenset(_estimates(k).items())] += 1
        assert set(seen) <= set(exact)
        for state, p in exact.items():
            se = (p * (1 - p) / self.SEEDS) ** 0.5
            assert abs(seen[state] / self.SEEDS - p) <= 4.5 * se, (sorted(state), p)
