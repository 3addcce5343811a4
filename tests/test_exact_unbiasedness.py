"""Exact-enumeration verification of Theorems 1 and the paper's examples.

These tests enumerate every randomization path of Algorithm 1 with
rational probabilities, so unbiasedness is checked *exactly* — no
Monte-Carlo tolerance.
"""
from fractions import Fraction

import pytest

from tests.exact import (
    exact_expected_estimates,
    exact_inclusion_probabilities,
    exact_state_distribution,
)

STREAMS = [
    (list("abcab"), 2),
    (list("aabbbcdc"), 2),
    (list("abcdefg"), 3),
    (list("aaabbbccc"), 2),
    (list("abacabad"), 3),
    ([1, 2, 3, 1, 2, 3, 4], 2),
    (list("zzzzy"), 1),
    (list("abab") * 2, 1),
    # draws from a candidate list that holds stale and valid bins at once
    (list("abcdaeb"), 3),
    (list("abcdeaf"), 4),
]


class TestTheorem1:
    @pytest.mark.parametrize("stream,m", STREAMS)
    def test_unbiased_exactly(self, stream, m):
        exp = exact_expected_estimates(stream, m, unbiased=True)
        for x in set(stream):
            assert exp[x] == Fraction(stream.count(x)), (x, exp[x])

    @pytest.mark.parametrize("stream,m", STREAMS)
    def test_probabilities_sum_to_one(self, stream, m):
        dist = exact_state_distribution(stream, m, unbiased=True)
        assert sum(dist.values()) == Fraction(1)

    @pytest.mark.parametrize("stream,m", STREAMS)
    def test_mass_conserved_in_every_state(self, stream, m):
        dist = exact_state_distribution(stream, m, unbiased=True)
        for state in dist:
            assert sum(c for _, c in state) == len(stream)

    def test_deterministic_is_biased(self):
        # det Space Saving overestimates the last-arriving rare items
        exp = exact_expected_estimates(list("11223"), 2, unbiased=False)
        assert exp["3"] > Fraction(1)  # '3' occurred once but holds more

    @pytest.mark.parametrize("stream,m", STREAMS)
    def test_inclusion_probs_sum_to_sketch_size(self, stream, m):
        inc = exact_inclusion_probabilities(stream, m, unbiased=True)
        expected_bins = min(m, len(set(stream)))
        assert sum(inc.values()) == Fraction(expected_bins)


class TestPaperSection63Example:
    """The c 1's, c 2's, then 3 and 4 example with 2 bins (sec 6.3)."""

    C = 6

    def _stream(self):
        c = self.C
        return ["1"] * c + ["2"] * c + ["3", "4"]

    def test_deterministic_returns_3_and_4(self):
        dist = exact_state_distribution(self._stream(), 2, unbiased=False)
        assert len(dist) == 1
        (state,) = dist
        assert {it for it, _ in state} == {"3", "4"}
        assert {c for _, c in state} == {self.C + 1}

    def test_unbiased_keeps_1_and_2_with_prob_c_over_c_plus_1_squared(self):
        dist = exact_state_distribution(self._stream(), 2, unbiased=True)
        p_keep = sum(
            p for state, p in dist.items()
            if {it for it, _ in state} == {"1", "2"}
        )
        c = self.C
        assert p_keep == Fraction(c, c + 1) ** 2

    def test_unbiased_estimates_still_exact(self):
        exp = exact_expected_estimates(self._stream(), 2, unbiased=True)
        c = self.C
        assert exp["1"] == c and exp["2"] == c
        assert exp["3"] == 1 and exp["4"] == 1


class TestAllDistinctPathology:
    """Every row unique: det sketch is just the last m items (sec 6.3)."""

    def test_deterministic_keeps_last_items_only(self):
        stream = list("abcdefgh")
        dist = exact_state_distribution(stream, 2, unbiased=False)
        for state, p in dist.items():
            labels = {it for it, _ in state}
            # the most recent item is always present under p=1
            assert "h" in labels

    def test_unbiased_still_unbiased(self):
        stream = list("abcdefgh")
        exp = exact_expected_estimates(stream, 2, unbiased=True)
        for x in stream:
            assert exp[x] == Fraction(1)
