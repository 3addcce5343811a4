"""Property-based tests (hypothesis) over arbitrary streams."""
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.space_saving import (
    DeterministicSpaceSaving,
    UnbiasedSpaceSaving,
)
from tests.misra_gries import MisraGries, misra_gries_view

streams = st.lists(st.integers(min_value=0, max_value=20), min_size=0, max_size=300)
ms = st.integers(min_value=1, max_value=8)
seeds = st.integers(min_value=0, max_value=2**31)


@settings(max_examples=80, deadline=None)
@given(streams, ms, seeds)
def test_mass_conservation_unbiased(stream, m, seed):
    sk = UnbiasedSpaceSaving.from_stream(stream, m, seed=seed)
    assert sk.total() == len(stream)


@settings(max_examples=80, deadline=None)
@given(streams, ms, seeds)
def test_mass_conservation_deterministic(stream, m, seed):
    sk = DeterministicSpaceSaving.from_stream(stream, m, seed=seed)
    assert sk.total() == len(stream)


@settings(max_examples=80, deadline=None)
@given(streams, ms, seeds)
def test_size_bound(stream, m, seed):
    sk = UnbiasedSpaceSaving.from_stream(stream, m, seed=seed)
    assert len(sk) <= m
    assert len(sk) == min(m, len(set(stream)))


@settings(max_examples=80, deadline=None)
@given(streams, ms, seeds)
def test_counts_positive_and_bounded(stream, m, seed):
    sk = UnbiasedSpaceSaving.from_stream(stream, m, seed=seed)
    for _, c in sk.result().estimates_dict().items():
        assert 0 < c <= len(stream)


@settings(max_examples=80, deadline=None)
@given(streams, seeds)
def test_exact_when_capacity_sufficient(stream, seed):
    m = len(set(stream)) + 1
    sk = UnbiasedSpaceSaving.from_stream(stream, m, seed=seed)
    truth = {x: stream.count(x) for x in set(stream)}
    assert sk.result().estimates_dict() == truth


@settings(max_examples=80, deadline=None)
@given(streams, ms, seeds)
def test_deterministic_error_bound(stream, m, seed):
    sk = DeterministicSpaceSaving.from_stream(stream, m, seed=seed)
    for x in set(stream):
        assert abs(sk.result().estimate(x) - stream.count(x)) <= len(stream) / m


@settings(max_examples=50, deadline=None)
@given(streams, ms, seeds)
def test_misra_gries_isomorphism_property(stream, m, seed):
    mg = MisraGries(m)
    mg.update_many(stream)
    ss = DeterministicSpaceSaving.from_stream(stream, m + 1, seed=seed)
    assert mg.estimates() == misra_gries_view(ss.result())
    assert mg.decrements == ss.n_min
