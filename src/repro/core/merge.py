"""Merging Space Saving sketches (paper section 5.5, Theorem 2).

Theorem 2: any reduction whose post-reduction expected estimates equal
the pre-reduction estimates keeps the sketch unbiased, so one reduction
serves every merge. A merge is an exact union of per-item estimates
(sums by item) followed by :func:`reduce_counts`: zero estimates are
dropped and the rest go through priority sampling (Duffield, Lund &
Thorup 2007, :func:`~repro.sampling.priority.priority_sample`) with
HT-adjusted counts ``max(c_i, tau)`` (the paper's suggested swap-in for
the pairwise randomization). It keeps ``E[estimate]`` per item, not the
total: the sum of the estimates varies around ``t``.

:func:`merged_result` is the one merge rule, shared with the Spark
operator's final merge: the merged sketch reports the largest threshold
of its reduction and of its inputs, and the inputs' total mass.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np
import pandas as pd

from repro.core.result import CountSketchResult, item_array
from repro.sampling.priority import priority_sample


def sum_by_item(
    pairs: Iterable[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``(items, counts)`` array pairs by item, in first-seen item order.

    One vectorized union: the inputs are concatenated, factorized and
    summed by ``np.bincount``, which adds each item's counts in input
    order, as a loop would. Tuple keys, and keys of differing dtype kinds,
    are joined as objects, so that numpy never casts ints to strings or
    floats, and objects are matched by Python equality.
    """
    pairs = [(items, counts) for items, counts in pairs if len(items)]
    if not pairs:
        return item_array([]), np.zeros(0)
    keys = [items for items, _ in pairs]
    if len({k.dtype.kind for k in keys}) > 1:
        keys = [k.astype(object) for k in keys]
    keys = np.concatenate(keys)
    if keys.dtype == object:
        # by Python equality: pd.factorize would turn a None key into NaN
        index: dict = {}
        codes = np.fromiter(
            (index.setdefault(x, len(index)) for x in keys), np.intp, len(keys)
        )
        uniques = item_array(list(index))
    else:
        codes, uniques = pd.factorize(keys, use_na_sentinel=False)
        uniques = uniques.astype(keys.dtype)  # strings come back as objects
    sums = np.bincount(
        codes, weights=np.concatenate([c for _, c in pairs]), minlength=len(uniques)
    )
    return uniques, sums


#: an exact item -> count map grows to ``SPILL_FACTOR * m`` items before one
#: unbiased reduction to m: the Spark operator's partition buffer and the
#: weighted sketch's dict both spill at this cap
SPILL_FACTOR = 8


def reduce_counts(
    items: np.ndarray,
    counts: np.ndarray,
    m: int,
    rng: np.random.Generator,
) -> CountSketchResult:
    """Unbiasedly reduce (item, count) pairs to at most ``m`` bins by
    priority sampling.

    Zero counts are dropped first: their estimate is 0 either way. The
    others must be positive and finite and ``m`` at least 1, as
    :func:`priority_sample` checks.
    """
    counts = np.asarray(counts, dtype=np.float64)
    nz = counts != 0
    # through this module's binding, which a traced benchmark run patches
    return priority_sample(np.asarray(items)[nz], counts[nz], m, rng)


def merged_result(
    reduced: CountSketchResult, thresholds: Iterable[float], totals: Iterable[float]
) -> CountSketchResult:
    """The merge rule: ``reduced``, the reduction of the inputs' union,
    reported with ``threshold`` the largest of its own and every input's
    threshold and ``t`` the sum of the inputs' ``t``.

    An unreduced union keeps its inputs' sampling error, so it keeps their
    ``N_min``-analogue for eq. 5; and ``t`` is mass seen, which a reduction's
    estimates only match in expectation. A NaN threshold (an input with no
    ``N_min`` analogue, such as a reduced bottom-k sample) makes the merged
    threshold NaN: ``np.max`` propagates it, where ``max`` would drop it
    unless it came first.
    """
    thr = np.max([reduced.threshold, *thresholds])
    return CountSketchResult(
        reduced.items, reduced.estimates, float(thr), float(np.sum(list(totals)))
    )


def _as_result(sketch) -> CountSketchResult:
    """``sketch.result()``, or an ``item -> count`` mapping as an unreduced result."""
    if hasattr(sketch, "result"):
        return sketch.result()
    counts = np.fromiter(sketch.values(), dtype=np.float64, count=len(sketch))
    return CountSketchResult(item_array(list(sketch)), counts, 0.0, float(counts.sum()))


def merge_unbiased(
    sketches: Iterable,
    m: int,
    *,
    rng: np.random.Generator | None = None,
) -> CountSketchResult:
    """Merge sketches into one unbiased ``m``-bin summary (Theorem 2).

    Accepts raw ``item -> count`` mappings or anything with a
    ``.result()`` returning a :class:`CountSketchResult` (every sketch,
    and a prior merge result, which is its own result); estimates are
    summed exactly by item, reduced by :func:`reduce_counts` and reported
    by :func:`merged_result`.
    """
    rng = rng if rng is not None else np.random.default_rng()
    results = [_as_result(s) for s in sketches]
    items, counts = sum_by_item((r.items, r.estimates) for r in results)
    return merged_result(
        reduce_counts(items, counts, m, rng),
        [r.threshold for r in results],
        [r.t for r in results],
    )
