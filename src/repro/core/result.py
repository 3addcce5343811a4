"""The one query type of every count sketch (paper secs 5.5, 6.4).

A sketch, a reduced sketch or a merge is a set of (item, unbiased
estimate) pairs plus a threshold. The threshold plays the role of
``N_min`` in the paper's variance estimator (eq. 5): an item absent
from the sketch has estimated count 0 and items near the threshold
carry variance of order ``threshold**2`` each. Theorem 2 makes any
unbiased reduction or merge of such a set another such set.

The queries live here and only here: per-item estimates, subset sums,
eq.-5 confidence intervals, top-k and frames. Every sketch answers them
only through its ``.result()`` —
:class:`~repro.core.space_saving.SpaceSaving`, the weighted and
forward-decay sketches — and the merges in
:mod:`repro.core.merge` and the baselines' samples
(:func:`~repro.sampling.priority.priority_sample`,
:func:`~repro.sampling.bottomk.bottomk_from_counts`) return a
:class:`CountSketchResult`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pandas as pd

from repro.core.variance import normal_ci, subset_sum_variance


def item_array(items: list) -> np.ndarray:
    """Items as a 1-D array of the keys themselves.

    Keys of one scalar type get numpy's dtype for it. Tuple (composite)
    and mixed keys get object dtype: ``np.asarray`` would turn
    equal-length tuples into a 2-D array and mixed ints and strings into
    strings.
    """
    kinds = set(map(type, items))
    if len(kinds) == 1 and issubclass(kinds.pop(), (int, float, str, np.generic)):
        return np.asarray(items)
    return np.fromiter(items, dtype=object, count=len(items))


@dataclass(frozen=True)
class CountSketchResult:
    """Items with (possibly HT-adjusted) count estimates.

    Attributes
    ----------
    items: item identifiers (<= m of them)
    estimates: unbiased count estimates per item
    threshold: reduction threshold (0 when no reduction happened);
        the ``N_min``-analogue used for variance estimation. NaN when the
        sample has no such analogue (a reduced bottom-k sample), so its
        eq.-5 variance and interval are NaN
    t: total mass the sketch summarizes (sum of pre-reduction counts)

    ``member`` arguments are a set (or any collection) of items or a
    predicate over items.
    """

    items: np.ndarray
    estimates: np.ndarray
    threshold: float
    t: float

    def __len__(self) -> int:
        return len(self.items)

    @cached_property
    def _by_item(self) -> dict:
        return dict(zip(self.items.tolist(), self.estimates.tolist()))

    def result(self) -> CountSketchResult:
        """A result is its own result (see :func:`repro.core.merge.merge_unbiased`)."""
        return self

    def estimates_dict(self) -> dict:
        """item -> estimate mapping."""
        return dict(self._by_item)

    def estimate(self, item) -> float:
        """Estimate for one item (0 when absent)."""
        return float(self._by_item.get(item, 0.0))

    def frequent_items(self, k: int | None = None) -> list[tuple]:
        """Top-``k`` (item, estimate) pairs by estimate (all when ``k`` is None)."""
        top = sorted(self._by_item.items(), key=lambda kv: -kv[1])
        return top if k is None else top[:k]

    def to_pandas(self) -> pd.DataFrame:
        """Two-column frame ``[item, estimate]``."""
        return pd.DataFrame({"item": self.items, "estimate": self.estimates})

    def subset_sum(self, member) -> tuple[float, int]:
        """``(N_hat_S, C_S)`` — estimate and number of sketch items in S.

        ``C_S`` feeds the variance estimator (eqs. 4-5 of the paper).
        """
        held = self._by_item.items()
        if callable(member):
            kept = [v for x, v in held if member(x)]
        else:
            if not isinstance(member, (set, frozenset)):
                member = set(member)
            kept = [v for x, v in held if x in member]
        s = 0
        for v in kept:  # in the dict's order, so sums repeat bit for bit
            s += v
        return float(s), len(kept)

    def subset_sum_ci(
        self, member, *, level: float = 0.95
    ) -> tuple[float, float, float, float]:
        """Subset sum with eq.-5 variance and a Normal confidence interval.

        Returns ``(estimate, variance_hat, lo, hi)`` where
        ``variance_hat = threshold**2 * max(C_S, 1)`` and the interval is
        ``estimate +/- z * sqrt(variance_hat)`` (secs 6.4-6.5).
        """
        return self.subset_sum_stats(member, level=level)[:4]

    def subset_sum_stats(
        self, member, *, level: float = 0.95
    ) -> tuple[float, float, float, float, int]:
        """:meth:`subset_sum_ci`'s four values and then ``C_S``, from one
        scan of the items."""
        est, c_s = self.subset_sum(member)
        var = subset_sum_variance(self.threshold, c_s)
        lo, hi = normal_ci(est, var, level=level)
        return est, var, lo, hi, c_s
