"""Shared result container for merged / distributed count sketches.

A reduced sketch is a set of (item, adjusted-count) pairs plus the
reduction threshold. The threshold plays the role of ``N_min`` in the
paper's variance estimator (eq. 5): an item absent from the sketch has
estimated count 0 and items near the threshold carry variance of order
``threshold**2`` each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.space_saving import _z_value, subset_sum_variance


@dataclass(frozen=True)
class CountSketchResult:
    """Items with (possibly HT-adjusted) count estimates.

    Attributes
    ----------
    items: item identifiers (<= m of them)
    estimates: unbiased count estimates per item
    threshold: reduction threshold (0 when no reduction happened);
        the ``N_min``-analogue used for variance estimation
    t: total mass the sketch summarizes (sum of pre-reduction counts)
    """

    items: np.ndarray
    estimates: np.ndarray
    threshold: float
    t: float

    def __len__(self) -> int:
        return len(self.items)

    def estimates_dict(self) -> dict:
        """item -> estimate mapping."""
        return dict(zip(self.items.tolist(), self.estimates.tolist()))

    def estimate(self, item) -> float:
        """Estimate for one item (0 when absent)."""
        hits = self.estimates[self.items == item]
        return float(hits[0]) if len(hits) else 0.0

    def frequent_items(self, k: int | None = None) -> list[tuple]:
        """Top-k (item, estimate) pairs by estimate."""
        order = np.argsort(-self.estimates)
        if k is not None:
            order = order[:k]
        return list(zip(self.items[order].tolist(), self.estimates[order].tolist()))

    def to_pandas(self) -> pd.DataFrame:
        """Two-column frame ``[item, estimate]``."""
        return pd.DataFrame({"item": self.items, "estimate": self.estimates})

    def _member_mask(self, member) -> np.ndarray:
        if callable(member):
            return np.fromiter(
                (member(x) for x in self.items), dtype=bool, count=len(self.items)
            )
        s = set(member)
        return np.fromiter(
            (x in s for x in self.items), dtype=bool, count=len(self.items)
        )

    def subset_sum(self, member) -> tuple[float, int]:
        """``(N_hat_S, C_S)`` — estimate and number of sketch items in S."""
        mask = self._member_mask(member)
        return float(self.estimates[mask].sum()), int(mask.sum())

    def subset_sum_ci(
        self, member, *, level: float = 0.95
    ) -> tuple[float, float, float, float]:
        """Subset sum with eq.-5 variance and a Normal confidence interval.

        Returns ``(estimate, variance_hat, lo, hi)``.
        """
        est, c_s = self.subset_sum(member)
        var = subset_sum_variance(self.threshold, c_s)
        z = _z_value(level)
        sd = math.sqrt(var)
        return est, var, est - z * sd, est + z * sd
