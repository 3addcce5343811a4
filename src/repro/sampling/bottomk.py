"""Bottom-k sketch: uniform item sampling (Cohen & Kaplan 2007).

The weakest baseline in the paper (Figure 4): items are sampled
*uniformly at random* regardless of their count, so skewed count
distributions are estimated orders of magnitude worse than by
PPS-like designs.

Each distinct item gets an independent ``u_i ~ Uniform(0,1)`` (a salted
hash, so the draw is consistent across a stream without coordination);
the k items with the smallest ``u_i`` are kept together with their
*exact* counts (a kept item has been tracked since its first occurrence
because the bottom-k membership threshold only decreases over a stream).
The subset-sum estimator divides by the pseudo-inclusion probability
``tau = u_(k+1)``: ``n_hat_S = sum_{i in sample, i in S} n_i / tau``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.result import item_array, member_mask


@dataclass(frozen=True)
class BottomKSample:
    """Kept items, their exact counts, and the threshold ``tau``."""

    items: np.ndarray
    counts: np.ndarray
    tau: float

    def subset_sum(self, member) -> float:
        """Estimate of ``sum_{i in S} n_i`` via the tau-adjusted HT form."""
        mask = member_mask(self.items, member)
        if self.tau <= 0:  # nothing was excluded: the sample is exact
            return float(self.counts[mask].sum())
        return float(self.counts[mask].sum() / self.tau)


def bottomk_from_counts(
    items: np.ndarray,
    counts: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> BottomKSample:
    """Draw the bottom-k sample from aggregated (item, count) pairs.

    The final state of the streaming sketch depends only on the per-item
    hash draws and exact counts, so sampling from aggregated pairs is
    distributionally identical to running over the disaggregated stream
    (the streaming path is exercised separately by
    :class:`StreamingBottomK`).
    """
    items = np.asarray(items)
    counts = np.asarray(counts, dtype=np.float64)
    n = len(items)
    if n <= k:
        return BottomKSample(items, counts, 0.0)
    u = rng.random(n)
    order = np.argpartition(u, k)[: k + 1]
    order = order[np.argsort(u[order])]
    keep = order[:k]
    tau = float(u[order[k]])
    return BottomKSample(items[keep], counts[keep], tau)


class StreamingBottomK:
    """Row-at-a-time bottom-k over a disaggregated stream.

    Maintains exact counters for the current bottom-k items. ``u_i`` is
    drawn lazily per distinct item from a seeded generator and cached,
    which emulates a salted uniform hash.
    """

    def __init__(self, k: int, *, seed: int | None = None):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._rng = np.random.default_rng(seed)
        self._u: dict = {}          # item -> uniform draw (all items seen)
        self._counts: dict = {}     # item -> exact count (bottom-k only)
        self._tau = 1.0             # (k+1)-th smallest u seen so far, else 1

    def _hash(self, item) -> float:
        u = self._u.get(item)
        if u is None:
            u = float(self._rng.random())
            self._u[item] = u
        return u

    def update(self, item) -> None:
        """Process one row for ``item``."""
        u = self._hash(item)
        if item in self._counts:
            self._counts[item] += 1
            return
        if len(self._counts) < self.k:
            self._counts[item] = 1
            return
        # full: item enters only if it beats the current maximum u
        worst = max(self._counts, key=lambda x: self._u[x])
        if u < self._u[worst]:
            self._tau = min(self._tau, self._u[worst])
            del self._counts[worst]
            self._counts[item] = 1
        else:
            self._tau = min(self._tau, u)

    def update_many(self, items) -> None:
        """Process rows in stream order."""
        for x in items:
            self.update(x)

    def result(self) -> BottomKSample:
        """Snapshot of the current bottom-k sample."""
        items = item_array(list(self._counts.keys()))
        counts = np.asarray(list(self._counts.values()), dtype=np.float64)
        tau = 0.0 if len(self._counts) < self.k else self._tau
        return BottomKSample(items, counts, tau)
