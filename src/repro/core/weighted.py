"""Weighted Unbiased Space Saving via the generalized reduction (sec 5.3).

Section 5.3 observes that the pairwise label randomization is a PPS
sample of the two smallest bins, and generalizes it: increment exactly,
then reduce with *any* unbiased sampling step (Theorem 2). Taking a
thresholded PPS sample over **all** m+1 bins gives three benefits the
paper lists: arbitrary real-valued weights, multi-bin reduction, and
less quadratic variation per step. The cost is real-valued counters and
an O(m) reduction per absent-item update: m+1 bins are reduced to m, so
``sum(pi) == m == n - 1`` and the sample drops exactly one bin, bin
``i`` with probability ``1 - pi_i``, drawn in closed form by
:func:`repro.sampling.pps.splitting_pps_sample`.

This class is the substrate for time-decayed aggregation
(:mod:`repro.core.decay`) and for signed/real-valued updates.
"""
from __future__ import annotations

from itertools import compress
from typing import Hashable, Iterable

import numpy as np

from repro.core.result import CountSketchResult
from repro.sampling.pps import splitting_pps_sample


class WeightedUnbiasedSpaceSaving:
    """m-bin unbiased sketch accepting arbitrary positive weights."""

    def __init__(self, m: int, *, seed: int | None = None):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = m
        self._rng = np.random.default_rng(seed)
        self._counts: dict = {}
        self._threshold = 0.0  # largest HT-adjusted non-certain bin so far
        self._t = 0.0

    def add(self, item: Hashable, weight: float = 1.0) -> None:
        """Add ``weight`` mass for ``item`` (unbiased after reduction)."""
        if weight < 0:
            raise ValueError("use signed=True paths for negative weights")
        self._t += weight
        counts = self._counts
        if item in counts:
            counts[item] += weight
            return
        counts[item] = weight
        if len(counts) <= self.m:
            return
        # reduce m+1 bins back to m with a fixed-size PPS sample + HT
        keys = list(counts)
        vals = np.fromiter(counts.values(), dtype=np.float64, count=len(keys))
        mask, pi = splitting_pps_sample(vals, self.m, self._rng)
        # a zero-weight bin (pi == 0) has no HT-adjusted size
        free = (pi > 0.0) & (pi < 1.0)
        if free.any():
            self._threshold = max(
                self._threshold, float(np.max(vals[free] / pi[free]))
            )
        self._counts = dict(
            zip(compress(keys, mask.tolist()), (vals[mask] / pi[mask]).tolist())
        )

    def update_many(
        self, items: Iterable[Hashable], weights: Iterable[float] | None = None
    ) -> None:
        """Add rows (unit weight when ``weights`` is None)."""
        if weights is None:
            for x in items:
                self.add(x, 1.0)
        else:
            for x, w in zip(items, weights):
                self.add(x, w)

    @property
    def t(self) -> float:
        """Total weight ingested."""
        return self._t

    def estimates(self) -> dict:
        """item -> unbiased weight estimate."""
        return dict(self._counts)

    def result(self) -> CountSketchResult:
        """Snapshot as a :class:`CountSketchResult`."""
        items = np.asarray(list(self._counts.keys()))
        est = np.asarray(list(self._counts.values()), dtype=np.float64)
        return CountSketchResult(items, est, self._threshold, self._t)
