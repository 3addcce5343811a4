"""Weighted Unbiased Space Saving via the generalized reduction (sec 5.3).

Section 5.3 generalizes the pairwise label randomization of Algorithm 1:
increment exactly, then reduce with *any* unbiased sampling step
(Theorem 2). This sketch does both in batches, as the Spark operator's
partition buffer does. It keeps one exact item -> value dict, and once
the dict holds more than ``SPILL_FACTOR * m`` items it reduces it to m
items with one fixed-size thresholded PPS sample
(:func:`repro.sampling.pps.splitting_pps_sample`, the ordered pivotal
method of Deville & Tille 1998). The paper lists what PPS brings:
arbitrary real-valued weights, a multi-bin reduction and less quadratic
variation per step.

A reduction pins the heaviest items (``pi == 1``); they keep their
values. Every other kept item takes its Horvitz-Thompson value
``c / pi = 1 / alpha``, one value for all of them. Exactly ``m - j`` of
them are kept when ``j`` are pinned, so they hold ``(m - j) / alpha``,
the unpinned mass: every reduction conserves the total. ``threshold`` is
the largest ``1 / alpha`` of any reduction, the ``N_min`` analogue of
eq. 5. ``estimates()`` and ``result()`` reduce in place to at most m
items first, so between queries the sketch holds up to ``SPILL_FACTOR *
m`` items and a query sees at most m.

This class is the substrate for time-decayed aggregation
(:mod:`repro.core.decay`). Weights are real and non-negative: a null,
negative, NaN or infinite weight raises ``ValueError``.
"""
from __future__ import annotations

from math import inf
from typing import Hashable, Iterable

import numpy as np

from repro.core.result import CountSketchResult, item_array
from repro.sampling.pps import splitting_pps_sample

#: the dict grows to ``SPILL_FACTOR * m`` items before one reduction to m;
#: the same factor as ``spark_sketch.sketch_dataframe``'s ``spill_factor``
SPILL_FACTOR = 8


def check_weight(weight) -> None:
    """Raise ``ValueError`` unless ``weight`` is finite and non-negative."""
    if weight is None or not 0.0 <= weight < inf:
        raise ValueError(f"weight must be finite and non-negative, got {weight!r}")


class WeightedUnbiasedSpaceSaving:
    """m-bin unbiased sketch accepting arbitrary non-negative weights.

    A zero-weight row for an absent item is a no-op: its bin would be
    dropped with probability 1 by the next reduction.
    """

    def __init__(self, m: int, *, seed: int | None = None):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = m
        self._cap = SPILL_FACTOR * m
        self._rng = np.random.default_rng(seed)
        self._values: dict = {}  # item -> exact or HT value, all positive
        self._threshold = 0.0
        self._t = 0.0

    def add(self, item: Hashable, weight: float = 1.0) -> None:
        """Add ``weight`` mass for ``item`` (unbiased after reduction)."""
        check_weight(weight)
        self._t += weight
        values = self._values
        if item in values:
            values[item] += weight
        elif weight:
            values[item] = weight
            if len(values) > self._cap:
                self._reduce()

    def _reduce(self) -> None:
        """Reduce the dict to at most m items with one PPS sample."""
        values = self._values
        if len(values) <= self.m:
            return
        keys = list(values)
        w = np.fromiter(values.values(), dtype=np.float64, count=len(keys))
        mask, pi = splitting_pps_sample(w, self.m, self._rng)
        unpinned = pi < 1.0
        n_free = self.m - (len(w) - int(np.count_nonzero(unpinned)))
        # with every slot pinned, the unpinned units are negligible next
        # to the pinned ones (pi == 0 in floating point) and all dropped
        tau = w[unpinned].sum() / n_free if n_free else 0.0
        self._threshold = max(self._threshold, tau)
        self._values = {
            keys[i]: tau if free else values[keys[i]]
            for i, free in zip(np.flatnonzero(mask).tolist(), unpinned[mask].tolist())
        }

    def _scale(self, f: float) -> None:
        """Multiply every value, ``t`` and the threshold by ``f >= 0``.

        One factor keeps every estimate unbiased. Items whose value
        underflows to zero carry no mass and are removed.
        """
        self._t *= f
        self._threshold *= f
        self._values = {x: s for x, v in self._values.items() if (s := v * f)}

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
        """item -> unbiased weight estimate, after a reduction to <= m items."""
        self._reduce()
        return dict(self._values)

    def result(self) -> CountSketchResult:
        """Snapshot as a :class:`CountSketchResult`, after a reduction to <= m."""
        self._reduce()
        est = self._values
        items = item_array(list(est))
        vals = np.fromiter(est.values(), dtype=np.float64, count=len(est))
        return CountSketchResult(items, vals, self._threshold, self._t)
