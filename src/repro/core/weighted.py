"""Weighted Unbiased Space Saving via the generalized reduction (sec 5.3).

Section 5.3 observes that the pairwise label randomization is a PPS
sample of the two smallest bins, and generalizes it: increment exactly,
then reduce with *any* unbiased sampling step (Theorem 2). Taking a
thresholded PPS sample over **all** m+1 bins gives three benefits the
paper lists: arbitrary real-valued weights, multi-bin reduction, and
less quadratic variation per step. m+1 bins are reduced to m, so
``sum(pi) == m == n - 1`` and the sample drops exactly one bin, bin
``i`` with probability ``1 - pi_i`` (the closed form of
:func:`repro.sampling.pps.splitting_pps_sample`).

After such a reduction every surviving unpinned bin holds the same
Horvitz-Thompson value ``tau = 1/alpha`` and every pinned bin holds at
least ``tau``. The sketch keeps that structure implicitly:

* the *floor*, a :class:`~repro.core.kernel.RandomBag` of the bins whose
  value is exactly ``tau`` (stored once);
* the *above* bins, a dict of exact values for every other bin;
* a min-heap of lower bounds on the above values. A hit raises a value
  without touching the heap; a stale entry is re-pushed with the
  current value when it reaches the top.

A reduction walks the units in ascending order, the whole floor block
first and then heap pops, until the first unit that the PPS design
pins. The units taken so far are the unpinned ones: one is dropped, and
the survivors join the floor at the new, larger ``tau``. Each unit is
absorbed at most once after it left the floor (by a hit), so a
reduction costs O(log m) amortized instead of O(m).

This class is the substrate for time-decayed aggregation
(:mod:`repro.core.decay`). Weights are real and non-negative: a null,
negative, NaN or infinite weight raises ``ValueError``.
"""
from __future__ import annotations

import heapq
import random
from itertools import count
from math import inf
from typing import Hashable, Iterable

import numpy as np

from repro.core.kernel import RandomBag
from repro.core.result import CountSketchResult, item_array
# unused here, but `ussbench/run.py --trace 1` patches it on this module
from repro.sampling.pps import splitting_pps_sample  # noqa: F401


class WeightedUnbiasedSpaceSaving:
    """m-bin unbiased sketch accepting arbitrary non-negative weights.

    A zero-weight row for an absent item is a no-op: its bin would be
    dropped with probability 1 by the next reduction.
    """

    def __init__(self, m: int, *, seed: int | None = None):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = m
        self._rng = random.Random(seed)
        self._floor = RandomBag()  # bins whose value is exactly tau
        self._tau = 0.0  # never decreases: also the reported threshold
        self._above: dict = {}  # item -> exact value, for every other bin
        self._heap: list = []  # (lower bound, seq, item), one per above bin
        self._seq = count()
        self._t = 0.0

    def add(self, item: Hashable, weight: float = 1.0) -> None:
        """Add ``weight`` mass for ``item`` (unbiased after reduction)."""
        if weight is None or not 0.0 <= weight < inf:
            raise ValueError(f"weight must be finite and non-negative, got {weight!r}")
        self._t += weight
        above = self._above
        if item in above:
            above[item] += weight
            return
        if not weight:
            return
        floor = self._floor
        if item in floor:
            floor.discard(item)
            weight += self._tau
        above[item] = weight
        heapq.heappush(self._heap, (weight, next(self._seq), item))
        if len(above) + len(floor) > self.m:
            self._reduce()

    def _reduce(self) -> None:
        """Drop one of the m+1 bins with probability ``1 - pi_i``."""
        above, heap, floor, tau = self._above, self._heap, self._floor, self._tau
        # walk the units in ascending order: the floor block (never
        # pinned), then heap pops until the first unit v with
        # v * (c - 1) >= S over the c units up to it (sum S); this is
        # thresholded_pps_probs' pinning rule for k = n - 1
        c = len(floor)
        s = c * tau
        taken = []
        while heap:
            key, _, x = heap[0]
            v = above[x]
            if key < v:  # stale: a hit raised the value
                heapq.heapreplace(heap, (v, next(self._seq), x))
            elif v * c >= s + v:
                break
            else:
                heapq.heappop(heap)
                taken.append((x, v))
                c += 1
                s += v
        if c < 2:
            # the one unpinned unit is negligible next to the smallest
            # pinned one (v * 0 >= s in floating point): pi == 0
            if taken:
                del above[taken[0][0]]
            else:
                floor.discard(floor[0])
            return
        new_tau = s / (c - 1)
        # one uniform draw picks the dropped unit, unit i with
        # probability 1 - v_i / new_tau (these sum to one); a draw in
        # the floor's share picks a floor bin uniformly
        u = self._rng.random()
        per_floor = 1.0 - tau / new_tau
        floor_share = per_floor * len(floor)
        victim = None
        if u >= floor_share and taken:
            u -= floor_share
            for x, v in taken:
                victim = x
                u -= 1.0 - v / new_tau
                if u < 0.0:
                    break  # else rounding: the last unit is dropped
        if victim is None:
            floor.discard(floor[min(int(u / per_floor), len(floor) - 1)])
        for x, _ in taken:
            del above[x]
            if x is not victim:
                floor.add(x)
        self._tau = new_tau

    def _scale(self, f: float) -> None:
        """Multiply every value, ``t`` and ``tau`` by ``f >= 0``.

        One factor keeps every estimate unbiased and the heap in order.
        Bins whose value underflows to zero carry no mass and are
        removed.
        """
        self._t *= f
        self._tau *= f
        if not self._tau:
            self._floor = RandomBag()
        above = self._above
        for x in above:
            above[x] *= f
        heap = []
        for key, seq, x in self._heap:
            if above[x]:
                heap.append((key * f, seq, x))
            else:
                del above[x]
        heapq.heapify(heap)
        self._heap = heap

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
        est = dict.fromkeys(self._floor, self._tau)
        est.update(self._above)
        return est

    def result(self) -> CountSketchResult:
        """Snapshot as a :class:`CountSketchResult`."""
        est = self.estimates()
        items = item_array(list(est.keys()))
        vals = np.asarray(list(est.values()), dtype=np.float64)
        return CountSketchResult(items, vals, self._tau, self._t)
