"""Adaptive sample-and-hold (Cohen et al. 2007), unbiased variant (sec 5.4).

The prior state of the art for the disaggregated subset sum problem.
A row for a tracked item increments its exact counter. A row for an
untracked item starts a counter with probability ``p`` (the current
sampling rate). When more than ``m`` items are tracked, the rate is cut
to ``p' = beta * p`` and every counter is resampled: kept unchanged
with probability ``p'/p``, otherwise reduced by a Geometric(p') draw
(support 1, 2, ...) and dropped if it falls to zero or below. This is
the unbiased reduction the paper describes; the per-item estimate adds
back the mean ``(1-p)/p`` of the geometric waiting time:
``N_hat_i = c_i + (1-p)/p`` for tracked items, 0 otherwise.

Section 5.4's point, verified in tests: one reduction step injects
Geometric-noise of variance ``(1-p')/p'**2`` into *every* bin, so the
sketch is strictly noisier than Unbiased Space Saving, whose updates
are bounded by 1 away from the minimum bin.
"""
from __future__ import annotations

import random
from typing import Hashable, Iterable

from repro.core.result import membership


class AdaptiveSampleAndHold:
    """m-item adaptive sample-and-hold with unbiased estimates."""

    def __init__(
        self,
        m: int,
        *,
        beta: float = 0.9,
        seed: int | None = None,
    ):
        if m < 1:
            raise ValueError("m must be >= 1")
        if not 0 < beta < 1:
            raise ValueError("beta must be in (0,1)")
        self.m = m
        self.beta = beta
        self.p = 1.0
        self.rng = random.Random(seed)
        self.counters: dict = {}
        self.t = 0

    def _geometric(self, p: float) -> int:
        # inverse-CDF geometric on {1, 2, ...}
        import math

        u = self.rng.random()
        return max(1, int(math.ceil(math.log(1.0 - u) / math.log(1.0 - p))))

    def _resample(self) -> None:
        """Cut the rate until at most m items remain (unbiased reduction)."""
        while len(self.counters) > self.m:
            p_new = self.p * self.beta
            ratio = p_new / self.p
            rng = self.rng
            survivors: dict = {}
            for x, c in self.counters.items():
                if rng.random() < ratio:
                    survivors[x] = c
                else:
                    c2 = c - self._geometric(p_new)
                    if c2 > 0:
                        survivors[x] = c2
            self.counters = survivors
            self.p = p_new

    def update(self, item: Hashable) -> None:
        """Process one row for ``item``."""
        self.t += 1
        c = self.counters
        if item in c:
            c[item] += 1
            return
        if self.rng.random() < self.p:
            c[item] = 1
            if len(c) > self.m:
                self._resample()

    def update_many(self, items: Iterable[Hashable]) -> None:
        """Process rows in stream order."""
        for x in items:
            self.update(x)

    def estimate(self, item: Hashable) -> float:
        """Unbiased count estimate (0 when untracked)."""
        c = self.counters.get(item)
        return 0.0 if c is None else c + (1.0 - self.p) / self.p

    def estimates(self) -> dict:
        """item -> unbiased count estimate for all tracked items."""
        adj = (1.0 - self.p) / self.p
        return {x: c + adj for x, c in self.counters.items()}

    def subset_sum(self, member) -> float:
        """Unbiased estimate of the subset sum over tracked items."""
        test = membership(member)
        return sum(v for x, v in self.estimates().items() if test(x))
