"""Misra-Gries frequent item sketch (Misra & Gries 1982).

Maintains at most ``m`` counters. A row for a tracked item increments
its counter; a row for an untracked item either claims a free counter
or decrements *all* counters (dropping zeros). Deterministic guarantee:
``n_i - n_tot/ (m+1) <= N_hat_i <= n_i`` (we use the common
``n_tot/m`` bound the paper quotes, which is implied).

Section 5.2 isomorphism: with ``D`` the total number of decrement
rounds, a Deterministic Space Saving sketch on the same stream with the
same tie-breaking satisfies ``N_hat_i^SS = N_hat_i^MG + D`` for stored
items and ``D == N_min^SS``; tests verify the relationship, comparing
:class:`MisraGries` with :func:`misra_gries_view` of the Space Saving
sketch's result.
"""
from __future__ import annotations

from typing import Hashable, Iterable

from repro.core.result import CountSketchResult


def misra_gries_view(res: CountSketchResult) -> dict:
    """The isomorphic Misra-Gries estimates ``(c - threshold)_+``.

    Section 5.2: Deterministic Space Saving and Misra-Gries differ only
    by the additive ``N_min``, a Space Saving result's threshold;
    soft-thresholding recovers the Misra-Gries counters (zeros dropped).
    """
    thr = res.threshold
    return {x: c - thr for x, c in res.estimates_dict().items() if c > thr}


class MisraGries:
    """m-counter Misra-Gries sketch with decrement bookkeeping."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = m
        self.counters: dict = {}
        self.decrements = 0  # number of decrement rounds performed
        self.t = 0

    def update(self, item: Hashable) -> None:
        """Process one row for ``item``."""
        c = self.counters
        self.t += 1
        if item in c:
            c[item] += 1
        elif len(c) < self.m:
            c[item] = 1
        else:
            self.decrements += 1
            dead = []
            for x in c:
                c[x] -= 1
                if c[x] == 0:
                    dead.append(x)
            for x in dead:
                del c[x]

    def update_many(self, items: Iterable[Hashable]) -> None:
        """Process rows in stream order."""
        for x in items:
            self.update(x)

    def estimate(self, item: Hashable) -> int:
        """Lower-bound estimate (0 if untracked)."""
        return self.counters.get(item, 0)

    def estimates(self) -> dict:
        """item -> counter for all tracked items."""
        return dict(self.counters)

    def space_saving_view(self) -> dict:
        """Add back the decrement total to every non-zero counter.

        Recovers the Deterministic Space Saving estimates for tracked
        items (sec 5.2: the two sketches are isomorphic).
        """
        d = self.decrements
        return {x: c + d for x, c in self.counters.items()}

    def error_bound(self) -> float:
        """Deterministic per-item error bound ``n_tot / m``."""
        return self.t / self.m
