"""Space Saving kernel (Algorithm 1 of the paper).

Implements the per-row update shared by Deterministic Space Saving
(label-replacement probability ``p = 1``) and Unbiased Space Saving
(``p = 1/(N_min + 1)``) with O(1) amortized cost per row. The class
attribute ``unbiased`` picks the variant. The sketches of
:mod:`repro.core.space_saving` are subclasses that answer every query
through ``result()``, so a sketch is one object;
``DeterministicSpaceSaving`` sets ``unbiased = False``.

Algorithm 1 needs only two things from its summary structure: the
minimum count ``N_min`` and a uniformly random bin holding it (the
tie-breaking randomization of section 6.1). So instead of the sorted
stream-summary of Metwally et al. (2005), the kernel keeps a plain list
of bin counts and one lazy candidate list ``mins``: the bins that were
at ``min_val`` at the last scan, some of which may have risen since.

* A hit increments the bin's count and does nothing else.
* A miss swap-pops a uniformly drawn entry of ``mins``. An entry whose
  count is no longer ``min_val`` is stale, and the miss draws again.
  Every bin at ``min_val`` is in ``mins`` exactly once, so the accepted
  bin is uniform over the bins at ``N_min``. The miss relabels it
  (always, or with probability ``1/(N_min+1)``) and sets its count to
  ``min_val + 1``.
* When ``mins`` is empty, no bin is at ``min_val``; the miss scans the
  counts once for the new minimum and the bins at it. ``min_val`` never
  decreases and stays <= t/m, and each entry is added once per scan and
  removed once, so all scans and draws together cost at most t + m and
  each row stays O(1) amortized.

``min_val`` lags behind the minimum between scans, so :attr:`n_min`
scans the counts. Until the m-th distinct item claims a bin there is no
displacement, so the fill phase runs as its own loop, and the first
scan happens at the first miss of a full sketch.

The update loop is deliberately a tight pure-Python loop: Space Saving
updates are order-dependent, so the stream cannot be vectorized without
changing the process the paper analyzes. Experiment replications are
parallelized across cores via Spark instead (see ``repro.experiments``).
"""
from __future__ import annotations

import random
from typing import Hashable, Iterable


class SpaceSavingKernel:
    """State + update loop for an m-bin Space Saving sketch.

    Parameters
    ----------
    m:
        Number of bins (counters) maintained.
    seed:
        Seed for the kernel's private :class:`random.Random`. The
        deterministic variant still consumes randomness for min-bin
        tie-breaking, so a seed keeps runs reproducible.
    """

    __slots__ = ("m", "rng", "bin_of", "item_of", "counts", "mins", "min_val", "t")

    #: label-replacement rule: ``True`` replaces the label with probability
    #: ``1/(N_min+1)`` (Unbiased Space Saving); a subclass sets ``False``
    #: to always replace it (the original deterministic algorithm)
    unbiased: bool = True

    def __init__(self, m: int, *, seed: int | None = None):
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        self.m = m
        self.rng = random.Random(seed)
        self.bin_of: dict = {}        # item -> bin index
        self.item_of: list = []       # bin index -> item
        self.counts: list[int] = []   # bin index -> count
        self.mins: list[int] = []     # bins at min_val at the last scan
        self.min_val: int = 0         # min count at the last scan (0 before it)
        self.t: int = 0               # rows processed

    # -- public API --------------------------------------------------------

    def update(self, item: Hashable) -> None:
        """Process one row whose unit of analysis is ``item``."""
        self.update_many((item,))

    def update_many(self, items: Iterable[Hashable]) -> None:
        """Process a sequence of rows in stream order.

        This is the hot loop; locals are bound once for speed.
        """
        bin_of = self.bin_of
        item_of = self.item_of
        counts = self.counts
        m = self.m
        t = self.t
        rows = iter(items)

        if len(item_of) < m:
            # fill phase: nothing is displaced, so no minimum is tracked
            for x in rows:
                t += 1
                b = bin_of.get(x)
                if b is not None:
                    counts[b] += 1
                    continue
                b = len(item_of)
                item_of.append(x)
                counts.append(1)
                bin_of[x] = b
                if b + 1 == m:
                    break

        # steady phase: the sketch is full, unless ``rows`` ran out above
        mins = self.mins
        mv = self.min_val
        unbiased = self.unbiased
        rnd = self.rng.random
        for x in rows:
            t += 1
            b = bin_of.get(x)
            if b is not None:
                counts[b] += 1
                continue
            # draw a uniform bin at N_min, redrawing past stale entries
            while True:
                if not mins:
                    mv = self.min_val = min(counts)
                    mins.extend([b for b, c in enumerate(counts) if c == mv])
                i = int(rnd() * len(mins))
                b = mins[i]
                mins[i] = mins[-1]
                mins.pop()
                if counts[b] == mv:
                    break
            # replace the label with probability p: always for the
            # deterministic variant, 1/(N_min+1) for the unbiased one.
            if (not unbiased) or rnd() * (mv + 1) < 1.0:
                del bin_of[item_of[b]]
                bin_of[x] = b
                item_of[b] = x
            counts[b] = mv + 1
        self.t = t

    # -- state reads, not queries: ``result()`` and the benchmark read them --

    def __len__(self) -> int:
        return len(self.item_of)

    def __contains__(self, item: Hashable) -> bool:
        return item in self.bin_of

    @property
    def n_min(self) -> int:
        """Count of the smallest bin (0 while the sketch is not full)."""
        counts = self.counts
        return min(counts) if len(counts) == self.m else 0

    def total(self) -> int:
        """Sum of all bin counts; equals ``t`` exactly for unit updates."""
        return sum(self.counts)
