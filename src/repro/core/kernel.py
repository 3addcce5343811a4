"""Space Saving kernel (Algorithm 1 of the paper).

Implements the per-row update shared by Deterministic Space Saving
(label-replacement probability ``p = 1``) and Unbiased Space Saving
(``p = 1/(N_min + 1)``) with O(1) amortized cost per row, and the
per-item reads of the bins. The class attribute ``unbiased`` picks the
variant. The sketches of :mod:`repro.core.space_saving` are subclasses
that add the subset-sum and frequent-item queries, so a sketch is one
object; ``DeterministicSpaceSaving`` sets ``unbiased = False``.

Algorithm 1 needs only two things from its summary structure: the
minimum count ``N_min`` and a uniformly random bin holding it (the
tie-breaking randomization of section 6.1). So instead of the sorted
stream-summary of Metwally et al. (2005), the kernel keeps a plain list
of bin counts and one lazy *min set*: a :class:`RandomBag` of exactly
the bins whose count is ``min_val``.

* A hit increments the bin's count, and touches the min set only when
  the bin was at ``min_val``: it leaves the set.
* A miss draws a uniform bin from the min set, relabels it (always, or
  with probability ``1/(N_min+1)``), sets its count to ``min_val + 1``
  and removes it from the set.
* When the set empties, every bin is above ``min_val``; one O(m) scan of
  the counts finds the new minimum and refills the set. ``min_val``
  never decreases and stays <= t/m, so all scans together cost at most
  t + m and each row stays O(1) amortized.

Until the m-th distinct item claims a bin there is no displacement, so
the fill phase runs as its own loop without min tracking, and the first
scan happens when the sketch becomes full.

The update loop is deliberately a tight pure-Python loop: Space Saving
updates are order-dependent, so the stream cannot be vectorized without
changing the process the paper analyzes. Experiment replications are
parallelized across cores via Spark instead (see ``repro.experiments``).
"""
from __future__ import annotations

import random
from typing import Hashable, Iterable


class RandomBag:
    """A multiset-free bag of distinct keys with O(1) add / discard /
    indexing, so ``bag[rng.randrange(len(bag))]`` is a uniform draw.

    Backed by a list plus a key -> position map; removal swap-pops the
    last element so all operations are constant time.
    """

    __slots__ = ("_items", "_pos")

    def __init__(self) -> None:
        self._items: list = []
        self._pos: dict = {}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key) -> bool:
        return key in self._pos

    def __getitem__(self, i: int):
        """The element at position ``i`` of the bag's arbitrary order."""
        return self._items[i]

    def add(self, key) -> None:
        """Insert ``key``; must not already be present."""
        self._pos[key] = len(self._items)
        self._items.append(key)

    def discard(self, key) -> None:
        """Remove ``key``; must be present."""
        items, pos = self._items, self._pos
        i = pos.pop(key)
        last = items.pop()
        if i < len(items):  # key was not the tail: swap the tail in
            items[i] = last
            pos[last] = i


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

    __slots__ = (
        "m", "rng", "bin_of", "item_of", "counts", "min_set", "min_val", "t",
    )

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
        self.min_set = RandomBag()    # bins whose count is min_val (once full)
        self.min_val: int = 0         # min count over the bins (0 until full)
        self.t: int = 0               # rows processed

    # -- internal ----------------------------------------------------------

    def _rescan_min(self) -> int:
        """Refill the empty min set with one O(m) scan of ``counts``."""
        counts = self.counts
        mv = self.min_val = min(counts)
        add = self.min_set.add
        for b, c in enumerate(counts):
            if c == mv:
                add(b)
        return mv

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
                    self._rescan_min()
                    break

        # steady phase: the sketch is full, unless ``rows`` ran out above
        mv = self.min_val
        min_set = self.min_set
        mins = min_set._items
        discard = min_set.discard
        rescan = self._rescan_min
        unbiased = self.unbiased
        rng = self.rng
        rnd = rng.random
        randrange = rng.randrange
        for x in rows:
            t += 1
            b = bin_of.get(x)
            if b is not None:
                c = counts[b]
                counts[b] = c + 1
                if c != mv:
                    continue
            else:
                b = mins[randrange(len(mins))]
                # replace the label with probability p: always for the
                # deterministic variant, 1/(N_min+1) for the unbiased one.
                if (not unbiased) or rnd() * (mv + 1) < 1.0:
                    del bin_of[item_of[b]]
                    bin_of[x] = b
                    item_of[b] = x
                counts[b] = mv + 1
            # b has left min_val
            discard(b)
            if not mins:
                mv = rescan()
        self.t = t

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.item_of)

    def __contains__(self, item: Hashable) -> bool:
        return item in self.bin_of

    @property
    def n_min(self) -> int:
        """Count of the smallest bin (0 while the sketch is not full)."""
        return self.min_val

    def estimates(self) -> dict:
        """item -> estimated count, for every item currently labelled."""
        return {x: self.counts[b] for x, b in self.bin_of.items()}

    def estimate(self, item: Hashable) -> int:
        """Estimated count of ``item`` (0 when not in the sketch)."""
        b = self.bin_of.get(item)
        return 0 if b is None else self.counts[b]

    def total(self) -> int:
        """Sum of all bin counts; equals ``t`` exactly for unit updates."""
        return sum(self.counts)
