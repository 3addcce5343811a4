"""Stream-summary kernel for Space Saving sketches (Algorithm 1 of the paper).

Implements the per-row update shared by Deterministic Space Saving
(label-replacement probability ``p = 1``) and Unbiased Space Saving
(``p = 1/(N_min + 1)``) with O(1) amortized cost per row.

The classic stream-summary structure (Metwally et al. 2005) is realized
as a *count-bucket* map: for each count value, a :class:`RandomBag` of
the bins holding that count. This gives O(1) increments, O(1) uniform
random choice among minimum-count bins (the tie-breaking randomization
the paper introduces in section 6.1), and an always-current minimum
count ``min_val``.

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
    uniform random choice.

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

    def __iter__(self):
        return iter(self._items)

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

    def choice(self, rng: random.Random):
        """Uniform random element (not removed)."""
        return self._items[rng.randrange(len(self._items))]

    def any(self):
        """An arbitrary element (deterministic)."""
        return self._items[-1]


class SpaceSavingKernel:
    """State + update loop for an m-bin Space Saving sketch.

    Parameters
    ----------
    m:
        Number of bins (counters) maintained.
    unbiased:
        ``True`` for Unbiased Space Saving (label replaced with
        probability ``1/(N_min+1)``), ``False`` for the original
        deterministic algorithm (always replaced).
    seed:
        Seed for the kernel's private :class:`random.Random`. The
        deterministic variant still consumes randomness for min-bin
        tie-breaking, so a seed keeps runs reproducible.
    """

    __slots__ = (
        "m", "unbiased", "rng", "bin_of", "item_of", "counts",
        "buckets", "min_val", "t",
    )

    def __init__(self, m: int, *, unbiased: bool = True, seed: int | None = None):
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        self.m = m
        self.unbiased = unbiased
        self.rng = random.Random(seed)
        self.bin_of: dict = {}        # item -> bin index
        self.item_of: list = []       # bin index -> item
        self.counts: list[int] = []   # bin index -> count
        self.buckets: dict[int, RandomBag] = {}  # count -> bins at that count
        self.min_val: int = 0         # min count over existing bins (0 if none)
        self.t: int = 0               # rows processed

    # -- internal ----------------------------------------------------------

    def _bucket_move(self, b: int, c: int) -> None:
        """Move bin ``b`` from count-bucket ``c`` to ``c+1``; track min."""
        buckets = self.buckets
        bag = buckets[c]
        bag.discard(b)
        if not bag._items:
            del buckets[c]
            if c == self.min_val:
                # all former minimum bins left; the incremented bin now
                # sits at c+1 and every other bin was already >= c+1.
                self.min_val = c + 1
        nxt = buckets.get(c + 1)
        if nxt is None:
            nxt = buckets[c + 1] = RandomBag()
        nxt.add(b)

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
        buckets = self.buckets
        m = self.m
        unbiased = self.unbiased
        rng = self.rng
        rnd = rng.random
        bucket_move = self._bucket_move
        t = self.t

        for x in items:
            t += 1
            b = bin_of.get(x)
            if b is not None:
                c = counts[b]
                counts[b] = c + 1
                bucket_move(b, c)
            elif len(item_of) < m:
                # fill phase: claim a fresh bin with count 1
                b = len(item_of)
                item_of.append(x)
                counts.append(1)
                bin_of[x] = b
                bag = buckets.get(1)
                if bag is None:
                    bag = buckets[1] = RandomBag()
                bag.add(b)
                self.min_val = 1
            else:
                mv = self.min_val
                bag = buckets[mv]
                b = bag._items[rng.randrange(len(bag._items))]
                # replace the label with probability p: always for the
                # deterministic variant, 1/(N_min+1) for the unbiased one.
                if (not unbiased) or rnd() * (mv + 1) < 1.0:
                    del bin_of[item_of[b]]
                    bin_of[x] = b
                    item_of[b] = x
                counts[b] = mv + 1
                bucket_move(b, mv)
        self.t = t

    # -- queries -----------------------------------------------------------

    @property
    def n_min(self) -> int:
        """Count of the smallest bin (0 while the sketch is not full)."""
        return self.min_val if len(self.item_of) == self.m else 0

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
