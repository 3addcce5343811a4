"""Deterministic and Unbiased Space Saving sketches (paper sections 4-6).

Both variants maintain ``m`` (item, count) pairs. On a row whose item is
absent from a full sketch, the minimum-count bin is incremented; the
label is replaced always (deterministic) or with probability
``1/(N_min+1)`` (unbiased, Theorem 1 of the paper).

Queries:

* per-item count estimates — unbiased for :class:`UnbiasedSpaceSaving`,
  upward-biased for stored items under :class:`DeterministicSpaceSaving`
  (deterministic guarantee: error <= n_tot / m);
* disaggregated subset sums with a variance estimate (eq. 5) and Normal
  confidence intervals;
* frequent items / heavy hitters;
* the Misra-Gries view ``(N_i - N_min)_+`` (section 5.2 isomorphism).

A sketch is one object: :class:`SpaceSaving` subclasses
:class:`~repro.core.kernel.SpaceSavingKernel`, whose state, update loop
and per-item reads (``estimate``, ``estimates``, ``n_min``, ``total``)
it inherits, and whose class attribute ``unbiased`` picks the variant.
The Misra-Gries view reads the bins. The other queries live in
:class:`~repro.core.result.CountSketchResult`, the one query type of
every sketch: :meth:`SpaceSaving.result` is the sketch as a result with
threshold ``N_min``, and the query methods here delegate to it.
"""
from __future__ import annotations

from typing import Callable, Hashable, Iterable

import numpy as np
import pandas as pd

from repro.core.kernel import SpaceSavingKernel
from repro.core.result import CountSketchResult, item_array


class SpaceSaving(SpaceSavingKernel):
    """The kernel plus its queries; see module docstring."""

    __slots__ = ("_result",)

    def __init__(self, m: int, *, seed: int | None = None):
        super().__init__(m, seed=seed)
        self._result: CountSketchResult | None = None

    @classmethod
    def from_stream(
        cls, items: Iterable[Hashable], m: int, *, seed: int | None = None
    ) -> "SpaceSaving":
        """Build a sketch by consuming ``items`` once."""
        s = cls(m, seed=seed)
        s.update_many(items)
        return s

    def result(self) -> CountSketchResult:
        """The sketch as a :class:`CountSketchResult` (threshold ``N_min``).

        Built once and reused until the next update moves ``t``; its
        arrays are read-only because every caller shares them.
        """
        if self._result is None or self._result.t != self.t:
            counts, bin_of = self.counts, self.bin_of
            est = np.fromiter(
                (counts[b] for b in bin_of.values()), np.int64, len(bin_of)
            )
            items = item_array(list(bin_of))
            items.flags.writeable = est.flags.writeable = False
            self._result = CountSketchResult(items, est, self.min_val, self.t)
        return self._result

    def to_pandas(self) -> pd.DataFrame:
        """The sketch as a two-column frame ``[item, estimate]``."""
        return self.result().to_pandas()

    def frequent_items(self, k: int | None = None) -> list[tuple[Hashable, int]]:
        """Top-``k`` (item, estimate) pairs, descending (all when ``k`` is None)."""
        return self.result().frequent_items(k)

    def misra_gries_view(self) -> dict:
        """The isomorphic Misra-Gries estimates ``(N_i - N_min)_+``.

        Section 5.2: Deterministic Space Saving and Misra-Gries differ
        only by the additive ``N_min``; soft-thresholding recovers the
        Misra-Gries counters (zeros dropped).
        """
        nm = self.min_val
        return {x: c - nm for x, c in self.estimates().items() if c - nm > 0}

    # -- subset sums (the disaggregated subset sum problem) ----------------

    def subset_sum(
        self, subset: set | Callable[[Hashable], bool]
    ) -> tuple[float, int]:
        """``(N_hat_S, C_S)``; see :meth:`CountSketchResult.subset_sum`."""
        return self.result().subset_sum(subset)

    def subset_sum_ci(
        self,
        subset: set | Callable[[Hashable], bool],
        *,
        level: float = 0.95,
    ) -> tuple[float, float, float, float]:
        """``(estimate, variance_hat, lo, hi)`` with eq.-5 variance ``N_min**2 * max(C_S, 1)``."""
        return self.result().subset_sum_ci(subset, level=level)


class UnbiasedSpaceSaving(SpaceSaving):
    """The paper's contribution: unbiased per-item count estimates."""

    __slots__ = ()


class DeterministicSpaceSaving(SpaceSaving):
    """Original Space Saving (Metwally et al. 2005): biased but with the
    deterministic guarantee ``|N_hat_i - n_i| <= n_tot / m``."""

    __slots__ = ()
    unbiased = False
