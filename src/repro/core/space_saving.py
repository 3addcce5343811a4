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

Per-item estimates and the Misra-Gries view read the kernel. The other
queries live in :class:`~repro.core.result.CountSketchResult`, the one
query type of every sketch: :meth:`SpaceSaving.result` is the sketch as
a result with threshold ``N_min``, and the query methods here delegate
to it.
"""
from __future__ import annotations

from typing import Callable, Hashable, Iterable

import numpy as np
import pandas as pd

from repro.core.kernel import SpaceSavingKernel
from repro.core.result import CountSketchResult, item_array


class SpaceSaving:
    """Common API over :class:`SpaceSavingKernel`; see module docstring."""

    #: subclasses fix this: label-replacement rule of Algorithm 1
    unbiased: bool = True

    def __init__(self, m: int, *, seed: int | None = None):
        self._k = SpaceSavingKernel(m, unbiased=self.unbiased, seed=seed)
        self._result: CountSketchResult | None = None

    # -- ingestion ---------------------------------------------------------

    def update(self, item: Hashable) -> None:
        """Process a single row for ``item``."""
        self._k.update(item)

    def update_many(self, items: Iterable[Hashable]) -> None:
        """Process rows in stream order."""
        self._k.update_many(items)

    @classmethod
    def from_stream(
        cls, items: Iterable[Hashable], m: int, *, seed: int | None = None
    ) -> "SpaceSaving":
        """Build a sketch by consuming ``items`` once."""
        s = cls(m, seed=seed)
        s.update_many(items)
        return s

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        """Number of bins."""
        return self._k.m

    @property
    def t(self) -> int:
        """Number of rows processed."""
        return self._k.t

    @property
    def n_min(self) -> int:
        """Minimum bin count (0 while the sketch is not yet full)."""
        return self._k.n_min

    def total(self) -> int:
        """Sum of all bin counts. Equals ``t`` exactly (mass conservation)."""
        return self._k.total()

    def __len__(self) -> int:
        return len(self._k.item_of)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._k.bin_of

    # -- estimates ---------------------------------------------------------

    def estimate(self, item: Hashable) -> int:
        """Estimated count for ``item`` (0 when absent)."""
        return self._k.estimate(item)

    def estimates(self) -> dict:
        """item -> estimated count for all stored items."""
        return self._k.estimates()

    def result(self) -> CountSketchResult:
        """The sketch as a :class:`CountSketchResult` (threshold ``N_min``).

        Built once and reused until the next update moves ``t``; its
        arrays are read-only because every caller shares them.
        """
        k = self._k
        if self._result is None or self._result.t != k.t:
            counts = k.counts
            est = np.fromiter(
                (counts[b] for b in k.bin_of.values()), np.int64, len(k.bin_of)
            )
            items = item_array(list(k.bin_of))
            items.flags.writeable = est.flags.writeable = False
            self._result = CountSketchResult(items, est, k.n_min, k.t)
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
        nm = self.n_min
        return {
            x: c - nm for x, c in self._k.estimates().items() if c - nm > 0
        }

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

    unbiased = True


class DeterministicSpaceSaving(SpaceSaving):
    """Original Space Saving (Metwally et al. 2005): biased but with the
    deterministic guarantee ``|N_hat_i - n_i| <= n_tot / m``."""

    unbiased = False


def sketch_arrays(sketch: SpaceSaving) -> tuple[np.ndarray, np.ndarray]:
    """(items, counts) arrays for vectorized post-processing (read-only)."""
    res = sketch.result()
    return res.items, res.estimates
