"""Deterministic and Unbiased Space Saving sketches (paper sections 4-6).

Both variants maintain ``m`` (item, count) pairs. On a row whose item is
absent from a full sketch, the minimum-count bin is incremented; the
label is replaced always (deterministic) or with probability
``1/(N_min+1)`` (unbiased, Theorem 1 of the paper).

Per-item count estimates are unbiased for :class:`UnbiasedSpaceSaving`
and upward-biased for stored items under :class:`DeterministicSpaceSaving`
(deterministic guarantee: error <= n_tot / m).

A sketch is one object: :class:`SpaceSaving` subclasses
:class:`~repro.core.kernel.SpaceSavingKernel`, whose state and update
loop it inherits, and whose class attribute ``unbiased`` picks the
variant. Every query goes through :meth:`SpaceSaving.result`, the sketch
as a :class:`~repro.core.result.CountSketchResult` with threshold
``N_min``: per-item estimates, disaggregated subset sums with eq.-5
confidence intervals, and frequent items.
"""
from __future__ import annotations

from typing import Callable, Hashable, Iterable

import numpy as np

from repro.core.kernel import SpaceSavingKernel
from repro.core.result import CountSketchResult, item_array


class SpaceSaving(SpaceSavingKernel):
    """The kernel plus its result; see module docstring."""

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
            self._result = CountSketchResult(items, est, self.n_min, self.t)
        return self._result

    # kept only because the stream_kernel benchmark workload calls and traces it
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
