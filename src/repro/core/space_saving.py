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
"""
from __future__ import annotations

import math
from statistics import NormalDist
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np
import pandas as pd

from repro.core.kernel import SpaceSavingKernel


class SpaceSaving:
    """Common API over :class:`SpaceSavingKernel`; see module docstring."""

    #: subclasses fix this: label-replacement rule of Algorithm 1
    unbiased: bool = True

    def __init__(self, m: int, *, seed: int | None = None):
        self._k = SpaceSavingKernel(m, unbiased=self.unbiased, seed=seed)

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

    def to_pandas(self) -> pd.DataFrame:
        """The sketch as a two-column frame ``[item, estimate]``."""
        est = self._k.estimates()
        return pd.DataFrame(
            {"item": list(est.keys()), "estimate": list(est.values())}
        )

    def frequent_items(self, k: int | None = None) -> list[tuple[Hashable, int]]:
        """Top-``k`` (item, estimate) pairs by estimated count.

        With ``k=None`` returns all stored items, descending by count.
        """
        items = sorted(self._k.estimates().items(), key=lambda kv: -kv[1])
        return items if k is None else items[:k]

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
        """Estimate ``sum_{i in S} n_i`` and return ``(N_hat_S, C_S)``.

        ``subset`` is a membership set or predicate over items. ``C_S``
        is the number of sketch items falling in ``S`` (used by the
        variance estimator, eq. 4-5 of the paper).
        """
        member = subset if callable(subset) else subset.__contains__
        s = 0
        c = 0
        for x, cnt in self._k.estimates().items():
            if member(x):
                s += cnt
                c += 1
        return float(s), c

    def subset_sum_ci(
        self,
        subset: set | Callable[[Hashable], bool],
        *,
        level: float = 0.95,
    ) -> tuple[float, float, float, float]:
        """Subset sum with variance estimate and Normal CI (sec 6.4-6.5).

        Returns ``(estimate, variance_hat, lo, hi)`` where
        ``variance_hat = N_min**2 * max(C_S, 1)`` (eq. 5) and the CI is
        ``estimate ± z * sqrt(variance_hat)``.
        """
        est, c_s = self.subset_sum(subset)
        var = subset_sum_variance(self.n_min, c_s)
        z = _z_value(level)
        sd = math.sqrt(var)
        return est, var, est - z * sd, est + z * sd


def subset_sum_variance(n_min: float, c_s: int) -> float:
    """Equation 5 of the paper: ``Var_hat(N_S) = N_min**2 * max(C_S, 1)``."""
    return float(n_min) ** 2 * max(c_s, 1)


def _z_value(level: float) -> float:
    """Two-sided Normal quantile ``z`` with ``P(|Z| <= z) == level``."""
    if not 0 < level < 1:
        raise ValueError(f"level must be in (0,1), got {level}")
    return NormalDist().inv_cdf((1 + level) / 2)


class UnbiasedSpaceSaving(SpaceSaving):
    """The paper's contribution: unbiased per-item count estimates."""

    unbiased = True


class DeterministicSpaceSaving(SpaceSaving):
    """Original Space Saving (Metwally et al. 2005): biased but with the
    deterministic guarantee ``|N_hat_i - n_i| <= n_tot / m``."""

    unbiased = False


def sketch_arrays(sketch: SpaceSaving) -> tuple[np.ndarray, np.ndarray]:
    """(items, counts) arrays for vectorized post-processing."""
    est = sketch.estimates()
    return np.asarray(list(est.keys())), np.asarray(
        list(est.values()), dtype=np.int64
    )
