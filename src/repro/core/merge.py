"""Merging Space Saving sketches (paper section 5.5, Theorem 2).

Theorem 2: any reduction whose post-reduction expected estimates equal
the pre-reduction estimates keeps the sketch unbiased. A merge is an
exact union of per-item estimates (sums by item) followed by such an
unbiased reduction back to ``m`` bins. We implement two unbiased
reductions:

* ``priority`` — priority sampling over the combined estimates with
  HT-adjusted counts ``max(c_i, tau)`` (the paper's suggested swap-in
  for the pairwise randomization);
* ``pps`` — exact fixed-size PPS via the Deville-Tille splitting
  (ordered pivotal) method with HT adjustment ``c_i / pi_i``, O(n)
  after one sort.

Both preserve ``E[estimate]`` per item; ``pps`` additionally keeps the
total exactly: with ``pi = min(1, alpha c)`` every pinned item keeps
``c_i``, and the sample holds exactly as many unpinned items as their
``pi`` sum to, each adjusted to ``1 / alpha``, so together they sum to
the unpinned mass.

The biased Misra-Gries merge (Agarwal et al. 2013) is provided for
comparison: it soft-thresholds the combined counts by the (m+1)-th
largest, preserving the deterministic error bound but biasing sums
downward (paper Figure 1 discussion).
"""
from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping

import numpy as np

from repro.core.result import CountSketchResult
from repro.core.space_saving import SpaceSaving
from repro.sampling.pps import splitting_pps_sample
from repro.sampling.priority import priority_sample


def _combined(counts_maps: Iterable[Mapping]) -> tuple[np.ndarray, np.ndarray]:
    acc: dict = defaultdict(float)
    for cm in counts_maps:
        for x, c in cm.items():
            acc[x] += c
    items = np.asarray(list(acc.keys()))
    counts = np.asarray(list(acc.values()), dtype=np.float64)
    return items, counts


def reduce_counts(
    items: np.ndarray,
    counts: np.ndarray,
    m: int,
    rng: np.random.Generator,
    *,
    method: str = "priority",
) -> CountSketchResult:
    """Unbiasedly reduce (item, count) pairs to at most ``m`` bins."""
    items = np.asarray(items)
    counts = np.asarray(counts, dtype=np.float64)
    total = float(counts.sum())
    if len(items) <= m:
        return CountSketchResult(items, counts.copy(), 0.0, total)
    if method == "priority":
        ps = priority_sample(items, counts, m, rng)
        return CountSketchResult(ps.items, ps.estimates, ps.tau, total)
    if method == "pps":
        mask, pi = splitting_pps_sample(counts, m, rng)
        est = counts[mask] / pi[mask]
        # threshold analogue: the HT-adjusted size of a barely-included item
        free = (pi > 0.0) & (pi < 1.0)
        thr = float(np.max(counts[free] / pi[free])) if free.any() else 0.0
        return CountSketchResult(items[mask], est, thr, total)
    raise ValueError(f"unknown reduction method {method!r}")


def merge_unbiased(
    sketches: Iterable[SpaceSaving | CountSketchResult | Mapping],
    m: int,
    *,
    rng: np.random.Generator | None = None,
    method: str = "priority",
) -> CountSketchResult:
    """Merge sketches into one unbiased ``m``-bin summary (Theorem 2).

    Accepts :class:`SpaceSaving` sketches, prior merge results, or raw
    ``item -> count`` mappings; estimates are summed exactly by item and
    then reduced.
    """
    rng = rng if rng is not None else np.random.default_rng()
    maps = []
    for s in sketches:
        if isinstance(s, SpaceSaving):
            maps.append(s.estimates())
        elif isinstance(s, CountSketchResult):
            maps.append(s.estimates_dict())
        else:
            maps.append(s)
    items, counts = _combined(maps)
    return reduce_counts(items, counts, m, rng, method=method)


def merge_misra_gries(
    counts_maps: Iterable[Mapping], m: int
) -> dict:
    """Biased Misra-Gries merge (Agarwal et al. 2013).

    Sums counters by item, then soft-thresholds by the (m+1)-th largest
    combined counter so at most ``m`` non-zero counters remain. Each
    merged counter is an underestimate by at most ``n_tot / m``.
    """
    items, counts = _combined(counts_maps)
    if len(items) <= m:
        return dict(zip(items.tolist(), counts.tolist()))
    thr = float(np.partition(counts, -(m + 1))[-(m + 1)])
    keep = counts > thr
    return dict(zip(items[keep].tolist(), (counts[keep] - thr).tolist()))
