"""Workload ``stream_kernel``: the row-at-a-time kernel, no Spark.

Each op runs ``UnbiasedSpaceSaving`` (m=2000) over two streams:

* a hit-heavy permuted Weibull(0.3) stream, where most rows increment a
  bin already holding the item;
* a miss-heavy Criteo-like stream of 9-feature tuples, where almost
  every row replaces the label of a minimum bin.

Both branches of the kernel loop run in every op, so a change that helps
one branch and hurts the other shows. The exact baseline is a plain dict
count of the same two streams. The panel is the T7 epoch subset sums on
the first stream and the T5 1- and 2-way marginals on the second.
"""
from __future__ import annotations

import numpy as np

import harness
from repro.core import kernel, space_saving
from repro.streams.criteo import (
    CARDINALITIES,
    impressions_pdf,
    marginal_value,
    tuple_item_column,
)
from repro.streams.orders import epoch_of_items, permuted_stream
from repro.streams.weibull import weibull_counts

FULL = {"n_items": 10_000, "hit_rows": 200_000, "miss_rows": 50_000, "m": 2000,
        "accuracy_ops": 32}
TINY = {"n_items": 400, "hit_rows": 4_000, "miss_rows": 2_000, "m": 100,
        "accuracy_ops": 4}
N_EPOCHS = 10
#: marginals smaller than this share of the stream are left out of the panel
MIN_FRAC = 0.05
MAX_TWO_WAY = 8


def _marginal_panel(uniq: np.ndarray, cnt: np.ndarray, rows: int):
    """(key, item set, truth) for the 1-way and top 2-way marginals."""
    decoded = [marginal_value(uniq, f) for f in range(len(CARDINALITIES))]
    panel = []
    top = []
    for f, vals in enumerate(decoded):
        sums = np.bincount(vals, weights=cnt, minlength=CARDINALITIES[f])
        for v in np.flatnonzero(sums >= MIN_FRAC * rows):
            panel.append((("1way", f, int(v)), vals == v))
        top.append(np.argsort(-sums)[:2])
    two_way = []
    for f in range(len(CARDINALITIES) - 1):
        for v1 in top[f]:
            for v2 in top[f + 1]:
                mask = (decoded[f] == v1) & (decoded[f + 1] == v2)
                if cnt[mask].sum() >= MIN_FRAC * rows:
                    two_way.append((("2way", f, int(v1), int(v2)), mask))
    two_way.sort(key=lambda q: -cnt[q[1]].sum())
    panel.extend(two_way[:MAX_TWO_WAY])
    return [(key, set(uniq[mask].tolist()), float(cnt[mask].sum())) for key, mask in panel]


class StreamKernel:
    name = "stream_kernel"
    #: the dict count takes ~40 ms against ~350 ms for the sketch; four
    #: repeats average host jitter over a similar span (the exact time is
    #: per repeat)
    exact_repeats = 4
    query_repeats = 1

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.cfg = TINY if tiny else FULL
        self.m = self.cfg["m"]
        self.accuracy_ops = self.cfg["accuracy_ops"]

    def setup(self) -> None:
        """Generate both streams and the query panels from the seed."""
        cfg = self.cfg
        rng = np.random.default_rng([self.seed, 1])
        counts = weibull_counts(cfg["n_items"], shape=0.3, target_total=cfg["hit_rows"])
        hit = permuted_stream(counts, rng)
        miss = tuple_item_column(impressions_pdf(cfg["miss_rows"], seed=self.seed)).to_numpy()
        self.hit_np, self.miss_np = hit, miss
        self.hit, self.miss = hit.tolist(), miss.tolist()

        epochs = epoch_of_items(len(counts), N_EPOCHS)
        epoch_truth = np.bincount(epochs, weights=counts, minlength=N_EPOCHS)
        self.hit_panel = [
            (("epoch", e), set(np.flatnonzero(epochs == e).tolist()), float(epoch_truth[e]))
            for e in range(N_EPOCHS)
        ]
        uniq, cnt = np.unique(miss, return_counts=True)
        self.miss_panel = _marginal_panel(uniq, cnt, len(miss))
        self._truths = [(k, t) for k, _, t in self.hit_panel + self.miss_panel]

    def verify(self) -> list[str]:
        """The dict baseline against numpy counts of the generated streams."""
        problems = []
        hit_exact, miss_exact = self.exact(0)
        ref = np.bincount(self.hit_np)
        nz = np.flatnonzero(ref)
        if hit_exact != dict(zip(nz.tolist(), ref[nz].tolist())):
            problems.append("dict count of the hit stream differs from bincount")
        uniq, cnt = np.unique(self.miss_np, return_counts=True)
        if miss_exact != dict(zip(uniq.tolist(), cnt.tolist())):
            problems.append("dict count of the miss stream differs from np.unique")
        return problems

    def sketch(self, i: int):
        s = harness.op_seed(self.seed, i)
        t0 = harness.now()
        hit_sk = space_saving.UnbiasedSpaceSaving(self.m, seed=s)
        hit_sk.update_many(self.hit)
        t1 = harness.now()
        miss_sk = space_saving.UnbiasedSpaceSaving(self.m, seed=s + 1)
        miss_sk.update_many(self.miss)
        t2 = harness.now()
        extra = {
            "hit_s": t1 - t0,
            "miss_s": t2 - t1,
            "rows": len(self.hit) + len(self.miss),
            "n_min": hit_sk.n_min,
        }
        return (hit_sk, miss_sk), extra

    def check(self, i: int, result) -> list[str]:
        problems = []
        for sk, rows in zip(result, (self.hit, self.miss)):
            if not sk.total() == sk.t == len(rows):
                problems.append(f"kernel total {sk.total()} / t {sk.t} != rows {len(rows)}")
            if len(sk) > self.m:
                problems.append(f"kernel holds {len(sk)} bins > m={self.m}")
        return problems

    def exact(self, i: int):
        return harness.dict_total(self.hit), harness.dict_total(self.miss)

    def query_sketch(self, i: int, result):
        hit_sk, miss_sk = result
        out = []
        for sk, panel in ((hit_sk, self.hit_panel), (miss_sk, self.miss_panel)):
            for _, members, _ in panel:
                est, _, lo, hi = sk.subset_sum_ci(members, level=harness.CI_LEVEL)
                out.append((est, lo, hi))
        return out

    def query_exact(self, i: int, totals):
        hit_exact, miss_exact = totals
        return harness.scan_subset_sums(
            hit_exact, [s for _, s, _ in self.hit_panel]
        ) + harness.scan_subset_sums(miss_exact, [s for _, s, _ in self.miss_panel])

    def truths(self, i: int):
        return self._truths

    def patch(self, tracer) -> None:
        tracer.patch(kernel.SpaceSavingKernel, "update_many", "kernel.update_many")
        tracer.patch(space_saving.SpaceSaving, "subset_sum_ci", "space_saving.subset_sum_ci")

    def close(self) -> None:
        pass
