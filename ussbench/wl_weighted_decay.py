"""Workload ``weighted_decay``: forward-decayed weighted sketch, no Spark.

Each op feeds ``ForwardDecaySpaceSaving`` (m=64) a weighted, time-stamped
permuted Weibull(0.3) stream (~4k rows, ~350 items) row by row. Every row whose item is absent
from a full sketch reduces the m+1 bins with ``splitting_pps_sample``,
which is most of the op's time; the other two workloads never call it,
so this is the workload for a faster unbiased reduction. The exact
baseline is a dict accumulating the same forward-decayed weights. The
panel is the epoch subset sums, answered through
``CountSketchResult.subset_sum_ci``. Epochs are runs of items in
ascending count order holding a twentieth of the rows each, so every
epoch total sums ~200 rows and varies little from seed to seed.
"""
from __future__ import annotations

import math

import numpy as np

import harness
from repro.core import decay, result as result_mod, weighted
from repro.sampling import pps
from repro.streams.orders import permuted_stream
from repro.streams.weibull import weibull_counts

FULL = {"n_items": 1_000, "rows": 4_000, "m": 64, "accuracy_ops": 40}
TINY = {"n_items": 200, "rows": 600, "m": 16, "accuracy_ops": 4}
N_EPOCHS = 20
#: the stream spans this many time units ...
SPAN = 1_000.0
#: ... and decays by exp(-RATE * SPAN) over it; the product stays far
#: below the ~700 at which exp overflows
RATE = 3.0 / SPAN


class WeightedDecay:
    name = "weighted_decay"
    #: the exact baseline and the panel each take well under a
    #: millisecond; they are repeated so that host jitter does not
    #: dominate their times (the exact time is per repeat)
    exact_repeats = 60
    query_repeats = 20

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.cfg = TINY if tiny else FULL
        self.m = self.cfg["m"]
        self.accuracy_ops = self.cfg["accuracy_ops"]

    def setup(self) -> None:
        cfg = self.cfg
        rng = np.random.default_rng([self.seed, 2])
        counts = weibull_counts(cfg["n_items"], shape=0.3, target_total=cfg["rows"])
        items = permuted_stream(counts, rng)
        n = len(items)
        times = np.linspace(0.0, SPAN, n)
        weights = rng.uniform(0.5, 1.5, n)
        self.rows = list(zip(items.tolist(), times.tolist(), weights.tolist()))
        self.query_time = float(times[-1])
        decayed = weights * np.exp(-RATE * (self.query_time - times))
        self.total = float(decayed.sum())
        self.item_totals = np.bincount(items, weights=decayed, minlength=len(counts))

        epochs = (np.cumsum(counts) - counts) * N_EPOCHS // counts.sum()
        epoch_truth = np.bincount(epochs, weights=self.item_totals, minlength=N_EPOCHS)
        # an item holding more than an epoch's share of rows leaves the
        # next epoch empty; empty epochs are not queried
        kept = np.unique(epochs)
        self.panel = [set(np.flatnonzero(epochs == e).tolist()) for e in kept]
        self._truths = [(("epoch", int(e)), float(epoch_truth[e])) for e in kept]

    def verify(self) -> list[str]:
        exact = self.exact(0)
        ref = self.item_totals
        nz = np.flatnonzero(ref)
        if sorted(exact) != nz.tolist() or not all(
            math.isclose(exact[x], ref[x], rel_tol=1e-9) for x in nz.tolist()
        ):
            return ["dict decayed totals differ from the numpy bincount"]
        return []

    def sketch(self, i: int):
        sk = decay.ForwardDecaySpaceSaving(self.m, rate=RATE, seed=harness.op_seed(self.seed, i))
        add = sk.add
        for x, t, w in self.rows:
            add(x, t, w)
        return sk.result(self.query_time), {"rows": len(self.rows)}

    def check(self, i: int, res) -> list[str]:
        problems = []
        est = res.estimates
        if not (np.all(np.isfinite(est)) and np.all(est >= 0)):
            problems.append("decayed estimates not all finite and non-negative")
        if len(res) > self.m:
            problems.append(f"decayed sketch holds {len(res)} bins > m={self.m}")
        if not math.isclose(res.t, self.total, rel_tol=1e-9):
            problems.append(f"decayed mass {res.t} != {self.total}")
        return problems

    def exact(self, i: int):
        """Forward decay on a dict: scale up by arrival time, normalise at query time."""
        d: dict = {}
        get = d.get
        exp = math.exp
        for x, t, w in self.rows:
            d[x] = get(x, 0.0) + w * exp(RATE * t)
        norm = exp(RATE * self.query_time)
        return {x: v / norm for x, v in d.items()}

    def query_sketch(self, i: int, res):
        out = []
        for members in self.panel:
            est, _, lo, hi = res.subset_sum_ci(members, level=harness.CI_LEVEL)
            out.append((est, lo, hi))
        return out

    def query_exact(self, i: int, totals):
        return harness.scan_subset_sums(totals, self.panel)

    def truths(self, i: int):
        return self._truths

    def patch(self, tracer) -> None:
        tracer.patch(decay.ForwardDecaySpaceSaving, "add", "decay.add", per_row=True)
        tracer.patch(
            weighted, "splitting_pps_sample", "pps.splitting", per_row=True,
            on_call=lambda args, kw, out: tracer.count("pps.n", len(args[0])),
        )
        tracer.patch(pps, "thresholded_pps_probs", "pps.probs", per_row=True)
        tracer.patch(result_mod.CountSketchResult, "subset_sum_ci", "result.subset_sum_ci")

    def close(self) -> None:
        pass
