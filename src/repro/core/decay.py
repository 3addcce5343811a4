"""Time-decayed Unbiased Space Saving via forward decay (sec 5.3).

Forward decay (Cormode, Shkapenyuk, Srivastava, Xu 2009): fix a
landmark L before the stream starts; a row arriving at time ``t_i``
gets weight ``g(t_i - L)`` for a non-decreasing ``g``. The decayed
aggregate at query time ``t`` is ``sum_i g(t_i - L) / g(t - L)``: the
normalization depends only on the query time, so weights never need to
be rewritten — exactly the property that lets a one-pass weighted
sketch implement time decay.

Here ``g(a) = exp(lambda * a)`` gives exponential decay with rate
``lambda``: an item's rows decay by ``exp(-lambda * age)``. Before
``g`` can overflow, the landmark moves forward to the current time and
the sketch is scaled by ``exp(-lambda * shift)``; one positive factor
keeps every estimate unbiased.

The decayed weights feed a :class:`WeightedUnbiasedSpaceSaving`, which
holds them exactly in a dict of up to ``SPILL_FACTOR * m`` items and
reduces it to m with one PPS sample when it overflows and at each query.
A bad weight (null, negative, NaN or infinite) or timestamp raises
``ValueError`` before the clock or the landmark moves.
"""
from __future__ import annotations

import math
from typing import Hashable

from repro.core.result import CountSketchResult
from repro.core.weighted import WeightedUnbiasedSpaceSaving, check_weight

#: largest exponent ``lambda * (t - landmark)`` before the landmark moves
#: (``exp`` overflows past ~709)
_MAX_EXPONENT = 300.0


class ForwardDecaySpaceSaving:
    """Exponentially time-decayed unbiased count sketch."""

    def __init__(
        self, m: int, *, rate: float, landmark: float = 0.0, seed: int | None = None
    ):
        if rate < 0:
            raise ValueError("decay rate must be >= 0")
        self.rate = rate
        self.landmark = landmark
        self._inner = WeightedUnbiasedSpaceSaving(m, seed=seed)
        self._last_time = landmark

    def add(self, item: Hashable, time: float, weight: float = 1.0) -> None:
        """Add a row for ``item`` stamped ``time`` (monotone non-decreasing)."""
        if time < self._last_time:
            raise ValueError("forward decay requires non-decreasing timestamps")
        check_weight(weight)
        a = self.rate * (time - self.landmark)
        if a > _MAX_EXPONENT:
            self._inner._scale(math.exp(-a))
            self.landmark = time
            a = 0.0
        self._inner.add(item, weight * math.exp(a))
        self._last_time = time  # only an accepted row moves the clock

    def estimates(self, query_time: float | None = None) -> dict:
        """Decayed count estimates normalized to ``query_time``.

        Each returned value estimates ``sum_rows exp(-rate * age)`` for
        the item's rows, unbiasedly.
        """
        qt = self._last_time if query_time is None else query_time
        norm = math.exp(self.rate * (qt - self.landmark))
        return {x: c / norm for x, c in self._inner.estimates().items()}

    def result(self, query_time: float | None = None) -> CountSketchResult:
        """Decayed snapshot as a :class:`CountSketchResult`."""
        qt = self._last_time if query_time is None else query_time
        norm = math.exp(self.rate * (qt - self.landmark))
        raw = self._inner.result()
        return CountSketchResult(
            raw.items, raw.estimates / norm, raw.threshold / norm, raw.t / norm
        )
