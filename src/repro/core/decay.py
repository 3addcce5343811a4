"""Time-decayed Unbiased Space Saving via forward decay (sec 5.3).

Forward decay (Cormode, Shkapenyuk, Srivastava, Xu 2009): fix a
landmark L before the stream starts; a row arriving at time ``t_i``
gets weight ``g(t_i - L)`` for a non-decreasing ``g``. The decayed
aggregate at query time ``t`` is ``sum_i g(t_i - L) / g(t - L)``: the
normalization depends only on the query time, so weights never need to
be rewritten — exactly the property that lets a one-pass weighted
sketch implement time decay.

Here ``g(a) = exp(lambda * a)`` gives exponential decay with rate
``lambda``: an item's rows decay by ``exp(-lambda * age)``. The
landmark starts at time 0. Before ``g`` can overflow, it moves forward
to the current time and the sketch is scaled by ``exp(-lambda *
shift)``; one positive factor keeps every estimate unbiased.

:class:`ForwardDecaySpaceSaving` is a
:class:`~repro.core.weighted.WeightedUnbiasedSpaceSaving` whose ``add``
takes a timestamp: in one frame it scales the row's weight by ``g`` and
updates the exact dict of up to ``SPILL_FACTOR * m`` items, which the
inherited reduction brings to m with one PPS sample when it overflows
and at each query. A null, negative, NaN or infinite weight, a NaN,
infinite or decreasing timestamp, or a weight that overflows once scaled
or overflows the total mass once added raises ``ValueError`` before the
sketch, the clock or the landmark changes. A query time before the
last row extrapolates: the estimates grow by ``exp(lambda * gap)``, and
a query so far before the landmark that they overflow raises
``ValueError``.
"""
from __future__ import annotations

from math import exp, inf, isfinite
from typing import Hashable

from repro.core.result import CountSketchResult
from repro.core.weighted import WeightedUnbiasedSpaceSaving, mass_error, weight_error

#: largest exponent ``lambda * (t - landmark)`` before the landmark moves
#: (``exp`` overflows past ~709)
_MAX_EXPONENT = 300.0


def _time_error(time, last: float) -> ValueError:
    if isfinite(time):
        return ValueError(
            f"forward decay requires non-decreasing timestamps, got {time!r} after {last!r}"
        )
    return ValueError(f"timestamp must be finite, got {time!r}")


class ForwardDecaySpaceSaving(WeightedUnbiasedSpaceSaving):
    """Exponentially time-decayed unbiased count sketch."""

    def __init__(self, m: int, *, rate: float, seed: int | None = None):
        if not 0.0 <= rate < inf:
            raise ValueError(f"decay rate must be finite and >= 0, got {rate!r}")
        super().__init__(m, seed=seed)
        self.rate = rate
        self.landmark = 0.0
        self._last_time = 0.0

    def add(self, item: Hashable, time: float, weight: float = 1.0) -> None:
        """Add a row for ``item`` stamped ``time`` (monotone non-decreasing)."""
        if not self._last_time <= time < inf:
            raise _time_error(time, self._last_time)
        if weight is None or not 0.0 <= weight < inf:
            raise weight_error(weight)
        a = self.rate * (time - self.landmark)
        if a > _MAX_EXPONENT:
            self._scale(exp(-a))
            self.landmark = time
            a = 0.0
        w = weight * exp(a)
        t = self._t + w
        # t overflows only if the landmark did not move, so nothing has changed:
        # a move scales t below 1e178, and 1e178 + a finite weight rounds to finite
        if t == inf:
            if w < inf:
                raise mass_error(w, self._t)
            raise ValueError(
                f"weight {weight!r} at time {time!r} overflows once scaled by "
                f"exp({a!r}) from the landmark {self.landmark!r}"
            )
        self._t = t
        values = self._values
        if item in values:
            values[item] += w
        elif w:
            values[item] = w
            if len(values) > self._cap:
                self._reduce()
        self._last_time = time  # only an accepted row moves the clock

    def result(self, query_time: float | None = None) -> CountSketchResult:
        """Decayed snapshot as a :class:`CountSketchResult`.

        Estimates are normalized to ``query_time`` (the last row's time
        when None): each estimates ``sum_rows exp(-rate * age)`` for the
        item's rows, unbiasedly. A query time before the last row
        extrapolates, with negative ages; one so far before the landmark
        that the total mass would overflow raises ``ValueError``.
        """
        qt = self._last_time if query_time is None else query_time
        try:
            norm = exp(self.rate * (qt - self.landmark))
        except OverflowError:  # decayed past the float range: every estimate reads 0
            norm = inf
        if norm == 0.0 or self._t / norm == inf:
            raise ValueError(
                f"query_time {qt!r} lies too far before the landmark "
                f"{self.landmark!r}: the decayed estimates overflow"
            )
        return self._result(norm)
