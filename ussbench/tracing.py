"""Spans around the repo's public sketch functions, recorded from outside.

A traced run replaces selected functions of ``repro`` with wrappers for
the duration of one operation and restores them afterwards. Each wrapped
call is a frame on one stack, so a layer's *self* time is its duration
minus the time of the wrapped calls nested inside it.

Calls made once or a few times per operation are kept as spans (name,
start, end, parent, op). Calls made once per input row, or once per
absent item, would add a span per row, so they are only aggregated into
a count, a total and a self time per operation.

Spark executors run in separate Python workers that never see these
patches; only driver-side calls are traced.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

_now = time.perf_counter


class Tracer:
    """In-memory spans and per-operation aggregates, written at exit."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: op -> name -> [calls, total_s, self_s]
        self.per_op: dict[int, dict[str, list]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0, 0.0])
        )
        #: op -> counter name -> summed value
        self.counters: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._stack: list[list] = []  # [name, span_id | None, start, child_s]
        self._patches: list[tuple] = []
        self._op: int | None = None
        self._next_id = 0

    # -- frames ------------------------------------------------------------

    def _enter(self, name: str, keep_span: bool) -> list:
        span_id = None
        if keep_span:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, span_id, _now(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = _now()
        name, span_id, start, child = frame
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
        agg = self.per_op[self._op][name]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if span_id is not None:
            parent = next(
                (f[1] for f in reversed(self._stack) if f[1] is not None), None
            )
            self.spans.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "op": self._op,
                    "start": start,
                    "end": end,
                }
            )
        return dur

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame)

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to a counter of the current operation."""
        self.counters[self._op][name] += value

    # -- patching ----------------------------------------------------------

    def wrap(self, fn, name: str, *, per_row: bool = False, on_call=None):
        """A wrapper of ``fn`` that records a frame per call.

        ``on_call(args, kwargs, result)`` may add counters.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, not per_row)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, *, fn=None, **kw) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`unpatch`.

        The wrapper calls ``fn`` when given, else the original attribute.
        """
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(fn or original, name, **kw))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- operations --------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op

    def end_op(self) -> None:
        self._op = None

    def write(self, path: Path, meta: dict) -> None:
        """Write spans, aggregates and counters as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(meta)
        doc["spans"] = self.spans
        doc["aggregates"] = {
            str(op): {n: {"calls": a[0], "total_s": a[1], "self_s": a[2]}
                      for n, a in per.items()}
            for op, per in self.per_op.items()
        }
        doc["counters"] = {
            str(op): dict(c) for op, c in self.counters.items()
        }
        path.write_text(json.dumps(doc))
