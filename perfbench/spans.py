"""In-memory spans and the wrappers that record them.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the
index of the enclosing span (``-1`` for a root) and ``attrs`` holds
exact counts measured at the call, such as points scored or agents
stepped.  Spans are kept in a list and only summarised or written out
after the timed work has finished.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    """Records nested spans of one thread in call order."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} was open")

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recorded as span ``name``.

        ``attrs(args, kwargs, result)`` runs after the span has closed
        and returns the counts to store on it.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if attrs is not None:
                self.spans[index][ATTRS] = attrs(args, kwargs, result)
            return result

        return traced

    def write_jsonl(self, fh) -> None:
        """One JSON object per span; ``trace`` groups the spans of one pass."""
        for name, start, end, parent, attrs in self.spans:
            record = {"trace": self.trace_id, "name": name, "start": start,
                      "end": end, "parent": parent, "attrs": attrs}
            fh.write(json.dumps(record) + "\n")


def span_self_times(spans) -> list[float]:
    """Each span's duration minus its children's, in span order.

    Children of one span never overlap (spans come from one thread), so
    their summed durations are the part of the parent they cover.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_times(spans) -> dict[str, float]:
    """Self seconds summed per span name."""
    totals: dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, span_self_times(spans)):
        totals[span[NAME]] += seconds
    return dict(totals)
