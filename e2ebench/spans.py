"""In-memory ``perf_counter`` spans around calls into the program's layers.

The traced run replaces an entry point (a module-level function or a class
attribute) with a wrapper that records one span per call: its name, start,
end, the enclosing span and the run it belongs to.  Self time -- a span's
duration minus the time its direct child spans cover -- is accumulated as
spans close, so the per-layer split needs no pass over the spans.  The
spans themselves stay in memory (flat arrays, a few dozen bytes each) and
are written as JSON lines when the benchmark exits.

Only the benchmark's own files install spans; the program is unchanged.
"""

from __future__ import annotations

import contextlib
import json
from array import array
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

__all__ = ["Tracer", "patch"]

#: Spans beyond this many still count in the aggregates but are not kept
#: for the JSON-lines file (a live scenario opens ~20 per message).
KEEP = 100_000


@contextlib.contextmanager
def patch(owner: object, attr: str, replacement: object) -> Iterator[None]:
    """Set ``owner.attr`` to ``replacement`` for the duration of the block.

    ``owner`` is a module or a class.  An attribute the class inherits
    rather than defines is deleted again on exit, so the patch leaves no
    shadowing entry behind.
    """
    namespace = vars(owner)
    had = attr in namespace
    original = namespace.get(attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        if had:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


class Tracer:
    """Collects spans and per-name call counts, total and self time."""

    def __init__(self) -> None:
        #: Run (campaign run index, stream or scenario number) that new
        #: spans belong to; the workload sets it before each run.
        self.run = -1
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.total: List[float] = []
        self.self_time: List[float] = []
        self.spans = 0
        self._stack: List[list] = []  # [span id, seconds covered by children]
        self._id = array("q")
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._run = array("q")

    def _name_id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return index

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        tracer = self
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time
        span_ids, name_ids = self._id, self._name
        starts, ends = self._start, self._end
        parents, runs = self._parent, self._run
        index = self._name_id(name)

        def traced(*args, **kwargs):
            span = tracer.spans
            tracer.spans = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = perf_counter()
                stack.pop()
                elapsed = ended - started
                if stack:
                    stack[-1][1] += elapsed
                calls[index] += 1
                total[index] += elapsed
                self_time[index] += elapsed - frame[1]
                if span < KEEP:
                    span_ids.append(span)
                    name_ids.append(index)
                    starts.append(started)
                    ends.append(ended)
                    parents.append(parent)
                    runs.append(tracer.run)

        return traced

    def instrument(
        self, targets: Iterable[Tuple[object, str, str]]
    ) -> contextlib.ExitStack:
        """Wrap every ``(owner, attribute, span name)`` until the stack exits."""
        stack = contextlib.ExitStack()
        for owner, attr, name in targets:
            traced = self.wrap(getattr(owner, attr), name)
            stack.enter_context(patch(owner, attr, traced))
        return stack

    def self_seconds(self, name: str) -> float:
        """Summed self time of every span called ``name`` (0 if none)."""
        index = self._ids.get(name)
        return 0.0 if index is None else self.self_time[index]

    def call_count(self, name: str) -> int:
        index = self._ids.get(name)
        return 0 if index is None else self.calls[index]

    def dump(self, path: str, meta: dict) -> None:
        """Write a header line, then one JSON object per kept span.

        Spans appear in the order they closed; times are seconds from the
        earliest kept start.
        """
        origin = min(self._start) if self._start else 0.0
        with open(path, "w") as out:
            header = dict(meta, spans=self.spans, written=len(self._start))
            header["layers"] = {
                name: {
                    "calls": self.calls[i],
                    "total_s": self.total[i],
                    "self_s": self.self_time[i],
                }
                for i, name in enumerate(self.names)
            }
            out.write(json.dumps(header) + "\n")
            names = self.names
            for i in range(len(self._start)):
                out.write(
                    '{"id":%d,"name":"%s","start":%.9f,"end":%.9f,'
                    '"parent":%d,"run":%d}\n'
                    % (
                        self._id[i],
                        names[self._name[i]],
                        self._start[i] - origin,
                        self._end[i] - origin,
                        self._parent[i],
                        self._run[i],
                    )
                )
