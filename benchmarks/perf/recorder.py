"""The benchmark's own span recorder.

Spans are recorded from outside ``src/repro``, around the calls into
each layer: name, start, end, and (derived from the nesting) the span
that caused it.  They live in preallocated arrays and are written out
only when the workload ends.  A layer's *self time* is its spans' duration minus the part
their child spans cover.

Per-request spans come from :class:`Forward` proxies slipped between
the serving layers.  A proxy costs about as much as the cheapest layer
it wraps, so :func:`span_costs` measures which share of a span's cost
falls inside its own interval and which inflates its parent.
"""

from __future__ import annotations

import itertools
import json
from array import array
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter_ns


class Forward:
    """Stands in for ``target``: the given methods are replaced, every
    other attribute (``cache``, ``store``, ``inner``, counters, ...) is
    forwarded, so the layers above cannot tell the difference."""

    def __init__(self, target, **methods):
        self._target = target
        self.__dict__.update(methods)

    def __getattr__(self, name):
        return getattr(self._target, name)


class NullRecorder:
    """The untraced pass: ``span`` costs one shared no-op context."""

    enabled = False
    _nothing = nullcontext()

    def span(self, name: str):
        return self._nothing


class Recorder:
    """Spans in preallocated columns: name, start and end.

    A span costs one counter tick, three array stores and two clock
    reads; which span caused it is worked out afterwards from the
    nesting of the intervals (one thread, so spans nest properly).
    ``capacity`` is a hard limit: a span beyond it raises ``IndexError``.
    Reading the recording back (:meth:`table`, :meth:`write`) ends it.
    """

    enabled = True

    def __init__(self, capacity: int = 1 << 20):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        zeros = bytes(8 * capacity)
        self.name_of = array("q", zeros)
        self.start = array("q", zeros)
        self.end = array("q", zeros)
        self._tick = itertools.count().__next__
        self._count: int | None = None

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        """A coarse span around a block (build phases, whole serve runs)."""
        i = self._tick()
        self.name_of[i] = self.intern(name)
        self.start[i] = perf_counter_ns()
        try:
            yield
        finally:
            self.end[i] = perf_counter_ns()

    def spanned(self, name: str, call, answers: list | None = None):
        """``call(s, t)`` wrapped in a span: the per-request hot path.
        With ``answers``, the answer of every ``(answer, seconds)``
        returned is also appended to it."""
        name_id = self.intern(name)
        tick, name_of, start, end = self._tick, self.name_of, self.start, self.end

        def traced(s, t):
            i = tick()
            name_of[i] = name_id
            start[i] = perf_counter_ns()
            result = call(s, t)
            end[i] = perf_counter_ns()
            return result

        def traced_keeping(s, t):
            result = traced(s, t)
            answers.append(result[0])
            return result

        # The interpreter specialises bytecode per code object; wrappers
        # of different layers sharing one would keep undoing each
        # other's specialisation of ``call(s, t)``.
        traced.__code__ = traced.__code__.replace()
        return traced if answers is None else traced_keeping

    # -- reading the recording back -------------------------------------
    @property
    def count(self) -> int:
        """Spans recorded; the first read ends the recording."""
        if self._count is None:
            self._count = self._tick()
        return self._count

    def parents(self) -> list[int]:
        """For every span the one that caused it (-1 at the top): the
        innermost span still open when it started."""
        start, end = self.start, self.end
        parent = []
        open_spans: list[int] = []
        for i in range(self.count):
            while open_spans and end[open_spans[-1]] <= start[i]:
                open_spans.pop()
            parent.append(open_spans[-1] if open_spans else -1)
            open_spans.append(i)
        return parent

    def table(self) -> dict:
        """Per span name: ``count``, ``children`` (direct child spans),
        ``total_ns``, ``min_ns`` and ``self_ns`` — duration minus the
        part direct children cover, the recorder's own cost included."""
        n = self.count
        start, end = self.start, self.end
        covered = [0] * n
        children = [0] * n
        for i, p in enumerate(self.parents()):
            if p >= 0:
                covered[p] += end[i] - start[i]
                children[p] += 1
        rows = [
            {"count": 0, "children": 0, "total_ns": 0, "min_ns": None, "self_ns": 0}
            for _ in self.names
        ]
        for i in range(n):
            row = rows[self.name_of[i]]
            duration = end[i] - start[i]
            row["count"] += 1
            row["children"] += children[i]
            row["total_ns"] += duration
            if row["min_ns"] is None or duration < row["min_ns"]:
                row["min_ns"] = duration
            row["self_ns"] += duration - covered[i]
        return dict(zip(self.names, rows))

    def write(self, path: Path, request_roots=(), **meta) -> None:
        """Dump every span, column-wise, under ``meta``.

        ``request`` is the id the spans of one request share: the index
        of their outermost span, one named in ``request_roots``; it is
        -1 for the spans above those.
        """
        n = self.count
        parent = self.parents()
        roots = {self._ids[name] for name in request_roots if name in self._ids}
        request = [-1] * n
        for i in range(n):
            if self.name_of[i] in roots:
                request[i] = i
            elif parent[i] >= 0:
                request[i] = request[parent[i]]
        document = dict(
            meta,
            names=self.names,
            name=self.name_of[:n].tolist(),
            start_ns=self.start[:n].tolist(),
            end_ns=self.end[:n].tolist(),
            parent=parent,
            request=request,
        )
        path.write_text(json.dumps(document))


def span_costs(samples: int = 20000) -> tuple[float, float]:
    """What one proxy span adds, in ns: ``(inside, outside)``.

    ``inside`` is the part that falls between the span's own two clock
    reads (it inflates the span), ``outside`` the rest of the proxy
    call (it inflates the parent).  Measured on an empty two-level
    proxy stack: a leaf span lasts ``inside``, and its parent lasts
    ``inside + outside + leaf``.
    """
    rec = Recorder(2 * samples)
    leaf = Forward(None, query_with_cost=rec.spanned("leaf", lambda s, t: None))
    outer = rec.spanned("outer", leaf.query_with_cost)
    for _ in range(samples):
        outer(0, 0)
    ends = [rec.end[i] - rec.start[i] for i in range(rec.count)]
    outer_ns = sorted(ends[0::2])[samples // 2]
    leaf_ns = sorted(ends[1::2])[samples // 2]
    return float(leaf_ns), float(max(0, outer_ns - 2 * leaf_ns))
