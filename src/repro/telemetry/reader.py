"""The one reader of the stream: :class:`Trace`.

Every view of a run (``repro trace`` / ``profile`` / ``top``, the Chrome
and folded-stack exporters) takes a :class:`Trace`, which **validates**
each record's required fields once (a miss is dropped and logged in
``skipped``, as a line that is not JSON is), **groups** once (``spans``,
``events(name)``, ``metrics``; ``records`` keeps arrival order) and
**derives** once (``requests``, ``node_timeline``).  The schema is in
``docs/observability.md``; nothing here imports from
:mod:`repro.observe` or :mod:`repro.profiling`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Iterable

from repro.pregel.metrics import NodeSlice, NodeTimeline, TimelineInterval
from repro.telemetry.spans import RequestTrace

_NUMBER = (int, float)
_NODE_FIELDS = (
    "superstep", "node", "units", "compute_seconds", "comm_seconds",
    "barrier_wait_seconds", "barrier_seconds",
)
#: Required fields and their types: of a record by kind, of a metric
#: record by instrument ...
_REQUIRED = {
    "span": {"name": str, "id": int, "start": _NUMBER},
    "event": {"name": str},
    "metric": {"name": str, "metric": str},
    "counter": {"value": _NUMBER},
    "gauge": {"value": _NUMBER},
    "histogram": {"buckets": list, "counts": list},
}
#: ... and of the attrs of the events a derived reading is built from.
_REQUIRED_ATTRS = {
    "serve.request": {"trace_id": str},
    "pregel.node": {
        **dict.fromkeys(_NODE_FIELDS[:3], int),
        **dict.fromkeys(_NODE_FIELDS[3:], _NUMBER),
    },
}


class TraceReadError(ValueError):
    """The trace file is missing or holds no valid record."""


def _problem(record) -> str | None:
    """Why ``record`` is not a usable trace record (``None``: it is)."""
    kind = record.get("kind") if isinstance(record, dict) else None
    if kind not in ("span", "event", "metric"):
        return "not a trace record"
    attrs = record.get("attrs", {})
    if not isinstance(attrs, dict):
        return f"{kind} record: 'attrs' is not an object"
    checks = [(record, _REQUIRED[kind])]
    if kind == "event":
        checks.append((attrs, _REQUIRED_ATTRS.get(record.get("name"), {})))
    elif kind == "metric":
        if record.get("metric") not in ("counter", "gauge", "histogram"):
            return "metric record: missing or bad 'metric'"
        checks.append((record, _REQUIRED[record["metric"]]))
    for holder, fields in checks:
        for name, types in fields.items():
            if not isinstance(holder.get(name), types):
                return f"{kind} record: missing or bad {name!r}"
    if kind == "event" and record["name"] == "serve.request":
        stages = attrs.get("stages", [])
        if not isinstance(stages, list) or not all(
            isinstance(stage, dict) for stage in stages
        ):
            return "event record: 'stages' is not a list of objects"
    return None


class Trace:
    """The validated records of one telemetry stream, grouped once.

    Build one from any iterable of record dicts (``Trace(sink.records)``)
    or from a JSONL file with :func:`read_trace`.
    """

    def __init__(self, records: Iterable[dict] = ()):
        #: Valid records in arrival order.
        self.records: list[dict] = []
        #: One ``"where: reason"`` string per record that was dropped.
        self.skipped: list[str] = []
        self.spans: list[dict] = []
        self.metrics: list[dict] = []
        #: One parsed record per ``serve.request`` event, in order.
        self.requests: list[RequestTrace] = []
        self._events: dict[str, list[dict]] = defaultdict(list)
        self._slices: list[NodeSlice] = []
        self._intervals: list[TimelineInterval] = []
        for position, record in enumerate(records, 1):
            self.add(record, f"record {position}")

    def add(self, record, where: str) -> None:
        """Validate one record and file it, or log why it was dropped."""
        problem = _problem(record)
        if problem is not None:
            self.skipped.append(f"{where}: {problem}")
            return
        self.records.append(record)
        if record["kind"] == "span":
            self.spans.append(record)
            return
        if record["kind"] == "metric":
            self.metrics.append(record)
            return
        name, attrs = record["name"], record.get("attrs", {})
        self._events[name].append(record)
        if name == "serve.request":
            self.requests.append(RequestTrace.from_event(record))
        elif name == "pregel.node":
            self._slices.append(
                NodeSlice(
                    recv_bytes=attrs.get("recv_bytes", 0),
                    slowdown=attrs.get("slowdown", 1.0),
                    **{field: attrs[field] for field in _NODE_FIELDS},
                )
            )
        elif name in ("pregel.recovery", "pregel.checkpoint"):
            self._intervals.append(
                TimelineInterval(
                    name.removeprefix("pregel."),
                    attrs.get("superstep", 0),
                    attrs.get("seconds", 0.0),
                    tuple(attrs.get("nodes", ())),
                )
            )

    def events(self, name: str) -> list[dict]:
        """The event records with the given name, in arrival order."""
        return self._events.get(name, [])

    @property
    def node_timeline(self) -> NodeTimeline | None:
        """The per-node BSP timeline of the ``pregel.node`` events (one
        per node per committed super-step, in execution order) plus the
        recovery and checkpoint intervals; ``None`` when the run never
        entered the engine.  Discarded attempts (``replay`` intervals)
        are not emitted as events, so a live ``RunStats.node_timeline``
        carries slightly more fault detail.
        """
        if not self._slices:
            return None
        return NodeTimeline(
            num_nodes=max(piece.node for piece in self._slices) + 1,
            slices=self._slices,
            intervals=self._intervals,
        )


def read_trace(path: str | Path) -> Trace:
    """Load a JSONL trace file, tolerating bad lines.

    Lines that are not JSON and records that fail validation land in
    :attr:`Trace.skipped` — a truncated export from a killed run still
    summarizes.  Raises :class:`TraceReadError` only when no valid
    record is left: not a trace file, rather than a damaged one.
    """
    trace = Trace()
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                trace.skipped.append(f"{path}:{lineno}: not JSON: {exc}")
                continue
            trace.add(record, f"{path}:{lineno}")
    if not trace.records and trace.skipped:
        raise TraceReadError(
            f"{path}: no valid trace records "
            f"({len(trace.skipped)} malformed line(s); first: "
            f"{trace.skipped[0]})"
        )
    return trace
