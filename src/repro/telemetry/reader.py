"""The one reader of the stream: :class:`Trace`.

Every view of a run (``repro trace`` and ``repro top``, the Chrome and
folded-stack exporters) takes a :class:`Trace`, which **validates**
each record's required fields once (a miss is dropped and logged in
``skipped``, as a line that is not JSON is), **groups** once (``spans``,
``events(name)``; ``records`` keeps arrival order) and **derives**
``requests`` as it reads and ``node_timeline`` when it is asked for.
The ``metric`` records of traces written while a metrics registry
existed are passed over: not filed, not counted, not skipped.  The
schema is in ``docs/observability.md``; nothing here imports from
:mod:`repro.observe`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.pregel.metrics import NodeSlice
from repro.telemetry.spans import RequestTrace

_NUMBER = (int, float)
_NODE_FIELDS = (
    "superstep", "node", "units", "compute_seconds", "comm_seconds",
    "barrier_wait_seconds", "barrier_seconds",
)
#: Required fields and their types: of a record by kind ...
_REQUIRED = {
    "span": {"name": str, "id": int, "start": _NUMBER},
    "event": {"name": str},
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


@dataclass
class NodeTimeline:
    """Per-node, per-super-step timeline of one (possibly chained) run,
    as :attr:`Trace.node_timeline` rebuilds it from the run's
    ``pregel.*`` events.

    ``slices`` hold one :class:`~repro.pregel.metrics.NodeSlice` per
    node per super-step, in execution order.  Chained runs (DRL_b's
    batches) append to the same timeline, so super-step numbers
    restart; :meth:`supersteps` groups slices by execution occurrence,
    not by number.
    """

    num_nodes: int
    slices: list[NodeSlice] = field(default_factory=list)

    def supersteps(self) -> list[list[NodeSlice]]:
        """Slices grouped per super-step occurrence, execution order."""
        groups: list[list[NodeSlice]] = []
        current: list[NodeSlice] = []
        for piece in self.slices:
            if current and piece.node <= current[-1].node:
                groups.append(current)
                current = []
            current.append(piece)
        if current:
            groups.append(current)
        return groups


def _problem(record) -> str | None:
    """Why ``record`` is not a usable trace record (``None``: it is)."""
    kind = record.get("kind") if isinstance(record, dict) else None
    if kind not in _REQUIRED:
        return "not a trace record"
    attrs = record.get("attrs", {})
    if not isinstance(attrs, dict):
        return f"{kind} record: 'attrs' is not an object"
    checks = [(record, _REQUIRED[kind])]
    if kind == "event":
        checks.append((attrs, _REQUIRED_ATTRS.get(record.get("name"), {})))
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
        #: One parsed record per ``serve.request`` event, in order.
        self.requests: list[RequestTrace] = []
        self._events: dict[str, list[dict]] = defaultdict(list)
        for position, record in enumerate(records, 1):
            self.add(record, f"record {position}")

    def add(self, record, where: str) -> None:
        """Validate one record and file it, or log why it was dropped."""
        if isinstance(record, dict) and record.get("kind") == "metric":
            return  # an old trace's registry flush: its numbers are in the stream
        problem = _problem(record)
        if problem is not None:
            self.skipped.append(f"{where}: {problem}")
            return
        self.records.append(record)
        if record["kind"] == "span":
            self.spans.append(record)
            return
        self._events[record["name"]].append(record)
        if record["name"] == "serve.request":
            self.requests.append(RequestTrace.from_event(record))

    def events(self, name: str) -> list[dict]:
        """The event records with the given name, in arrival order."""
        return self._events.get(name, [])

    @property
    def node_timeline(self) -> NodeTimeline | None:
        """The per-node BSP timeline of the ``pregel.node`` events (one
        per node per super-step, in execution order); ``None`` when the
        run never entered the engine.  Built from the records each time
        it is read.
        """
        nodes = self.events("pregel.node")
        if not nodes:
            return None
        slices = []
        for record in nodes:
            attrs = record["attrs"]
            slices.append(
                NodeSlice(
                    recv_bytes=attrs.get("recv_bytes", 0),
                    **{name: attrs[name] for name in _NODE_FIELDS},
                )
            )
        return NodeTimeline(
            num_nodes=max(piece.node for piece in slices) + 1,
            slices=slices,
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
