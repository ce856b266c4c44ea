"""``repro.telemetry`` — the event stream: records, sinks, one reader.

Every instrumented code path emits into one stream; whatever observes
a run is a sink on it or a view over what a sink wrote:

- :mod:`~repro.telemetry.spans` — the record types: nested, timestamped
  :class:`Span` intervals carrying wall *and* simulated seconds,
  point-in-time :class:`TraceEvent` records, and the per-request
  :class:`RequestTrace` a ``serve.request`` event carries;
- :mod:`~repro.telemetry.tracing` — the request-tracing slot the
  serving path writes its per-request stages to;
- :mod:`~repro.telemetry.sinks` — the sink protocol and its in-memory,
  JSONL-file, and stdlib-logging implementations;
- :mod:`~repro.telemetry.reader` — ``Trace``, the one validating parser
  of an exported stream, and the per-node ``NodeTimeline`` it rebuilds.

No registry keeps a second record: a count or a distribution is read
from the records that carry it.  Every view of the stream (``repro
trace`` and ``repro top``, the exporters) lives in
:mod:`repro.observe`, and nothing here imports from it.

Telemetry is off by default and near-free when off: instrumented code
checks one attribute (``tracer.enabled``) and moves on.  Turn it on for
a block of work with :func:`session`::

    from repro.telemetry import session
    from repro.telemetry.sinks import JsonlSink

    with session([JsonlSink("run.jsonl")]):
        build_index(graph, method="drl-b")

On exit the session closes its sinks.  See ``docs/observability.md``
for the JSONL schema.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.telemetry.spans import (
    NULL_TRACER,
    NullTracer,
    RequestTrace,
    Span,
    TraceEvent,
    Tracer,
    activate,
    current_tracer,
    set_tracer,
    trace_event,
    trace_span,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "RequestTrace",
    "Span",
    "TraceEvent",
    "Tracer",
    "activate",
    "current_tracer",
    "enabled",
    "session",
    "set_tracer",
    "trace_event",
    "trace_span",
]


def enabled() -> bool:
    """True when a real tracer is installed (telemetry session active)."""
    return current_tracer().enabled


@contextmanager
def session(sinks=()) -> Iterator[Tracer]:
    """Run a telemetry session: install a tracer over ``sinks``.

    On exit the sinks are closed and the previous tracer is restored —
    sessions nest cleanly.
    """
    tracer = Tracer(sinks)
    try:
        with activate(tracer):
            yield tracer
    finally:
        for sink in tracer.sinks:
            sink.close()
