"""``repro.telemetry`` — the event stream: records, sinks, one reader.

Every instrumented code path emits into one stream; whatever observes
a run is a sink on it or a view over what a sink wrote:

- :mod:`~repro.telemetry.spans` — the record types: nested, timestamped
  :class:`Span` intervals carrying wall *and* simulated seconds,
  point-in-time :class:`TraceEvent` records, and the per-request
  :class:`RequestTrace` a ``serve.request`` event carries;
- :mod:`~repro.telemetry.metrics` — counters, gauges, and fixed-bucket
  histograms in a :class:`MetricsRegistry`;
- :mod:`~repro.telemetry.sinks` — the sink protocol and its in-memory,
  JSONL-file, and stdlib-logging implementations;
- :mod:`~repro.telemetry.reader` — ``Trace``, the one validating parser
  of an exported stream;
- :mod:`~repro.telemetry.report` — the ``repro trace`` / ``repro
  profile`` text reports over a ``Trace``.

Telemetry is off by default and near-free when off: instrumented code
checks one attribute (``tracer.enabled``) and moves on.  Turn it on for
a block of work with :func:`session`::

    from repro.telemetry import session
    from repro.telemetry.sinks import JsonlSink

    with session([JsonlSink("run.jsonl")]):
        build_index(graph, method="drl-b")

On exit the session flushes the metrics registry into every sink and
closes them.  See ``docs/observability.md`` for the JSONL schema.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Iterator

from repro.telemetry.metrics import (
    ACTIVE_VERTEX_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    exponential_buckets,
)
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
    "ACTIVE_VERTEX_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "RequestTrace",
    "Span",
    "TraceEvent",
    "Tracer",
    "activate",
    "attached",
    "current_metrics",
    "current_tracer",
    "enabled",
    "exponential_buckets",
    "session",
    "set_tracer",
    "trace_event",
    "trace_span",
]

_metrics = MetricsRegistry()


def current_metrics() -> MetricsRegistry:
    """The active metrics registry (a fresh one inside each session)."""
    return _metrics


def enabled() -> bool:
    """True when a real tracer is installed (telemetry session active)."""
    return current_tracer().enabled


@contextmanager
def session(sinks=()) -> Iterator[Tracer]:
    """Run a telemetry session: install a tracer and a fresh registry.

    On exit the registry's metrics are flushed to every sink
    (``on_metrics``), the sinks are closed, and the previous
    tracer/registry are restored — sessions nest cleanly.
    """
    global _metrics
    tracer = Tracer(sinks)
    previous_metrics = _metrics
    _metrics = MetricsRegistry()
    try:
        with activate(tracer):
            yield tracer
    finally:
        for sink in tracer.sinks:
            sink.on_metrics(_metrics)
            sink.close()
        _metrics = previous_metrics


@contextmanager
def attached(sink) -> Iterator[Tracer]:
    """Lend ``sink`` the stream for the duration of the block.

    The sink joins the active session's tracer — or, with telemetry
    off, that of a session opened for the block — and leaves it on exit.
    It sees the same spans and events either way (the flight recorder
    need not know whether ``--trace-out`` is exporting the run too) and
    is neither flushed into nor closed: its owner does that.
    """
    with ExitStack() as stack:
        tracer = current_tracer()
        if not tracer.enabled:
            tracer = stack.enter_context(session())
        tracer.sinks.append(sink)
        stack.callback(tracer.sinks.remove, sink)
        yield tracer
