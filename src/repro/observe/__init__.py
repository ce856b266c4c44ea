"""Observability for the serving path: tracing, windows, SLOs, dashboard.

Views and sinks over the one event stream (:mod:`repro.telemetry`):
everything here reads a :class:`~repro.telemetry.reader.Trace` or, like
the flight recorder, is a sink :func:`~repro.telemetry.attached` to it.

- :mod:`repro.observe.tracing` — request-scoped causal tracing: a
  trace ID per admitted query, per-hop stages (admission → cache →
  store → backend/fallback) on the stream's
  :class:`~repro.telemetry.spans.RequestTrace` record, terminal events
  for shed and deadline-dropped requests;
- :mod:`repro.observe.windows` — the per-window hot-key and
  latency-regression detectors;
- :mod:`repro.observe.slo` — declarative SLO specs with error-budget
  accounting and multi-window burn-rate alerts;
- :mod:`repro.observe.dashboard` — the ``repro top`` model: a full
  dashboard (throughput, percentiles, hit/shed rates, shard traffic,
  replication health, alerts, worst traces) computed from a ``Trace``;
- :mod:`repro.observe.incident` — the flight recorder: a bounded ring
  buffer that is one more sink on the stream, a trigger engine landing
  self-contained incident bundles, and a causal engine producing
  ranked root-cause post-mortems (``repro incident``);
- :mod:`repro.observe.openmetrics` — one-shot OpenMetrics text
  exposition of a dashboard snapshot (``repro top --openmetrics``).

Nothing here imports from :mod:`repro.serve`; the serving pipeline
imports *this* package, keeping the dependency one-way.
"""

from repro.observe.dashboard import (
    DashboardModel,
    WindowRow,
    format_request,
)
from repro.observe.incident import (
    FlightRecorder,
    IncidentReport,
    RootCause,
    SLOBurnTrigger,
    TriggerEngine,
    analyze_bundle,
    list_bundles,
    load_bundle,
)
from repro.observe.openmetrics import render_openmetrics
from repro.observe.slo import (
    BurnRate,
    BurnWindow,
    SLOSpec,
    SLOStatus,
    default_windows,
    evaluate_slo,
    evaluate_slos,
    load_slo_specs,
)
from repro.observe.tracing import (
    RequestTrace,
    TraceIdGenerator,
    add_stage,
    begin_request,
    current_request,
    end_request,
)
from repro.observe.windows import (
    HotKey,
    HotKeyDetector,
    LatencyRegressionDetector,
)

__all__ = [
    "BurnRate",
    "BurnWindow",
    "DashboardModel",
    "FlightRecorder",
    "HotKey",
    "HotKeyDetector",
    "IncidentReport",
    "LatencyRegressionDetector",
    "RequestTrace",
    "RootCause",
    "SLOBurnTrigger",
    "SLOSpec",
    "SLOStatus",
    "TraceIdGenerator",
    "TriggerEngine",
    "WindowRow",
    "add_stage",
    "analyze_bundle",
    "begin_request",
    "current_request",
    "default_windows",
    "end_request",
    "evaluate_slo",
    "evaluate_slos",
    "format_request",
    "list_bundles",
    "load_bundle",
    "load_slo_specs",
    "render_openmetrics",
]
