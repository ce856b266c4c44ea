"""Observability for the serving path: tracing, windows, SLOs, dashboard.

Views over the one event stream (:mod:`repro.telemetry`): everything
here reads a :class:`~repro.telemetry.reader.Trace`.

- :mod:`repro.observe.tracing` — request-scoped causal tracing: a
  trace ID per admitted query, per-hop stages (admission → cache →
  store → backend/fallback) on the stream's
  :class:`~repro.telemetry.spans.RequestTrace` record, terminal events
  for shed and deadline-dropped requests;
- :mod:`repro.observe.windows` — the per-window hot-key and
  latency-regression detectors;
- :mod:`repro.observe.serve_report` — ``ServeReport``, what one
  serving run measured, built by one constructor for the server and
  for the dashboard;
- :mod:`repro.observe.slo` — declarative SLO specs with error-budget
  accounting and multi-window burn-rate alerts, priced by one
  ``BurnTracker``;
- :mod:`repro.observe.dashboard` — the ``repro top`` model: the run's
  ``ServeReport`` tallied from a ``Trace``, plus shard traffic, lag
  peaks, windows, alerts and worst traces;
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
from repro.observe.openmetrics import render_openmetrics
from repro.observe.slo import (
    BurnRate,
    BurnTracker,
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
    "BurnTracker",
    "BurnWindow",
    "DashboardModel",
    "HotKey",
    "HotKeyDetector",
    "LatencyRegressionDetector",
    "RequestTrace",
    "SLOSpec",
    "SLOStatus",
    "TraceIdGenerator",
    "WindowRow",
    "add_stage",
    "begin_request",
    "current_request",
    "default_windows",
    "end_request",
    "evaluate_slo",
    "evaluate_slos",
    "format_request",
    "load_slo_specs",
    "render_openmetrics",
]
