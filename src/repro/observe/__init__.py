"""``repro.observe`` — every view of the one event stream.

Everything here reads a :class:`~repro.telemetry.reader.Trace` (or,
for the SLO and window detectors, the requests one holds); the stream
itself, and the request-tracing slot the serving path writes to, are
:mod:`repro.telemetry`.

- :mod:`repro.observe.report` — the ``repro trace`` / ``repro
  profile`` text reports: top spans, bench cell tables, super-step
  rows, request overviews, the skew report and the critical path;
- :mod:`repro.observe.skew` — per-node load attribution over a
  :class:`~repro.telemetry.reader.NodeTimeline`: imbalance metrics
  (max/mean load ratio, Gini coefficient, barrier-wait share),
  straggler and hot-partition nodes, and the speedup perfect
  rebalancing would buy;
- :mod:`repro.observe.export` — Chrome trace-event JSON (one "process"
  per simulated node; load it in Perfetto or ``chrome://tracing``)
  and folded stacks for flamegraphs;
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
imports *this* package for its ``ServeReport``, keeping the dependency
one-way.  The package loads the serving views only: import ``report``,
``skew`` and ``export`` by their module paths.
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
    "SLOSpec",
    "SLOStatus",
    "WindowRow",
    "default_windows",
    "evaluate_slo",
    "evaluate_slos",
    "format_request",
    "load_slo_specs",
    "render_openmetrics",
]
