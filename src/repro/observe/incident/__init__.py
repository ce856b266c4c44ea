"""Flight recorder + automated incident analysis.

The serving stack's *black box*: a bounded
:class:`~repro.observe.incident.recorder.FlightRecorder` ring buffer
over the unified event stream, a
:class:`~repro.observe.incident.triggers.TriggerEngine` that lands
self-contained incident bundles when an SLO burns, a failover happens,
a shard goes unavailable, or a scenario assertion fails, and a causal
engine (:func:`~repro.observe.incident.causal.analyze_bundle`) that
walks a bundle backwards into a ranked post-mortem.  Surfaced on the
command line as ``repro incident list|show|report``.

Like the rest of :mod:`repro.observe`, nothing here imports from
:mod:`repro.serve`: the pipeline, the replicated store, and the
scenario runner push events *into* the recorder.
"""

from repro.observe.incident.causal import (
    IncidentReport,
    RootCause,
    TimelineEntry,
    analyze_bundle,
)
from repro.observe.incident.recorder import FlightRecorder
from repro.observe.incident.report import (
    find_bundle,
    format_bundle_row,
    list_bundles,
    load_bundle,
    render_bundle,
    render_incident_report,
    summarize_bundle,
)
from repro.observe.incident.triggers import (
    TRIGGER_KINDS,
    TriggerEngine,
)

__all__ = [
    "FlightRecorder",
    "IncidentReport",
    "RootCause",
    "TRIGGER_KINDS",
    "TimelineEntry",
    "TriggerEngine",
    "analyze_bundle",
    "find_bundle",
    "format_bundle_row",
    "list_bundles",
    "load_bundle",
    "render_bundle",
    "render_incident_report",
    "summarize_bundle",
]
