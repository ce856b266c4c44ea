"""One-shot OpenMetrics text exposition of a dashboard snapshot.

``repro top --openmetrics`` renders a :class:`~repro.observe.dashboard.
DashboardModel` (its ``ServeReport`` and what it derives from the
stages) in the `OpenMetrics text format
<https://prometheus.io/docs/specs/om/open_metrics_spec/>`_, so the
simulator's serving counters scrape into any Prometheus-compatible
stack without an exporter sidecar: counters get a ``_total`` sample,
the served-latency distribution becomes a cumulative ``_bucket``
histogram over the telemetry layer's standard latency buckets, and the
exposition ends with the mandatory ``# EOF`` terminator.

The output is deterministic for a given trace (floats use ``repr``,
families are emitted in a fixed order), which is what makes the
golden-file test possible.
"""

from __future__ import annotations

from repro.observe.dashboard import DashboardModel
from repro.telemetry import LATENCY_BUCKETS

#: Metric-family prefix for everything exposed here.
PREFIX = "repro_serve"


def _fmt(value) -> str:
    """A number in OpenMetrics sample syntax (repr: shortest exact)."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_openmetrics(model: DashboardModel) -> str:
    """The full exposition for one dashboard snapshot."""
    lines: list[str] = []

    def counter(name: str, help_text: str, value) -> None:
        full = f"{PREFIX}_{name}"
        lines.append(f"# TYPE {full} counter")
        lines.append(f"# HELP {full} {help_text}")
        lines.append(f"{full}_total {_fmt(value)}")

    def gauge(name: str, help_text: str, value) -> None:
        full = f"{PREFIX}_{name}"
        lines.append(f"# TYPE {full} gauge")
        lines.append(f"# HELP {full} {help_text}")
        lines.append(f"{full} {_fmt(value)}")

    report = model.report
    counter("requests", "Requests offered to the server.", report.offered)
    counter("served", "Requests answered before any drop point.", report.served)
    counter("shed", "Requests shed at the admission queue.", report.shed)
    counter(
        "deadline_dropped",
        "Requests dropped past their deadline at dequeue.",
        report.deadline_dropped,
    )
    counter("failed", "Requests failed with no serving replica.", report.failed)
    counter("failovers", "Primary failovers observed in the trace.", report.failovers)
    counter("positives", "Served queries whose answer was reachable.", report.positives)
    counter("cache_hits", "Query-cache hits.", report.cache_hits)
    counter("cache_misses", "Query-cache misses.", report.cache_misses)
    counter("store_fetches", "Label-store fetches.", model.store_fetches)
    counter(
        "remote_fetches",
        "Store fetches that crossed to a remote shard.",
        model.remote_fetches,
    )
    counter(
        "confirmed_reads",
        "Stale follower reads confirmed against the leader.",
        report.confirmed_reads,
    )
    counter(
        "stale_reads",
        "Follower reads served stale under the monotonicity guard.",
        report.stale_reads,
    )
    counter(
        "forced_catchups",
        "Follower catch-ups forced by the staleness bound.",
        report.forced_catchups,
    )
    counter("hedges_won", "Hedged reads resolved by the faster replica.", report.hedges_won)
    gauge(
        "makespan_seconds",
        "Simulated span of the serving run.",
        report.makespan_seconds,
    )
    gauge(
        "traced_fraction",
        "Fraction of served requests with a full stage chain.",
        model.traced_fraction,
    )
    gauge(
        "replication_lag_peak",
        "Worst follower lag (ops) sampled during the run.",
        model.replication_lag_peak,
    )

    # Served latency as a cumulative histogram over the telemetry
    # layer's standard exponential buckets.
    full = f"{PREFIX}_latency_seconds"
    lines.append(f"# TYPE {full} histogram")
    lines.append(f"# HELP {full} Served request latency (simulated seconds).")
    latencies = model.latencies  # already sorted ascending
    cumulative = 0
    i = 0
    for bound in LATENCY_BUCKETS:
        while i < len(latencies) and latencies[i] <= bound:
            cumulative += 1
            i += 1
        lines.append(f'{full}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
    lines.append(f'{full}_bucket{{le="+Inf"}} {len(latencies)}')
    lines.append(f"{full}_count {len(latencies)}")
    lines.append(f"{full}_sum {_fmt(sum(latencies))}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"
