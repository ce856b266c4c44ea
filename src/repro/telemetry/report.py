"""Text reports over a :class:`~repro.telemetry.reader.Trace`.

:func:`summarize_trace` (``repro trace``) is the analyst's view of a run:

- **top spans** by total simulated seconds, aggregated by name;
- **bench cell tables** — one per experiment tag, reconstructing the
  comp/comm split of Fig. 5 (or the timing grid of any other
  experiment) from the spans alone;
- a **super-step table** for the run with the most super-steps;
- **histogram percentiles** and counter/gauge values.

:func:`profile_report` (``repro profile``) opens with the same header
and top-spans table and adds the skew report and the critical path.
"""

from __future__ import annotations

from collections import defaultdict

from repro.bench.results import Cell, ExperimentTable
from repro.observe.dashboard import format_request
from repro.profiling.skew import analyze_skew
from repro.telemetry.metrics import percentile_from_record
from repro.telemetry.reader import Trace


# ----------------------------------------------------------------------
# Section builders
# ----------------------------------------------------------------------
def _header(trace: Trace) -> str:
    """The record counts both reports open with."""
    spans = len(trace.spans)
    events = len(trace.records) - spans - len(trace.metrics)
    return f"{len(trace.records)} records: {spans} spans, {events} events"


def top_spans_section(trace: Trace, top: int = 15) -> str:
    """Span names ranked by total simulated seconds."""
    totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for record in trace.spans:
        entry = totals[record["name"]]
        entry[0] += 1
        entry[1] += record.get("simulated_seconds", 0.0)
        entry[2] += record.get("wall_seconds", 0.0)
    ranked = sorted(totals.items(), key=lambda kv: kv[1][1], reverse=True)
    width = max([len(name) for name, _ in ranked[:top]] + [len("Name")])
    title = "Top spans by simulated time"
    lines = [title, "=" * len(title)]
    lines.append(
        f"{'Name'.ljust(width)} | {'count':>6} | {'simulated s':>12} | "
        f"{'wall s':>10}"
    )
    lines.append("-" * len(lines[-1]))
    for name, (count, simulated, wall) in ranked[:top]:
        lines.append(
            f"{name.ljust(width)} | {count:>6d} | {simulated:>12.6f} | "
            f"{wall:>10.6f}"
        )
    return "\n".join(lines)


def bench_cell_tables(trace: Trace) -> list[ExperimentTable]:
    """Rebuild per-experiment comp/comm grids from ``bench.cell`` spans.

    Uses the same split as the harness: *comp* is computation plus
    barrier seconds, *comm* is communication seconds, so the rendered
    numbers match the experiment's own table.
    """
    by_experiment: dict[str, list[dict]] = defaultdict(list)
    for record in trace.spans:
        if record["name"] == "bench.cell":
            experiment = record.get("attrs", {}).get("experiment", "?")
            by_experiment[experiment].append(record)
    tables = []
    for experiment in sorted(by_experiment):
        cells = by_experiment[experiment]
        methods: list[str] = []
        for record in cells:
            method = record.get("attrs", {}).get("method", "?")
            if method not in methods:
                methods.append(method)
        columns = []
        for method in methods:
            columns += [f"{method} comp", f"{method} comm"]
        table = ExperimentTable(
            f"Experiment {experiment} — comp/comm per cell (simulated s)",
            columns,
        )
        for record in cells:
            attrs = record.get("attrs", {})
            dataset = attrs.get("dataset", "?")
            method = attrs.get("method", "?")
            if record.get("status", "ok") != "ok":
                table.set(dataset, f"{method} comp", Cell.timeout())
                table.set(dataset, f"{method} comm", Cell.timeout())
                continue
            comp = attrs.get("computation_seconds", 0.0) + attrs.get(
                "barrier_seconds", 0.0
            )
            table.set(dataset, f"{method} comp", comp)
            table.set(
                dataset, f"{method} comm", attrs.get("communication_seconds", 0.0)
            )
        tables.append(table)
    return tables


def superstep_table(trace: Trace, limit: int = 20) -> ExperimentTable | None:
    """Super-step rows of the longest run (by super-step events)."""
    by_span: dict[int | None, list[dict]] = defaultdict(list)
    for record in trace.events("pregel.superstep"):
        by_span[record.get("span")].append(record)
    if not by_span:
        return None
    events = max(by_span.values(), key=len)
    columns = ["active", "units", "max node units", "remote msgs",
               "remote bytes", "broadcast bytes"]
    shown = min(len(events), limit)
    table = ExperimentTable(
        f"Super-steps of the longest run ({shown} of {len(events)} shown)",
        columns,
        precision=0,
    )
    for event in events[:limit]:
        attrs = event.get("attrs", {})
        row = str(attrs.get("superstep", "?"))
        table.set(row, "active", float(attrs.get("active_vertices", 0)))
        table.set(row, "units", float(attrs.get("compute_units", 0)))
        table.set(row, "max node units", float(attrs.get("max_node_units", 0)))
        table.set(row, "remote msgs", float(attrs.get("remote_messages", 0)))
        table.set(row, "remote bytes", float(attrs.get("remote_bytes", 0)))
        table.set(row, "broadcast bytes", float(attrs.get("broadcast_bytes", 0)))
    return table


def requests_overview_section(trace: Trace) -> str | None:
    """Outcome counts over the trace's ``serve.request`` events."""
    requests = trace.requests
    if not requests:
        return None
    outcomes: dict[str, int] = defaultdict(int)
    reasons: dict[str, int] = defaultdict(int)
    for request in requests:
        outcomes[request.outcome] += 1
        if request.reason:
            reasons[request.reason] += 1
    title = "Request traces"
    lines = [title, "=" * len(title)]
    lines.append(
        f"{len(requests)} traced requests: "
        + ", ".join(f"{count} {name}" for name, count in sorted(outcomes.items()))
    )
    if reasons:
        lines.append(
            "drop reasons: "
            + ", ".join(f"{count} {name}" for name, count in sorted(reasons.items()))
        )
    lines.append("(drill down with `repro top`, `repro trace --slowest N`, "
                 "or `repro trace --trace-id ID`)")
    return "\n".join(lines)


def slowest_requests_section(trace: Trace, n: int) -> str | None:
    """The ``n`` worst served request traces, per-stage breakdown."""
    requests = [
        request for request in trace.requests if request.outcome == "served"
    ]
    if not requests:
        return None
    requests.sort(key=lambda r: (-r.latency_seconds, r.trace_id))
    shown = requests[: max(n, 0)]
    title = f"Slowest {len(shown)} request(s)"
    lines = [title, "=" * len(title)]
    lines.extend(format_request(request) for request in shown)
    return "\n".join(lines)


def metrics_lines(trace: Trace) -> list[str]:
    """Human-readable lines for every exported metric record."""
    lines = []
    for record in trace.metrics:
        name = record["name"]
        if record["metric"] == "histogram":
            count = record.get("count", 0)
            if not count:
                lines.append(f"{name}: histogram, no observations")
                continue
            mean = record.get("sum", 0.0) / count
            lines.append(
                f"{name}: count={count} mean={mean:.3e} "
                f"p50={percentile_from_record(record, 0.50):.3e} "
                f"p95={percentile_from_record(record, 0.95):.3e} "
                f"p99={percentile_from_record(record, 0.99):.3e} "
                f"max={record.get('max') or 0.0:.3e}"
            )
        else:
            lines.append(f"{name}: {record['value']}")
    return lines


def summarize_trace(
    trace: Trace, top: int = 15, superstep_limit: int = 20
) -> str:
    """The full text summary printed by ``repro trace``."""
    sections = [f"{_header(trace)}, {len(trace.metrics)} metrics"]
    if trace.spans:
        sections.append(top_spans_section(trace, top=top))
    overview = requests_overview_section(trace)
    if overview is not None:
        sections.append(overview)
    sections.extend(table.render() for table in bench_cell_tables(trace))
    steps = superstep_table(trace, limit=superstep_limit)
    if steps is not None:
        sections.append(steps.render())
    lines = metrics_lines(trace)
    if lines:
        sections.append("Metrics\n=======\n" + "\n".join(lines))
    return "\n\n".join(sections)


def critical_path(trace: Trace) -> list[tuple[str, float]]:
    """The heaviest root-to-leaf span chain by simulated seconds.

    Follows, from the heaviest root span, the heaviest child at every
    level; returns ``(name, simulated_seconds)`` pairs from root to
    leaf.  Empty when the trace has no spans.
    """
    spans = trace.spans
    if not spans:
        return []
    children: dict[int | None, list[dict]] = defaultdict(list)
    ids = {record["id"] for record in spans}
    for record in spans:
        parent = record.get("parent")
        children[parent if parent in ids else None].append(record)

    def heaviest(candidates: list[dict]) -> dict:
        return max(candidates, key=lambda r: r.get("simulated_seconds", 0.0))

    path = []
    seen: set[int] = set()
    current = heaviest(children[None])
    while True:
        path.append((current["name"], current.get("simulated_seconds", 0.0)))
        seen.add(current["id"])
        below = [r for r in children[current["id"]] if r["id"] not in seen]
        if not below:
            return path
        current = heaviest(below)


def profile_report(trace: Trace, top: int = 15) -> str:
    """The full text report printed by ``repro profile``.

    Sections: record counts, the skew report (when the trace carries
    ``pregel.node`` events), the top-spans table, and the critical
    path.  Traces exported before per-node telemetry still profile —
    they just lose the skew section.
    """
    sections = [
        f"{_header(trace)} ({len(trace.events('pregel.node'))} per-node)"
    ]
    timeline = trace.node_timeline
    if timeline is not None:
        sections.append(analyze_skew(timeline).render())
    else:
        sections.append(
            "no pregel.node events in this trace — re-export with a "
            "telemetry session active to get the skew report"
        )
    if trace.spans:
        sections.append(top_spans_section(trace, top=top))
        chain = critical_path(trace)
        total = max((seconds for _, seconds in chain), default=0.0)
        title = "Critical path (simulated s)"
        lines = [title, "=" * len(title)]
        for depth, (name, seconds) in enumerate(chain):
            share = f" ({seconds / total:.0%} of run)" if total else ""
            lines.append(f"{'  ' * depth}{name}: {seconds:.6f}s{share}")
        sections.append("\n".join(lines))
    return "\n\n".join(sections)
