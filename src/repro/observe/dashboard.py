"""The ``repro top`` dashboard: one serving run at a glance.

Builds a :class:`DashboardModel` from a
:class:`~repro.telemetry.reader.Trace` — the ``serve.request`` events
written by :class:`~repro.serve.pipeline.QueryServer` under a telemetry
session — and renders it as a live-refreshing console dashboard or a
single JSON snapshot (``--once --json``) for scripting.

The model recomputes throughput, latency percentiles, and the cache
hit rate with exactly the arithmetic
:class:`~repro.serve.pipeline.ServeReport` uses (nearest-rank
percentiles over served latencies), so the dashboard and the bench
report agree to the float on a single-run trace.  On top of the run
totals it layers the window machinery from
:mod:`repro.observe.windows` (per-window rates, p99, hot pairs,
latency-regression flags) and, given specs, the SLO engine from
:mod:`repro.observe.slo`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.observe.slo import SLOSpec, SLOStatus, evaluate_slos
from repro.observe.tracing import SERVER_STAGES
from repro.observe.windows import (
    HotKey,
    HotKeyDetector,
    LatencyRegressionDetector,
)
from repro.telemetry.metrics import sorted_percentile
from repro.telemetry.reader import Trace
from repro.telemetry.spans import RequestTrace

#: Default number of windows the run's span is divided into.
DEFAULT_WINDOW_COUNT = 12

#: Weight of the newest window in a row's ``ewma_rate``.
_RATE_EWMA_ALPHA = 0.3


@dataclass
class WindowRow:
    """One dashboard window: traffic, tail latency, detector flags."""

    index: int
    start: float
    end: float
    offered: int = 0
    served: int = 0
    shed: int = 0
    deadline_dropped: int = 0
    p99_seconds: float = 0.0
    rate: float = 0.0           # served per simulated second
    ewma_rate: float = 0.0
    regression: bool = False
    hot_keys: list[HotKey] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "offered": self.offered,
            "served": self.served,
            "shed": self.shed,
            "deadline_dropped": self.deadline_dropped,
            "p99_seconds": self.p99_seconds,
            "rate": self.rate,
            "ewma_rate": self.ewma_rate,
            "regression": self.regression,
            "hot_keys": [
                {"key": list(h.key), "count": h.count, "share": h.share}
                for h in self.hot_keys
            ],
        }


@dataclass
class DashboardModel:
    """Everything ``repro top`` shows, computed once from a trace."""

    requests: list[RequestTrace]
    runs: int
    offered: int
    served: int
    shed: int
    deadline_dropped: int
    failed: int
    failovers: int
    positives: int
    makespan_seconds: float
    latencies: list[float]  # served, sorted
    cache_hits: int
    cache_misses: int
    store_fetches: int
    remote_fetches: int
    shard_loads: dict[int, int]
    stage_counts: dict[str, int]
    traced_fraction: float
    windows: list[WindowRow]
    worst: list[RequestTrace]
    slos: list[SLOStatus]
    # Replication health, rebuilt from stage attrs + replica.lag events.
    confirmed_reads: int = 0
    stale_reads: int = 0
    forced_catchups: int = 0
    hedges_won: int = 0
    replication_lag_peak: int = 0
    group_lag_peaks: dict[str, int] = field(default_factory=dict)
    #: Open incident summaries (see repro.observe.incident), attached
    #: by the CLI when ``--incidents`` points at a bundle directory.
    incidents: list[dict] = field(default_factory=list)

    # -- construction --------------------------------------------------
    @classmethod
    def from_trace(
        cls,
        trace: Trace,
        *,
        run: int | None = None,
        window_seconds: float | None = None,
        specs: list[SLOSpec] | None = None,
        slowest: int = 5,
        incidents: list[dict] | None = None,
    ) -> "DashboardModel":
        """Build the model from a trace.

        ``run`` selects the n-th serving run in the trace (1-based, in
        order of appearance) when one trace holds several — e.g.
        serve-bench's cached and uncached rows; the default aggregates
        them all.  A run is the ``serve.run`` span its requests — and
        its failover and lag events — were emitted under.
        """
        requests = trace.requests
        failovers = trace.events("serve.failover")
        # Replicator lag samples: the store emits one replica.lag event
        # whenever the worst follower lag changes, carrying per-group
        # lags; the dashboard keeps the peaks.
        lag_samples = trace.events("replica.lag")
        run_ids = list(dict.fromkeys(request.run for request in requests))
        if run is not None:
            if not 1 <= run <= len(run_ids):
                raise ValueError(
                    f"trace holds {len(run_ids)} serving run(s); "
                    f"--run {run} is out of range"
                )
            wanted = run_ids[run - 1]
            requests = [r for r in requests if r.run == wanted]
            failovers = [e for e in failovers if e.get("span") == wanted]
            lag_samples = [e for e in lag_samples if e.get("span") == wanted]
            runs = 1
        else:
            runs = len(run_ids)
        replication_lag_peak = 0
        group_lag_peaks: dict[str, int] = {}
        for sample in lag_samples:
            attrs = sample.get("attrs", {})
            replication_lag_peak = max(replication_lag_peak, attrs.get("lag", 0))
            for group, lag in (attrs.get("groups") or {}).items():
                group_lag_peaks[group] = max(group_lag_peaks.get(group, 0), lag)

        served_requests = [r for r in requests if r.outcome == "served"]
        shed = sum(1 for r in requests if r.outcome == "shed")
        deadline_dropped = sum(1 for r in requests if r.outcome == "deadline")
        failed = sum(1 for r in requests if r.outcome == "error")
        latencies = sorted(r.latency_seconds for r in served_requests)
        makespan = max(
            (r.arrival + r.latency_seconds for r in served_requests),
            default=max((r.arrival for r in requests), default=0.0),
        )

        cache_hits = cache_misses = store_fetches = remote_fetches = 0
        positives = 0
        confirmed_reads = forced_catchups = hedges_won = stale_reads = 0
        shard_loads: dict[int, int] = {}
        stage_counts: dict[str, int] = {}
        fully_traced = 0
        server_stages = set(SERVER_STAGES)
        for request in requests:
            seen = set()
            lagged_store = False
            for stage in request.stages:
                name = stage.get("stage", "?")
                seen.add(name)
                stage_counts[name] = stage_counts.get(name, 0) + 1
                if name == "cache":
                    if stage.get("hit"):
                        cache_hits += 1
                    else:
                        cache_misses += 1
                elif name == "store":
                    store_fetches += 1
                    if stage.get("hedge_won"):
                        hedges_won += 1
                    if stage.get("lag"):
                        lagged_store = True
                    home = stage.get("home")
                    if home is not None:
                        shard_loads[home] = shard_loads.get(home, 0) + 1
                    remote = stage.get("remote")
                    if remote is not None:
                        remote_fetches += 1
                        shard_loads[remote] = shard_loads.get(remote, 0) + 1
                elif name == "backend" and stage.get("answer"):
                    positives += 1
            if "confirm" in seen:
                confirmed_reads += 1
            if "catchup" in seen:
                forced_catchups += 1
            # A guarded stale read: the store served from a lagging
            # follower and monotonicity proved no confirmation needed.
            if lagged_store and "confirm" not in seen and "catchup" not in seen:
                stale_reads += 1
            if request.outcome == "served" and server_stages <= seen:
                fully_traced += 1
        traced_fraction = (
            fully_traced / len(served_requests) if served_requests else 0.0
        )

        windows = cls._build_windows(requests, makespan, window_seconds)
        worst = sorted(
            served_requests, key=lambda r: (-r.latency_seconds, r.trace_id)
        )[: max(slowest, 0)]
        # SLO burn windows end at the latest *arrival* (the timeline
        # requests live on), not the makespan: the server may finish
        # draining long after the last request arrived, and a burn
        # window past the arrivals would always be empty.
        slos = evaluate_slos(specs, requests) if specs else []

        return cls(
            requests=requests,
            runs=runs,
            offered=len(requests),
            served=len(served_requests),
            shed=shed,
            deadline_dropped=deadline_dropped,
            failed=failed,
            failovers=len(failovers),
            positives=positives,
            makespan_seconds=makespan,
            latencies=latencies,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            store_fetches=store_fetches,
            remote_fetches=remote_fetches,
            shard_loads=shard_loads,
            stage_counts=stage_counts,
            traced_fraction=traced_fraction,
            windows=windows,
            worst=worst,
            slos=slos,
            confirmed_reads=confirmed_reads,
            stale_reads=stale_reads,
            forced_catchups=forced_catchups,
            hedges_won=hedges_won,
            replication_lag_peak=replication_lag_peak,
            group_lag_peaks=dict(sorted(group_lag_peaks.items())),
            incidents=list(incidents or []),
        )

    @staticmethod
    def _build_windows(
        requests: list[RequestTrace],
        makespan: float,
        window_seconds: float | None,
    ) -> list[WindowRow]:
        if not requests or makespan <= 0:
            return []
        start = min(r.arrival for r in requests)
        span = makespan - start
        if span <= 0:
            return []
        if window_seconds is None or window_seconds <= 0:
            window_seconds = span / DEFAULT_WINDOW_COUNT
        count = max(1, -(-span // window_seconds).__int__())
        rows = [
            WindowRow(
                index=i,
                start=start + i * window_seconds,
                end=min(start + (i + 1) * window_seconds, makespan),
            )
            for i in range(count)
        ]
        buckets: list[list[RequestTrace]] = [[] for _ in rows]
        for request in requests:
            i = min(int((request.arrival - start) / window_seconds), count - 1)
            buckets[i].append(request)
        regressions = LatencyRegressionDetector()
        hot = HotKeyDetector()
        previous_end = start
        ewma_rate = None
        for row, bucket in zip(rows, buckets):
            row.offered = len(bucket)
            window_latencies = sorted(
                r.latency_seconds for r in bucket if r.outcome == "served"
            )
            row.served = len(window_latencies)
            row.shed = sum(1 for r in bucket if r.outcome == "shed")
            row.deadline_dropped = sum(
                1 for r in bucket if r.outcome == "deadline"
            )
            row.p99_seconds = sorted_percentile(window_latencies, 0.99)
            duration = row.end - previous_end
            previous_end = row.end
            if duration > 0:
                row.rate = row.served / duration
                ewma_rate = (
                    row.rate
                    if ewma_rate is None
                    else _RATE_EWMA_ALPHA * row.rate
                    + (1 - _RATE_EWMA_ALPHA) * ewma_rate
                )
            # An instantaneous window has no rate and must not drag the
            # EWMA toward zero: the row keeps 0.0 and the last average.
            row.ewma_rate = ewma_rate or 0.0
            row.regression = (
                regressions.observe(row.p99_seconds) if window_latencies else False
            )
            pair_counts: dict[tuple[int, int], int] = {}
            for request in bucket:
                key = (request.source, request.target)
                pair_counts[key] = pair_counts.get(key, 0) + 1
            row.hot_keys = hot.observe(pair_counts)
        return rows

    # -- derived numbers ----------------------------------------------
    @property
    def throughput(self) -> float:
        if not self.makespan_seconds:
            return 0.0
        return self.served / self.makespan_seconds

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    def percentile(self, fraction: float) -> float:
        return sorted_percentile(self.latencies, fraction)

    @property
    def firing_alerts(self) -> list[dict]:
        alerts = []
        for status in self.slos:
            for burn in status.firing:
                alerts.append(
                    {
                        "slo": status.spec.name,
                        "severity": burn.window.severity,
                        "long_burn": burn.long_burn,
                        "short_burn": burn.short_burn,
                        "burn_threshold": burn.window.burn_threshold,
                    }
                )
        return alerts

    # -- output --------------------------------------------------------
    def to_json(self) -> dict:
        """The ``repro top --once --json`` payload."""
        return {
            "runs": self.runs,
            "offered": self.offered,
            "served": self.served,
            "shed": self.shed,
            "deadline_dropped": self.deadline_dropped,
            "failed": self.failed,
            "failovers": self.failovers,
            "positives": self.positives,
            "makespan_seconds": self.makespan_seconds,
            "throughput": self.throughput,
            "p50_seconds": self.percentile(0.50),
            "p99_seconds": self.percentile(0.99),
            "p999_seconds": self.percentile(0.999),
            "max_seconds": self.latencies[-1] if self.latencies else 0.0,
            "hit_rate": self.cache_hit_rate,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "shed_rate": self.shed_rate,
            "store_fetches": self.store_fetches,
            "remote_fetches": self.remote_fetches,
            "shard_loads": {
                str(shard): count
                for shard, count in sorted(self.shard_loads.items())
            },
            "stage_counts": dict(sorted(self.stage_counts.items())),
            "traced_fraction": self.traced_fraction,
            "replication": {
                "confirmed_reads": self.confirmed_reads,
                "stale_reads": self.stale_reads,
                "forced_catchups": self.forced_catchups,
                "hedges_won": self.hedges_won,
                "lag_peak": self.replication_lag_peak,
                "group_lag_peaks": dict(self.group_lag_peaks),
            },
            "incidents": list(self.incidents),
            "windows": [w.to_dict() for w in self.windows],
            "slos": [s.to_dict() for s in self.slos],
            "alerts": self.firing_alerts,
            "worst": [
                {
                    "trace_id": r.trace_id,
                    "source": r.source,
                    "target": r.target,
                    "latency_seconds": r.latency_seconds,
                    "stages": list(r.stages),
                }
                for r in self.worst
            ],
        }

    def render(self) -> str:
        """The console dashboard."""
        lines = [
            f"serve dashboard — {self.offered} requests"
            + (f" across {self.runs} runs" if self.runs > 1 else ""),
            f"  throughput {self.throughput:,.0f} q/s over "
            f"{self.makespan_seconds:.3e} s",
            f"  served {self.served}/{self.offered} "
            f"({1 - self.shed_rate - (self.deadline_dropped / self.offered if self.offered else 0):.1%})"
            f"   shed {self.shed} ({self.shed_rate:.1%})"
            f"   deadline {self.deadline_dropped}"
            + (f"   failed {self.failed}" if self.failed else "")
            + (f"   failovers {self.failovers}" if self.failovers else ""),
            f"  latency p50 {self.percentile(0.50):.2e}s  "
            f"p99 {self.percentile(0.99):.2e}s  "
            f"p999 {self.percentile(0.999):.2e}s  "
            f"max {(self.latencies[-1] if self.latencies else 0.0):.2e}s",
        ]
        lookups = self.cache_hits + self.cache_misses
        if lookups:
            lines.append(
                f"  cache {self.cache_hit_rate:.1%} hit "
                f"({self.cache_hits} hits / {self.cache_misses} misses)"
            )
        if self.shard_loads:
            loads = [
                f"s{shard}:{count}"
                for shard, count in sorted(self.shard_loads.items())
            ]
            lines.append(
                f"  shards: {self.store_fetches} fetches "
                f"({self.remote_fetches} remote)  " + " ".join(loads)
            )
        if (
            self.confirmed_reads
            or self.stale_reads
            or self.forced_catchups
            or self.hedges_won
            or self.replication_lag_peak
        ):
            groups = " ".join(
                f"g{group}:{lag}"
                for group, lag in sorted(self.group_lag_peaks.items())
            )
            lines.append(
                f"  replication: lag peak {self.replication_lag_peak}"
                + (f" ({groups})" if groups else "")
                + f"  confirmed {self.confirmed_reads}"
                f"  stale {self.stale_reads}"
                f"  catchups {self.forced_catchups}"
                f"  hedges won {self.hedges_won}"
            )
        lines.append(f"  traced: {self.traced_fraction:.1%} of served requests")

        if self.incidents:
            lines.append("")
            lines.append(f"Open incidents ({len(self.incidents)})")
            for incident in self.incidents:
                lines.append(
                    f"  {incident.get('id', '?')}  {incident.get('kind', '?')} "
                    f"at {incident.get('at', 0.0):.3e}s"
                    + (
                        f"  -> {incident['root_cause']}"
                        if incident.get("root_cause")
                        else ""
                    )
                )

        if self.windows:
            lines.append("")
            lines.append(
                f"Windows ({len(self.windows)} x "
                f"{self.windows[0].end - self.windows[0].start:.2e} s)"
            )
            lines.append(
                "    # |  served |    shed |      q/s |      p99 | flags"
            )
            for row in self.windows:
                flags = []
                if row.regression:
                    flags.append("REGRESSION")
                for hot_key in row.hot_keys[:2]:
                    flags.append(f"hot{hot_key.key}@{hot_key.share:.0%}")
                lines.append(
                    f"  {row.index:>3d} | {row.served:>7d} | {row.shed:>7d} | "
                    f"{row.rate:>8.2e} | {row.p99_seconds:>8.2e} | "
                    + (" ".join(flags) if flags else "-")
                )

        if self.slos:
            lines.append("")
            lines.append("SLOs")
            for status in self.slos:
                lines.append("  " + status.summary())

        if self.worst:
            lines.append("")
            lines.append("Worst requests")
            for request in self.worst:
                lines.append("  " + format_request(request))
        return "\n".join(lines)


def format_request(request: RequestTrace) -> str:
    """One request with its per-stage breakdown, as a single line."""
    stages = []
    for stage in request.stages:
        extras = [
            f"{key}={value}"
            for key, value in stage.items()
            if key not in ("stage", "seconds")
        ]
        text = f"{stage.get('stage', '?')} {stage.get('seconds', 0.0):.2e}s"
        if extras:
            text += " (" + " ".join(extras) + ")"
        stages.append(text)
    head = (
        f"{request.trace_id}  q({request.source},{request.target})  "
        f"{request.outcome}"
    )
    if request.reason:
        head += f"[{request.reason}]"
    head += f"  latency {request.latency_seconds:.2e}s"
    if stages:
        head += "  |  " + " -> ".join(stages)
    return head
