"""Executes a :class:`~repro.scenarios.spec.ScenarioSpec` end to end.

One call builds the graph and index, stands up the replicated store +
cache + server, replays traffic with the fault schedule and write
burst riding the serving clock, then grades every expectation — and,
for dynamic scenarios, **audits correctness**: every served answer is
recorded with the index version it was served at and re-checked
against a transitive-closure oracle built for that exact version.  The
audit is the teeth behind the library's ``incorrect_answers_max: 0``
assertions: a replica crash during a write burst must not leak a
single wrong answer, and this is where that is proven rather than
assumed.

Everything is deterministic (all randomness is seeded in the spec), so
a scenario that passes passes every time, and a red scenario replays
exactly.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.baselines.transitive_closure import TransitiveClosure
from repro.bench.results import atomic_write_text
from repro.core.dynamic import DynamicReachabilityIndex
from repro.core.tol import tol_index
from repro.graph.partition import PARTITIONER_STRATEGIES
from repro.observe.incident import FlightRecorder, TriggerEngine
from repro.observe.slo import SLOSpec
from repro.scenarios.spec import EXPECTATIONS, ScenarioSpec, load_scenario
from repro.serve.cache import CachingBackend, QueryCache
from repro.serve.mutation import MutationBackend
from repro.serve.faults import Timeline
from repro.serve.pipeline import QueryServer, ServeReport
from repro.serve.replica import BoundedStalenessReplicator, ReplicatedLabelStore
from repro.serve.store import ShardedIndexBackend
from repro.telemetry import attached
from repro.workloads.updates import mixed_update_stream, update_stream


class AuditingBackend:
    """Records ``(version, s, t, answer)`` for every served query.

    Wraps the outermost backend so whatever answer the server is about
    to return — cached, replicated, confirmed, anything — is what gets
    audited.  ``version_of()`` reports the leader index's current
    update count, so the post-run oracle knows exactly which graph each
    answer was served against.
    """

    def __init__(self, inner, version_of):
        self.inner = inner
        self._version_of = version_of
        self.records: list[tuple[int, int, int, bool]] = []

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        answer, seconds = self.inner.query_with_cost(s, t)
        self.records.append((self._version_of(), s, t, answer))
        return answer, seconds


@dataclass
class ExpectationCheck:
    """One graded assertion from the spec's ``expect`` block."""

    name: str
    expected: float
    actual: float
    ok: bool

    def render(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        op = ">=" if self.name.endswith("_min") else "<="
        return f"  [{mark}] {self.name}: {self.actual:g} {op} {self.expected:g}"


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    spec: ScenarioSpec
    report: ServeReport
    checks: list[ExpectationCheck]
    audited: int = 0
    incorrect_answers: int = 0
    events: list[dict] = field(default_factory=list)
    #: Incident bundles the flight recorder landed during the run
    #: (``{"id", "kind", "at", "path"}`` each; empty without a
    #: ``incident_dir``).
    incidents: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Did every expectation hold?"""
        return all(check.ok for check in self.checks)

    def render(self) -> str:
        """Multi-line human-readable result."""
        status = "PASS" if self.ok else "FAIL"
        lines = [f"scenario {self.spec.name}: {status}"]
        if self.spec.description:
            lines.append(f"  {self.spec.description}")
        lines.append(
            f"  {self.report.offered} offered / {self.report.served} served "
            f"(availability {self.report.availability:.2%}), "
            f"p99 {self.report.p99_seconds:.2e}s"
        )
        if self.audited:
            lines.append(
                f"  audit: {self.audited} answers checked against the "
                f"oracle, {self.incorrect_answers} incorrect"
            )
        if self.events:
            names = [e["event"] for e in self.events]
            lines.append(f"  events: {', '.join(names)}")
        if self.incidents:
            lines.append(
                f"  incidents: {len(self.incidents)} bundle(s) — "
                + ", ".join(i["id"] for i in self.incidents)
            )
        lines.extend(check.render() for check in self.checks)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready report (the ``--report`` artifact shape)."""
        return {
            "name": self.spec.name,
            "ok": self.ok,
            "spec": self.spec.to_dict(),
            "report": {
                "offered": self.report.offered,
                "served": self.report.served,
                "shed": self.report.shed,
                "deadline_dropped": self.report.deadline_dropped,
                "failed": self.report.failed,
                "availability": self.report.availability,
                "throughput": self.report.throughput,
                "p50_seconds": self.report.p50_seconds,
                "p99_seconds": self.report.p99_seconds,
                "cache_hit_rate": self.report.cache_hit_rate,
                "failovers": self.report.failovers,
                "replica_timeouts": self.report.replica_timeouts,
                "stale_reads": self.report.stale_reads,
                "confirmed_reads": self.report.confirmed_reads,
                "shard_skew": self.report.shard_skew,
                "mutations_offered": self.report.mutations_offered,
                "mutations_applied": self.report.mutations_applied,
                "mutations_shed": self.report.mutations_shed,
                "update_throughput": self.report.update_throughput,
                "staleness_window_seconds": (
                    self.report.staleness_window_seconds
                ),
            },
            "audit": {
                "audited": self.audited,
                "incorrect_answers": self.incorrect_answers,
            },
            "events": self.events,
            "incidents": self.incidents,
            "checks": [
                {
                    "name": c.name,
                    "expected": c.expected,
                    "actual": c.actual,
                    "ok": c.ok,
                }
                for c in self.checks
            ],
        }


def _expected_span(traffic) -> float:
    """The traffic's expected simulated span, for burn-window sizing."""
    if traffic.shape == "flash":
        return sum(count / rate for count, rate in traffic.phases)
    return traffic.total_requests / traffic.rate


def _incident_slos(spec: ScenarioSpec) -> list[SLOSpec]:
    """SLOs the trigger engine tracks online, derived from ``expect``.

    The availability target comes from the scenario's own
    ``availability_min`` (clamped into the open interval SLOSpec
    accepts), so a run that burns through the budget the scenario
    promises to keep is exactly what lands an ``slo_burn`` bundle.
    """
    target = spec.expect.get("availability_min", 0.999)
    target = min(max(float(target), 0.5), 0.9999)
    slos = [SLOSpec(name="scenario-availability", kind="availability", target=target)]
    p99 = spec.expect.get("p99_max_seconds")
    if p99:
        slos.append(
            SLOSpec(
                name="scenario-latency",
                kind="latency",
                target=0.99,
                threshold_seconds=float(p99),
            )
        )
    return slos


def run_scenario(
    spec: ScenarioSpec,
    request_tracing: bool | None = None,
    incident_dir: str | Path | None = None,
) -> ScenarioResult:
    """Execute one scenario and grade its expectations.

    With ``incident_dir`` a :class:`~repro.observe.incident.FlightRecorder`
    rides the run — attached to the telemetry stream for the serve
    call, next to whatever session is exporting it — and a trigger
    engine lands incident bundles there on failovers, unavailable
    shards, online SLO burn, and (after grading) failed expectations.
    """
    graph = spec.graph.build()
    serving = spec.serving
    partitioner = PARTITIONER_STRATEGIES[serving.partitioner](
        serving.shards, graph.num_vertices
    )

    # --- index + replication -----------------------------------------
    replicator = None
    applied_updates: list[tuple[str, int, int]] = []
    if spec.dynamic:
        leader = DynamicReachabilityIndex(graph)
        leader.subscribe(lambda op, u, v: applied_updates.append((op, u, v)))
        if spec.replication is not None:
            replicator = BoundedStalenessReplicator(
                leader,
                serving.replicas,
                delay_seconds=spec.replication.delay_seconds,
                max_lag=spec.replication.max_lag,
                apply_seconds_per_op=spec.replication.apply_seconds_per_op,
            )
        index = leader
    else:
        index = tol_index(graph)

    store = ReplicatedLabelStore(
        index,
        num_shards=serving.shards,
        partitioner=partitioner,
        replicas=serving.replicas,
        policy=serving.policy,
        replicator=replicator,
    )

    # --- backend chain: audit(cache(store)) --------------------------
    backend = ShardedIndexBackend(store)
    cache = None
    if serving.cache_size:
        cache = QueryCache(
            capacity=serving.cache_size,
            negative_caching=serving.negative_cache,
        )
        if spec.dynamic:
            cache.attach(index)
        backend = CachingBackend(backend, cache)
    auditor = AuditingBackend(backend, lambda: len(applied_updates))
    backend = auditor

    # --- the write burst, scheduled on the serving clock -------------
    pending_updates: list[tuple[float, tuple[str, int, int]]] = []
    serve_writes = spec.updates is not None and spec.updates.via == "serve"
    if spec.updates is not None:
        if spec.updates.node_ratio or spec.updates.promote_ratio:
            stream = mixed_update_stream(
                graph,
                spec.updates.count,
                insert_ratio=spec.updates.insert_ratio,
                node_ratio=spec.updates.node_ratio,
                promote_ratio=spec.updates.promote_ratio,
                seed=spec.updates.seed,
            )
        else:
            # Edge-only bursts keep using the original generator, so
            # committed scenarios replay byte-identical streams.
            stream = update_stream(
                graph,
                spec.updates.count,
                insert_ratio=spec.updates.insert_ratio,
                seed=spec.updates.seed,
            )
        pending_updates = [
            (spec.updates.start_seconds + i * spec.updates.interval_seconds, op)
            for i, op in enumerate(stream)
        ]

    # --- one schedule on the serving clock: leader writes (unless they
    # arrive through the admission queue, ``via: serve``), then the fault
    # plan — a write and a fault due at the same instant fire in that
    # order — and the store's replication/health pump once per batch.
    def write(op: tuple[str, int, int], at: float) -> None:
        if replicator is not None:
            replicator.note_time(at)  # replication delay runs from issue time
        index.apply(*op)

    timeline = Timeline(store.advance)
    if not serve_writes:
        for at, op in pending_updates:
            timeline.at(at, write, op)
    spec.faults.schedule(timeline, store)

    # --- flight recorder + incident triggers -------------------------
    recorder = engine = None
    if incident_dir is not None:
        recorder = FlightRecorder()
        engine = TriggerEngine(
            recorder,
            incident_dir,
            slos=_incident_slos(spec),
            span_hint=_expected_span(spec.traffic),
            context={"scenario": spec.name},
        )
        recorder.add_listener(engine.observe)

    # --- serve --------------------------------------------------------
    mutation_backend = None
    if serve_writes:
        mutation_backend = MutationBackend(index, replicator=replicator)
    server = QueryServer(
        backend,
        queue_depth=serving.queue_depth,
        batch_size=serving.batch_size,
        deadline_seconds=serving.deadline_seconds,
        request_tracing=request_tracing,
        on_advance=timeline.advance,
        mutation_backend=mutation_backend,
    )
    pairs, arrivals = spec.traffic.build(graph.num_vertices)
    with attached(recorder) if recorder is not None else nullcontext():
        if serve_writes:
            report = server.run_mixed(
                pairs,
                arrivals,
                [op for _, op in pending_updates],
                [at for at, _ in pending_updates],
            )
        else:
            report = server.run_open(pairs, arrivals)

    # --- audit: every served answer vs the oracle at its version -----
    audited = incorrect = 0
    if spec.dynamic:
        audited, incorrect = _audit(graph, applied_updates, auditor.records)
    else:
        oracle = TransitiveClosure(graph)
        for _, s, t, answer in auditor.records:
            audited += 1
            incorrect += answer != oracle.query(s, t)

    checks = _grade(spec, report, incorrect)
    if engine is not None:
        failed_checks = [c for c in checks if not c.ok]
        if failed_checks:
            # Expectation failures always land a bundle, even when no
            # runtime trigger fired: this is the run's only
            # scenario_assertion fire, so no cooldown can suppress it.
            engine.fire(
                "scenario_assertion",
                report.makespan_seconds,
                details={
                    "checks": [
                        {
                            "name": c.name,
                            "expected": c.expected,
                            "actual": c.actual,
                        }
                        for c in failed_checks
                    ]
                },
            )
    return ScenarioResult(
        spec=spec,
        report=report,
        checks=checks,
        audited=audited,
        incorrect_answers=incorrect,
        events=list(store.events),
        incidents=list(engine.incidents) if engine is not None else [],
    )


def _audit(
    graph,
    applied_updates: list[tuple[str, int, int]],
    records: list[tuple[int, int, int, bool]],
) -> tuple[int, int]:
    """Check every served answer against the exact graph it was served
    on: replay the update stream to each recorded version and compare
    with a transitive closure built there."""
    dynamic = DynamicReachabilityIndex(graph)
    oracles: dict[int, TransitiveClosure] = {}
    version = 0
    audited = incorrect = 0
    for record_version, s, t, answer in sorted(records, key=lambda r: r[0]):
        while version < record_version:
            op, u, v = applied_updates[version]
            dynamic.apply(op, u, v)
            version += 1
        if version not in oracles:
            oracles[version] = TransitiveClosure(dynamic.current_graph())
        audited += 1
        incorrect += answer != oracles[version].query(s, t)
    return audited, incorrect


def _grade(
    spec: ScenarioSpec, report: ServeReport, incorrect: int
) -> list[ExpectationCheck]:
    """Grade the spec's ``expect`` block against the run."""
    checks = []
    for name, expected in spec.expect.items():
        reads = EXPECTATIONS[name][1]
        actual = (
            getattr(report, reads)
            if isinstance(reads, str)
            else reads(report, incorrect)
        )
        if name.endswith("_min"):
            ok = actual >= expected
        else:
            ok = actual <= expected
        checks.append(ExpectationCheck(name, float(expected), float(actual), ok))
    return checks


def run_scenario_file(
    path: str | Path,
    request_tracing: bool | None = None,
    incident_dir: str | Path | None = None,
) -> ScenarioResult:
    """Load and run one scenario file."""
    return run_scenario(
        load_scenario(path),
        request_tracing=request_tracing,
        incident_dir=incident_dir,
    )


def write_scenario_report(
    results: list[ScenarioResult], path: str | Path
) -> None:
    """Write a combined JSON report atomically (never a torn file)."""
    payload = {
        "scenarios": [result.to_dict() for result in results],
        "ok": all(result.ok for result in results),
    }
    atomic_write_text(Path(path), json.dumps(payload, indent=2) + "\n")
