"""Automated post-mortems: walk a bundle backwards to its cause.

Given an incident bundle (:mod:`repro.observe.incident.triggers`),
:func:`analyze_bundle` reconstructs the chain a human on-call would
hand-derive from the trigger backwards:

    alert → regression window → affected shard/replica →
    probe failures and failover → staleness catch-up or injected fault

and emits an :class:`IncidentReport`: a merged **timeline** of the
notable events, plus **ranked root-cause candidates**, each carrying a
score, the supporting event ids from the bundle, a cause→trigger
chain, and trace-id exemplars of affected requests.  Candidate kinds,
strongest evidence first:

``injected_fault``
    A ``serve.replica_crash`` preceding the trigger — scored highest
    when it hit the affected shard/replica, and chained through the
    suspicion and failover events it produced.
``replica_slow``
    A ``serve.replica_slow`` (factor > 1) still active at the trigger.
``replication_lag``
    Non-zero replicator lag samples and forced catch-up / leader
    confirmation stages in the affected window.
``overload``
    Queue-full sheds inside the regression window (the usual culprit
    behind an SLO burn with healthy replicas).
``unattributed``
    Nothing in the recorded window explains the trigger — an honest
    "the black box did not reach back far enough".

Everything is deterministic and derived purely from the bundle, so a
report can be regenerated from the artifact alone (``repro incident
report``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.metrics import sorted_percentile

#: Served requests at least this many times slower than the bundle's
#: median are treated as part of the regression window.
SLOW_FACTOR = 5.0

#: Exemplar trace ids attached per cause, worst first.
MAX_EXEMPLARS = 3


def _fmt_at(at: float | None) -> str:
    return "?" if at is None else f"{at:.3e}s"


def _replica_name(shard, replica=None) -> str:
    if shard is None:
        return "unknown shard"
    if replica is None:
        return f"shard {shard}"
    return f"shard {shard} replica {replica}"


@dataclass
class TimelineEntry:
    """One step of the reconstructed incident timeline."""

    at: float
    label: str
    event_id: int | None = None

    def to_dict(self) -> dict:
        return {"at": self.at, "label": self.label, "event_id": self.event_id}

    def render(self) -> str:
        ref = f"[#{self.event_id}] " if self.event_id is not None else ""
        return f"{_fmt_at(self.at):>11}  {ref}{self.label}"


@dataclass
class RootCause:
    """One ranked root-cause candidate with its supporting evidence."""

    kind: str
    description: str
    score: float
    at: float | None = None
    evidence: list[int] = field(default_factory=list)
    chain: list[str] = field(default_factory=list)
    exemplars: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "description": self.description,
            "score": self.score,
            "at": self.at,
            "evidence": self.evidence,
            "chain": self.chain,
            "exemplars": self.exemplars,
        }


@dataclass
class IncidentReport:
    """The full post-mortem for one bundle."""

    bundle_id: str
    kind: str
    at: float
    context: dict
    affected_shard: int | None
    affected_replica: int | None
    regression_start: float | None
    bad_requests: int
    total_requests: int
    timeline: list[TimelineEntry]
    causes: list[RootCause]

    @property
    def root_cause(self) -> RootCause | None:
        """The top-ranked candidate (None only for an empty bundle)."""
        return self.causes[0] if self.causes else None

    def to_dict(self) -> dict:
        return {
            "bundle_id": self.bundle_id,
            "kind": self.kind,
            "at": self.at,
            "context": self.context,
            "affected_shard": self.affected_shard,
            "affected_replica": self.affected_replica,
            "regression_start": self.regression_start,
            "bad_requests": self.bad_requests,
            "total_requests": self.total_requests,
            "timeline": [entry.to_dict() for entry in self.timeline],
            "causes": [cause.to_dict() for cause in self.causes],
        }

    def render(self) -> str:
        lines = [f"incident {self.bundle_id} — {self.kind} at {_fmt_at(self.at)}"]
        for key, value in sorted(self.context.items()):
            lines.append(f"  {key}: {value}")
        if self.affected_shard is not None:
            lines.append(
                "  affected: "
                + _replica_name(self.affected_shard, self.affected_replica)
            )
        if self.regression_start is not None:
            lines.append(
                f"  regression window: {_fmt_at(self.regression_start)} -> "
                f"{_fmt_at(self.at)} ({self.bad_requests} affected / "
                f"{self.total_requests} recorded requests)"
            )
        if self.timeline:
            lines.append("  timeline:")
            lines.extend("    " + entry.render() for entry in self.timeline)
        if self.causes:
            lines.append("  root causes (ranked):")
            for rank, cause in enumerate(self.causes, start=1):
                lines.append(
                    f"    {rank}. ({cause.score:.2f}) {cause.description}"
                )
                if cause.chain:
                    lines.append("       chain: " + " -> ".join(cause.chain))
                if cause.exemplars:
                    lines.append(
                        "       exemplars: " + ", ".join(cause.exemplars)
                    )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The analysis itself
# ----------------------------------------------------------------------

def _affected_requests(requests: list[dict]) -> list[dict]:
    """Requests that count toward the regression window: every
    non-served outcome, plus served outliers >= SLOW_FACTOR x median."""
    served = sorted(
        r.get("latency_seconds", 0.0)
        for r in requests
        if r.get("outcome") == "served"
    )
    threshold = (
        SLOW_FACTOR * sorted_percentile(served, 0.5) if len(served) >= 8 else None
    )
    affected = []
    for request in requests:
        if request.get("outcome") != "served":
            affected.append(request)
        elif (
            threshold is not None
            and request.get("latency_seconds", 0.0) >= threshold
        ):
            affected.append(request)
    return affected


def _match_bonus(event: dict, shard, replica) -> float:
    """Score bonus for hitting the affected shard and replica."""
    bonus = 0.0
    if shard is not None and event.get("shard") == shard:
        bonus += 0.20
        if replica is not None and event.get("replica") == replica:
            bonus += 0.15
    return bonus


def analyze_bundle(bundle: dict) -> IncidentReport:
    """Build the post-mortem for one incident bundle."""
    events = sorted(bundle.get("events", []), key=lambda e: (e.get("at", 0.0), e.get("id", 0)))
    trigger_at = bundle.get("at", 0.0)
    kind = bundle.get("kind", "?")
    details = bundle.get("details", {})
    before = [e for e in events if e.get("at", 0.0) <= trigger_at]

    def last(name: str, **match) -> dict | None:
        for event in reversed(before):
            if event.get("event") != name:
                continue
            if all(event.get(k) == v for k, v in match.items()):
                return event
        return None

    # -- affected shard/replica ---------------------------------------
    shard = replica = None
    if kind == "failover":
        shard = details.get("shard")
        replica = details.get("from_replica")
    elif kind == "shard_unavailable":
        shard = details.get("shard")
    if shard is None:
        anchor = (
            last("serve.failover")
            or last("serve.replica_suspected")
            or last("serve.replica_crash")
        )
        if anchor is not None:
            shard = anchor.get("shard")
            replica = anchor.get("replica", anchor.get("from_replica"))

    # -- regression window --------------------------------------------
    requests = [e for e in before if e.get("event") == "serve.request"]
    affected = _affected_requests(requests)
    regression_start = min(
        (r.get("at", trigger_at) for r in affected), default=None
    )
    exemplars = [
        r["trace_id"]
        for r in sorted(
            affected,
            key=lambda r: (-r.get("latency_seconds", 0.0), r.get("id", 0)),
        )
        if "trace_id" in r
    ][:MAX_EXEMPLARS]

    # -- candidate causes ---------------------------------------------
    causes: list[RootCause] = []
    trigger_label = f"{kind} trigger at {_fmt_at(trigger_at)}"

    for crash in (e for e in before if e.get("event") == "serve.replica_crash"):
        where = _replica_name(crash.get("shard"), crash.get("replica"))
        chain = [f"injected crash #{crash.get('id')} ({where})"]
        evidence = [crash.get("id")]
        suspected = last(
            "serve.replica_suspected",
            shard=crash.get("shard"),
            replica=crash.get("replica"),
        )
        if suspected is not None:
            chain.append(f"suspected after probe failures #{suspected.get('id')}")
            evidence.append(suspected.get("id"))
        failover = last(
            "serve.failover",
            shard=crash.get("shard"),
            from_replica=crash.get("replica"),
        )
        if failover is not None:
            chain.append(
                f"failover #{failover.get('id')} to replica "
                f"{failover.get('to_replica')}"
            )
            evidence.append(failover.get("id"))
        chain.append(trigger_label)
        causes.append(
            RootCause(
                kind="injected_fault",
                description=f"injected replica crash on {where}",
                score=0.60 + _match_bonus(crash, shard, replica),
                at=crash.get("at"),
                evidence=[e for e in evidence if e is not None],
                chain=chain,
                exemplars=list(exemplars),
            )
        )

    active_slow: dict[tuple, dict] = {}
    for slow in (e for e in before if e.get("event") == "serve.replica_slow"):
        key = (slow.get("shard"), slow.get("replica"))
        if slow.get("factor", 1.0) > 1.0:
            active_slow[key] = slow
        else:
            active_slow.pop(key, None)
    for (s, r), slow in active_slow.items():
        where = _replica_name(s, r)
        causes.append(
            RootCause(
                kind="replica_slow",
                description=(
                    f"{where} running {slow.get('factor')}x slow "
                    "at the trigger"
                ),
                score=0.45 + _match_bonus(slow, shard, replica),
                at=slow.get("at"),
                evidence=[slow.get("id")],
                chain=[
                    f"slowdown #{slow.get('id')} ({where}, "
                    f"{slow.get('factor')}x)",
                    trigger_label,
                ],
                exemplars=list(exemplars),
            )
        )

    lag_events = [
        e for e in before if e.get("event") == "replica.lag" and e.get("lag", 0)
    ]
    catchups = [
        r
        for r in requests
        if any(s.get("stage") == "catchup" for s in r.get("stages", ()))
    ]
    if lag_events or catchups:
        peak = max((e.get("lag", 0) for e in lag_events), default=0)
        chain = []
        if lag_events:
            worst = max(lag_events, key=lambda e: e.get("lag", 0))
            chain.append(f"replication lag peaked at {peak} ops #{worst.get('id')}")
        if catchups:
            chain.append(f"{len(catchups)} forced catch-up(s) before serving")
        chain.append(trigger_label)
        causes.append(
            RootCause(
                kind="replication_lag",
                description=(
                    f"follower replication lag (peak {peak} ops, "
                    f"{len(catchups)} forced catch-ups)"
                ),
                score=0.40 + (0.05 if catchups else 0.0),
                at=lag_events[0].get("at") if lag_events else catchups[0].get("at"),
                evidence=[e.get("id") for e in lag_events[-3:]]
                + [r.get("id") for r in catchups[:3]],
                chain=chain,
                exemplars=list(exemplars),
            )
        )

    sheds = [r for r in requests if r.get("outcome") == "shed"]
    if sheds:
        causes.append(
            RootCause(
                kind="overload",
                description=(
                    f"admission-queue overload ({len(sheds)} requests shed "
                    "in the recorded window)"
                ),
                score=0.50 if kind == "slo_burn" else 0.25,
                at=sheds[0].get("at"),
                evidence=[r.get("id") for r in sheds[:3]],
                chain=[
                    f"queue-full sheds from #{sheds[0].get('id')}",
                    trigger_label,
                ],
                exemplars=list(exemplars),
            )
        )

    if not causes:
        causes.append(
            RootCause(
                kind="unattributed",
                description=(
                    "no causal antecedent in the recorded window "
                    "(recorder may not reach back far enough)"
                ),
                score=0.05,
                chain=[trigger_label],
                exemplars=list(exemplars),
            )
        )
    causes.sort(key=lambda c: (-c.score, c.at if c.at is not None else trigger_at))

    # -- timeline ------------------------------------------------------
    timeline: list[TimelineEntry] = []
    labels = {
        "serve.replica_crash": "injected fault: replica crash",
        "serve.replica_slow": "injected fault: replica slowdown",
        "serve.replica_recover": "replica recovered (pending probe)",
        "serve.replica_suspected": "replica suspected after probe failures",
        "serve.replica_up": "replica back in rotation",
        "serve.failover": "primary failover",
    }
    for event in before:
        name = event.get("event")
        if name in labels:
            extra = ""
            if name == "serve.failover":
                extra = (
                    f" {_replica_name(event.get('shard'))}: primary "
                    f"{event.get('from_replica')} -> {event.get('to_replica')}"
                    + (
                        f" (log version {event.get('version')})"
                        if event.get("version") is not None
                        else ""
                    )
                )
            elif name == "serve.replica_slow":
                extra = (
                    f" ({_replica_name(event.get('shard'), event.get('replica'))}"
                    f", {event.get('factor')}x)"
                )
            else:
                extra = (
                    f" ({_replica_name(event.get('shard'), event.get('replica'))})"
                )
            timeline.append(
                TimelineEntry(event.get("at", 0.0), labels[name] + extra, event.get("id"))
            )
    if lag_events:
        worst = max(lag_events, key=lambda e: e.get("lag", 0))
        timeline.append(
            TimelineEntry(
                worst.get("at", 0.0),
                f"replication lag peaked at {worst.get('lag')} ops",
                worst.get("id"),
            )
        )
    if regression_start is not None:
        timeline.append(
            TimelineEntry(
                regression_start,
                f"regression window opens ({len(affected)} affected "
                f"request(s) follow)",
            )
        )
    timeline.append(
        TimelineEntry(trigger_at, f"TRIGGER {kind}: {_describe_trigger(kind, details)}")
    )
    timeline.sort(key=lambda entry: (entry.at, entry.event_id or 1 << 60))

    return IncidentReport(
        bundle_id=bundle.get("id", "?"),
        kind=kind,
        at=trigger_at,
        context=dict(bundle.get("context", {})),
        affected_shard=shard,
        affected_replica=replica,
        regression_start=regression_start,
        bad_requests=len(affected),
        total_requests=len(requests),
        timeline=timeline,
        causes=causes,
    )


def _describe_trigger(kind: str, details: dict) -> str:
    if kind == "failover":
        return (
            f"{_replica_name(details.get('shard'))} primary "
            f"{details.get('from_replica')} -> {details.get('to_replica')}"
        )
    if kind == "shard_unavailable":
        return (
            f"request {details.get('trace_id', '?')} found no serving "
            f"replica for {_replica_name(details.get('shard'))}"
        )
    if kind == "slo_burn":
        return (
            f"SLO {details.get('slo', '?')} burning "
            f"{details.get('long_burn', 0.0):.1f}x long / "
            f"{details.get('short_burn', 0.0):.1f}x short "
            f"(threshold {details.get('burn_threshold', 0.0):.1f}x)"
        )
    if kind == "scenario_assertion":
        failed = details.get("checks", [])
        names = ", ".join(c.get("name", "?") for c in failed) or "?"
        return f"scenario expectation(s) failed: {names}"
    return str(details) if details else kind
