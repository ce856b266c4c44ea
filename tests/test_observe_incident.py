"""Tests for the flight recorder, trigger engine, and causal analysis.

The acceptance criteria of the incident subsystem live here: the ring
buffer's byte budget is an invariant checked after *every* append, and
the flagship end-to-end claim — running the ``shard_loss_write_burst``
library scenario drops a failover bundle whose top-ranked root cause
names the injected replica crash — is asserted against the real
scenario runner.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import pytest

from repro import telemetry
from repro.observe import tracing
from repro.observe.incident import (
    FlightRecorder,
    TriggerEngine,
    analyze_bundle,
)
from repro.observe.incident.recorder import _encoded_size
from repro.observe.incident.report import (
    find_bundle,
    format_bundle_row,
    list_bundles,
    load_bundle,
    render_bundle,
    render_incident_report,
    summarize_bundle,
)
from repro.observe.slo import BurnTracker, BurnWindow, SLOSpec
from repro.scenarios import (
    library_scenarios,
    load_scenario,
    run_scenario,
    run_scenario_file,
)
from repro.telemetry.sinks import InMemorySink


# ----------------------------------------------------------------------
# FlightRecorder
# ----------------------------------------------------------------------

def test_recorder_byte_budget_is_invariant_after_every_append():
    # The acceptance criterion: the buffer never exceeds max_bytes, not
    # even transiently observable between records, and eviction is
    # accounted in `dropped`.
    recorder = FlightRecorder(max_bytes=2048)
    for i in range(500):
        recorder.record("serve.request", at=i * 1e-4, outcome="served",
                        trace_id=f"t-{i:06d}", latency_seconds=1e-6)
        assert recorder.bytes_used <= recorder.max_bytes
        assert recorder.bytes_used == sum(
            _encoded_size(r) for r in recorder.events()
        )
    assert recorder.dropped > 0
    assert recorder.recorded == 500
    assert recorder.dropped + len(recorder) == recorder.recorded
    # The survivors are the newest records, oldest first.
    ids = [r["id"] for r in recorder.events()]
    assert ids == sorted(ids)
    assert ids[-1] == 500


def test_recorder_window_eviction_keeps_only_recent_history():
    recorder = FlightRecorder(window_seconds=1.0)
    for i in range(10):
        recorder.record("tick", at=float(i))
    # clock is 9.0; only records with at >= 8.0 survive.
    assert [r["at"] for r in recorder.events()] == [8.0, 9.0]
    assert recorder.dropped == 8


def test_recorder_listener_and_store_event_adapter():
    # The recorder is fed through the sink protocol only: a stream
    # event lands flattened, its ``at`` attr as the serving-clock stamp.
    recorder = FlightRecorder()
    seen = []
    recorder.add_listener(seen.append)
    with telemetry.attached(recorder):
        telemetry.trace_event("serve.failover", at=0.5, shard=1, to_replica=2)
        telemetry.trace_event("no.clock", n=1)  # lands at the current clock
    record, unstamped = recorder.events()
    assert seen == [record, unstamped]
    assert unstamped == {"id": 2, "at": 0.5, "event": "no.clock", "n": 1}
    assert record["event"] == "serve.failover"
    assert record["shard"] == 1
    assert record["id"] == 1
    assert recorder.clock == 0.5


def test_recorder_snapshot_is_self_contained():
    recorder = FlightRecorder(window_seconds=2.0, max_bytes=4096)
    recorder.record("a", at=0.1)
    snap = recorder.snapshot()
    assert snap["recorded"] == 1
    assert snap["max_bytes"] == 4096
    assert snap["window_seconds"] == 2.0
    assert snap["events"][0]["event"] == "a"


def test_recorder_rejects_bad_bounds():
    with pytest.raises(ValueError):
        FlightRecorder(window_seconds=0.0)
    with pytest.raises(ValueError):
        FlightRecorder(max_bytes=0)


# ----------------------------------------------------------------------
# BurnTracker, read after every request as the trigger engine reads it
# ----------------------------------------------------------------------

def _observe(tracker, spec, at, outcome, latency_seconds):
    tracker.add(at, spec.is_good(outcome, latency_seconds))
    return tracker.read(at)


def test_burn_trigger_needs_both_windows_over_threshold():
    spec = SLOSpec(name="avail", kind="availability", target=0.999)
    tracker = BurnTracker(BurnWindow(1.0, 0.1, 14.4), spec.budget,
                          min_samples=5)
    # Healthy traffic: never fires.
    for i in range(50):
        assert not _observe(tracker, spec, i * 0.01, "served", 1e-6).firing
    # A shed burst pushes both windows over burn 14.4 at budget 0.001.
    burn = None
    for i in range(50, 60):
        reading = _observe(tracker, spec, i * 0.01, "shed", 0.0)
        burn = reading if reading.firing else burn
    assert burn is not None
    assert burn.long_burn > 14.4
    assert burn.short_burn > 14.4


def test_burn_trigger_silent_below_min_samples():
    spec = SLOSpec(name="avail", kind="availability", target=0.999)
    tracker = BurnTracker(BurnWindow(1.0, 0.1, 14.4), spec.budget,
                          min_samples=20)
    # 100% bad, but fewer than min_samples requests in the windows.
    for i in range(19):
        assert not _observe(tracker, spec, i * 1e-3, "shed", 0.0).firing


# ----------------------------------------------------------------------
# TriggerEngine
# ----------------------------------------------------------------------

def _engine(tmp_path, **kwargs):
    recorder = FlightRecorder()
    engine = TriggerEngine(recorder, tmp_path, **kwargs)
    recorder.add_listener(engine.observe)
    return recorder, engine


def test_failover_record_cuts_a_bundle(tmp_path):
    recorder, engine = _engine(tmp_path, context={"scenario": "demo"})
    recorder.record("serve.replica_crash", at=0.1, shard=0, replica=0)
    recorder.record("serve.failover", at=0.2, shard=0,
                    from_replica=0, to_replica=1, version=7)
    assert [i["kind"] for i in engine.incidents] == ["failover"]
    bundle = load_bundle(engine.incidents[0]["path"])
    assert bundle["id"] == "incident-001-failover"
    assert bundle["details"] == {"shard": 0, "from_replica": 0,
                                 "to_replica": 1, "version": 7}
    assert bundle["context"] == {"scenario": "demo"}
    # The bundle is self-contained: the crash is inside it.
    assert [e["event"] for e in bundle["events"]] == [
        "serve.replica_crash", "serve.failover",
    ]
    assert bundle["evidence"] == [2]
    assert bundle["recorder"]["recorded"] == 2
    # Atomic write left no temp litter behind.
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "incident-001-failover.json"
    ]


def test_cooldown_suppresses_repeat_fires_of_same_kind(tmp_path):
    recorder, engine = _engine(tmp_path, cooldown_seconds=1.0)
    for i in range(5):
        recorder.record("serve.failover", at=0.1 + i * 0.01, shard=0,
                        from_replica=i, to_replica=i + 1)
    assert len(engine.incidents) == 1
    assert engine.suppressed == {"failover": 4}
    # A different kind is not throttled by the failover cooldown.
    recorder.record("serve.request", at=0.15, outcome="error",
                    reason="no serving replica", shard=0, trace_id="t-1")
    assert [i["kind"] for i in engine.incidents] == [
        "failover", "shard_unavailable",
    ]
    # Past the cooldown the same kind fires again.
    recorder.record("serve.failover", at=1.5, shard=1,
                    from_replica=0, to_replica=1)
    assert [i["kind"] for i in engine.incidents] == [
        "failover", "shard_unavailable", "failover",
    ]


def test_slo_burn_fires_through_the_engine(tmp_path):
    spec = SLOSpec(name="avail", kind="availability", target=0.99)
    recorder = FlightRecorder()
    # span 150 -> long window 5s, short window ~0.21s: with requests
    # every 0.01s the short window holds MIN_WINDOW_SAMPLES requests.
    engine = TriggerEngine(recorder, tmp_path, slos=[spec], span_hint=150.0)
    recorder.add_listener(engine.observe)
    for i in range(40):
        recorder.record("serve.request", at=i * 0.01, arrival=i * 0.01,
                        outcome="served", latency_seconds=1e-6)
    for i in range(40, 80):
        recorder.record("serve.request", at=i * 0.01, arrival=i * 0.01,
                        outcome="shed", latency_seconds=0.0)
    kinds = [i["kind"] for i in engine.incidents]
    assert "slo_burn" in kinds
    bundle = load_bundle(
        next(i for i in engine.incidents if i["kind"] == "slo_burn")["path"]
    )
    assert bundle["details"]["slo"] == "avail"
    assert bundle["details"]["long_burn"] > bundle["details"]["burn_threshold"]


def test_slo_burn_counts_reads_only(tmp_path):
    """A shed write burst burns no read objective: writes (records with
    an ``op``) never reach the burn window."""
    spec = SLOSpec(name="avail", kind="availability", target=0.99)
    recorder = FlightRecorder()
    engine = TriggerEngine(recorder, tmp_path, slos=[spec], span_hint=150.0)
    recorder.add_listener(engine.observe)
    for i in range(80):
        recorder.record("serve.request", at=i * 0.01, arrival=i * 0.01,
                        outcome="shed" if i >= 40 else "served",
                        latency_seconds=0.0, op="insert")
    assert engine.incidents == []


def test_engines_sharing_a_directory_never_replace_each_other(tmp_path):
    """One engine per scenario, each numbering from 001, one directory:
    a name another context holds is stepped past, a re-run of the same
    context replaces its own bundle."""
    def failover(context):
        recorder, engine = _engine(tmp_path, context={"scenario": context})
        recorder.record("serve.failover", at=0.2, shard=0,
                        from_replica=0, to_replica=1)
        return engine.incidents

    (first,) = failover("a")
    (second,) = failover("b")
    assert [first["id"], second["id"]] == [
        "incident-001-failover", "incident-002-failover",
    ]
    for incident, context in ((first, "a"), (second, "b")):
        bundle = load_bundle(incident["path"])
        assert bundle["id"] == incident["id"]
        assert bundle["context"] == {"scenario": context}
    (again,) = failover("b")
    assert again == second
    assert len(list(tmp_path.iterdir())) == 2
    # A file that is no bundle at all is not ours to replace either.
    (tmp_path / "incident-001-scenario_assertion.json").write_text("torn")
    _, engine = _engine(tmp_path)
    assert engine.fire("scenario_assertion", 1.0).name == (
        "incident-002-scenario_assertion.json"
    )


def test_scenario_assertion_fire_writes_check_details(tmp_path):
    recorder, engine = _engine(tmp_path)
    path = engine.fire("scenario_assertion", 1.0, details={
        "checks": [{"name": "availability_min", "expected": 0.99,
                    "actual": 0.5}],
    })
    bundle = load_bundle(path)
    assert bundle["kind"] == "scenario_assertion"
    assert bundle["details"]["checks"][0]["name"] == "availability_min"


# ----------------------------------------------------------------------
# Causal analysis
# ----------------------------------------------------------------------

def _failover_bundle() -> dict:
    """A hand-built bundle: crash -> suspicion -> failover trigger."""
    events = [
        {"id": 1, "at": 0.010, "event": "serve.request", "outcome": "served",
         "trace_id": "t-1", "latency_seconds": 1e-6},
        {"id": 2, "at": 0.020, "event": "replica.lag", "lag": 3,
         "groups": {"1": 3}, "version": 9},
        {"id": 3, "at": 0.030, "event": "serve.replica_crash",
         "shard": 0, "replica": 0},
        {"id": 4, "at": 0.031, "event": "serve.request", "outcome": "shed",
         "trace_id": "t-2", "latency_seconds": 0.0},
        {"id": 5, "at": 0.032, "event": "serve.replica_suspected",
         "shard": 0, "replica": 0},
        {"id": 6, "at": 0.033, "event": "serve.failover", "shard": 0,
         "from_replica": 0, "to_replica": 1, "version": 12},
    ]
    return {
        "id": "incident-001-failover",
        "kind": "failover",
        "at": 0.033,
        "details": {"shard": 0, "from_replica": 0, "to_replica": 1,
                    "version": 12},
        "evidence": [6],
        "context": {"scenario": "demo"},
        "events": events,
    }


def test_analyze_ranks_injected_fault_first_with_full_chain():
    report = analyze_bundle(_failover_bundle())
    assert report.affected_shard == 0
    assert report.affected_replica == 0
    cause = report.root_cause
    assert cause.kind == "injected_fault"
    # Base 0.60 + shard match 0.20 + replica match 0.15.
    assert cause.score == pytest.approx(0.95)
    assert cause.evidence == [3, 5, 6]
    assert cause.chain[0].startswith("injected crash #3")
    assert "failover #6 to replica 1" in cause.chain
    assert cause.chain[-1].startswith("failover trigger")
    # Lag and the shed request rank below the fault.
    kinds = [c.kind for c in report.causes]
    assert kinds.index("injected_fault") < kinds.index("replication_lag")
    assert kinds.index("injected_fault") < kinds.index("overload")


def test_analyze_timeline_is_ordered_and_ends_at_trigger():
    report = analyze_bundle(_failover_bundle())
    ats = [entry.at for entry in report.timeline]
    assert ats == sorted(ats)
    assert report.timeline[-1].label.startswith("TRIGGER failover")
    rendered = report.render()
    assert "primary 0 -> 1 (log version 12)" in rendered
    assert "replication lag peaked at 3 ops" in rendered


def test_analyze_empty_bundle_is_honestly_unattributed():
    report = analyze_bundle({"id": "incident-001-slo_burn",
                             "kind": "slo_burn", "at": 1.0, "events": []})
    assert report.root_cause.kind == "unattributed"
    assert report.root_cause.score == pytest.approx(0.05)


def test_analyze_regression_window_counts_bad_requests():
    bundle = _failover_bundle()
    report = analyze_bundle(bundle)
    # Only the shed request is in the window (too few served samples
    # for a latency-outlier threshold).
    assert report.bad_requests == 1
    assert report.total_requests == 2
    assert report.regression_start == pytest.approx(0.031)


# ----------------------------------------------------------------------
# Bundle IO / presentation
# ----------------------------------------------------------------------

def test_list_bundles_skips_non_bundle_json(tmp_path):
    recorder, engine = _engine(tmp_path)
    recorder.record("serve.failover", at=0.1, shard=0, from_replica=0,
                    to_replica=1)
    (tmp_path / "report.json").write_text(json.dumps({"makespan": 1.0}))
    (tmp_path / "broken.json").write_text("{nope")
    bundles = list_bundles(tmp_path)
    assert [b["id"] for _, b in bundles] == ["incident-001-failover"]


def test_find_bundle_by_id_prefix_and_errors(tmp_path):
    recorder, engine = _engine(tmp_path, cooldown_seconds=0.0)
    recorder.record("serve.failover", at=0.1, shard=0, from_replica=0,
                    to_replica=1)
    recorder.record("serve.failover", at=0.2, shard=1, from_replica=0,
                    to_replica=1)
    assert find_bundle("incident-002", tmp_path).name == (
        "incident-002-failover.json"
    )
    with pytest.raises(FileNotFoundError, match="ambiguous"):
        find_bundle("incident-0", tmp_path)
    with pytest.raises(FileNotFoundError, match="no incident bundle"):
        find_bundle("incident-9", tmp_path)


def test_summary_row_and_renderers_cover_the_bundle(tmp_path):
    bundle = _failover_bundle()
    summary = summarize_bundle(bundle)
    assert summary["root_cause_kind"] == "injected_fault"
    row = format_bundle_row(summary)
    assert "incident-001-failover" in row
    assert "[demo]" in row
    assert "-> injected replica crash" in row
    shown = render_bundle(bundle)
    assert "serve.replica_crash" in shown
    assert "6 buffered" in shown
    assert "incident-001-failover" in render_incident_report(bundle)


# ----------------------------------------------------------------------
# The flagship end-to-end claim
# ----------------------------------------------------------------------

def test_shard_loss_scenario_names_the_injected_crash(tmp_path):
    spec_path = library_scenarios()["shard_loss_write_burst"]
    result = run_scenario_file(spec_path, incident_dir=tmp_path)
    assert result.incidents, "scenario produced no incident bundles"
    failovers = [i for i in result.incidents if i["kind"] == "failover"]
    assert failovers, "no failover bundle was cut"
    bundle = load_bundle(failovers[0]["path"])
    report = analyze_bundle(bundle)
    cause = report.root_cause
    assert cause.kind == "injected_fault"
    assert "injected replica crash" in cause.description
    assert report.affected_shard is not None
    # The chain walks crash -> failover -> trigger over real event ids.
    assert any("failover #" in step for step in cause.chain)
    assert cause.evidence, "root cause cites no events"
    crash_ids = {
        e["id"] for e in bundle["events"]
        if e["event"] == "serve.replica_crash"
    }
    assert crash_ids & set(cause.evidence)


def test_same_scenario_under_two_names_keeps_both_sets_of_bundles(tmp_path):
    """``repro scenario run flash_crowd copy.json --incidents-dir d``:
    the run ends with as many files as it reports, and every reported
    path holds that scenario's own bundle."""
    spec = load_scenario(library_scenarios()["flash_crowd"])
    results = [
        run_scenario(renamed, incident_dir=tmp_path)
        for renamed in (spec, dataclasses.replace(spec, name="flash_crowd_b"))
    ]
    first, second = ([i["id"] for i in r.incidents] for r in results)
    assert first == [f"incident-00{n}-slo_burn" for n in (1, 2, 3)]
    assert second == [f"incident-00{n}-slo_burn" for n in (4, 5, 6)]
    assert len(list(tmp_path.iterdir())) == 6
    for result in results:
        for incident in result.incidents:
            bundle = load_bundle(incident["path"])
            assert bundle["context"] == {"scenario": result.spec.name}
            assert bundle["id"] == incident["id"]


def test_recorder_buffers_the_same_records_joined_or_alone(tmp_path, monkeypatch):
    """Attached inside an exporting session (``--trace-out``) or alone,
    the recorder sees the same stream: bundles are byte-identical, and
    the joined run's trace holds every event the box buffered."""
    spec_path = library_scenarios()["shard_loss_write_burst"]
    # Trace ids count serve runs per process; two processes would agree.
    monkeypatch.setattr(tracing, "_run_counter", itertools.count())
    alone = run_scenario_file(spec_path, incident_dir=tmp_path / "alone")
    monkeypatch.setattr(tracing, "_run_counter", itertools.count())
    sink = InMemorySink()
    with telemetry.session([sink]) as tracer:
        joined = run_scenario_file(spec_path, incident_dir=tmp_path / "joined")
        assert tracer.sinks == [sink]  # the recorder left the stream again
    assert [i["id"] for i in joined.incidents] == [
        i["id"] for i in alone.incidents
    ] == ["incident-001-failover"]
    name = "incident-001-failover.json"
    assert (tmp_path / "joined" / name).read_bytes() == (
        tmp_path / "alone" / name
    ).read_bytes()
    exported = {
        (event.name, event.attrs["at"]) for event in sink.events
        if "at" in event.attrs
    }
    bundle = load_bundle(tmp_path / "joined" / name)
    assert {(e["event"], e["at"]) for e in bundle["events"]} <= exported
