"""Tests for the ``repro top`` dashboard model and CLI."""

import json

import pytest

from repro.cli import main
from repro.core.build import build_index
from repro.graph.generators import social_graph
from repro.observe.dashboard import DashboardModel
from repro.observe.slo import SLOSpec
from repro.pregel.cost_model import CostModel
from repro.serve import (
    CachingBackend,
    QueryServer,
    ShardedIndexBackend,
    ShardedLabelStore,
)
from repro.telemetry import session
from repro.telemetry.reader import Trace
from repro.telemetry.sinks import InMemorySink
from repro.workloads.traffic import poisson_arrivals, zipf_pairs

_NO_LIMIT = CostModel(time_limit_seconds=None)


@pytest.fixture(scope="module")
def traced_run():
    """One cached serving run: (records, ServeReport)."""
    graph = social_graph(200, seed=9)
    index = build_index(graph, cost_model=_NO_LIMIT).index
    store = ShardedLabelStore(index, num_shards=4, cost_model=_NO_LIMIT)
    backend = CachingBackend(ShardedIndexBackend(store), cost_model=_NO_LIMIT)
    pairs = zipf_pairs(graph.num_vertices, 1500, seed=1)
    arrivals = poisson_arrivals(1500, rate=2_000_000, seed=2)
    sink = InMemorySink()
    with session([sink]):
        server = QueryServer(backend, queue_depth=64, cost_model=_NO_LIMIT)
        report = server.run_open(pairs, arrivals)
    return sink.records, report


@pytest.fixture(scope="module")
def model(traced_run):
    records, _ = traced_run
    return DashboardModel.from_trace(Trace(records))


class TestModel:
    def test_counts_match_report(self, traced_run, model):
        _, report = traced_run
        assert model.offered == report.offered
        assert model.served == report.served
        assert model.shed == report.shed
        assert model.deadline_dropped == report.deadline_dropped
        assert model.positives == report.positives

    def test_percentiles_match_report_exactly(self, traced_run, model):
        _, report = traced_run
        assert model.percentile(0.50) == report.p50_seconds
        assert model.percentile(0.99) == report.p99_seconds
        assert model.percentile(0.999) == report.p999_seconds
        assert model.makespan_seconds == report.makespan_seconds
        assert model.throughput == report.throughput

    def test_hit_rate_matches_report_exactly(self, traced_run, model):
        _, report = traced_run
        assert model.cache_hits == report.cache_hits
        assert model.cache_misses == report.cache_misses
        assert model.cache_hit_rate == report.cache_hit_rate

    def test_traced_fraction_and_stage_counts(self, model):
        assert model.traced_fraction >= 0.99
        for stage in ("admission", "cache", "store", "backend"):
            assert model.stage_counts.get(stage, 0) > 0

    def test_shard_traffic(self, traced_run, model):
        _, report = traced_run
        # Store stages record every fetch; shard loads cover all shards.
        assert model.store_fetches == report.cache_misses
        assert sum(model.shard_loads.values()) == sum(report.shard_loads)

    def test_windows_cover_the_run(self, model):
        assert model.windows
        assert sum(w.offered for w in model.windows) == model.offered
        assert sum(w.served for w in model.windows) == model.served

    def test_every_window_has_a_rate_including_the_first(self, model):
        """The window clock starts at the first window's start, so
        window 0 is a real window (it used to read 0 q/s) and seeds the
        EWMA every later window folds its own rate into."""
        for window in model.windows:
            assert window.rate == pytest.approx(
                window.served / (window.end - window.start)
            )
        assert model.windows[0].served > 0
        assert model.windows[0].ewma_rate == model.windows[0].rate
        for before, window in zip(model.windows, model.windows[1:]):
            assert window.ewma_rate == 0.3 * window.rate + 0.7 * before.ewma_rate

    def test_worst_traces_sorted(self, model):
        latencies = [r.latency_seconds for r in model.worst]
        assert latencies == sorted(latencies, reverse=True)
        assert latencies[0] == model.latencies[-1]

    def test_to_json_round_trips(self, model):
        payload = json.loads(json.dumps(model.to_json()))
        assert payload["served"] == model.served
        assert payload["p99_seconds"] == model.percentile(0.99)
        assert payload["hit_rate"] == model.cache_hit_rate
        assert len(payload["windows"]) == len(model.windows)
        assert payload["alerts"] == []

    def test_render_mentions_the_essentials(self, model):
        text = model.render()
        assert "throughput" in text
        assert "p99" in text
        assert "Windows" in text
        assert "Worst requests" in text

    def test_slo_statuses_included(self, traced_run):
        records, _ = traced_run
        specs = [
            SLOSpec("impossible", "latency", 0.999, threshold_seconds=1e-12),
            SLOSpec("trivial", "latency", 0.5, threshold_seconds=10.0),
        ]
        with_slos = DashboardModel.from_trace(Trace(records), specs=specs)
        by_name = {s.spec.name: s for s in with_slos.slos}
        assert not by_name["impossible"].ok
        assert by_name["trivial"].ok
        assert any(a["slo"] == "impossible" for a in with_slos.firing_alerts)

    def test_run_selection(self, traced_run):
        records, report = traced_run
        doubled = list(records) + [
            {**r, "span": (r.get("span") or 0) + 1000}
            for r in records
            if r.get("kind") == "event" and r.get("name") == "serve.request"
        ]
        both = DashboardModel.from_trace(Trace(doubled))
        assert both.runs == 2
        assert both.offered == 2 * report.offered
        first = DashboardModel.from_trace(Trace(doubled), run=1)
        assert first.offered == report.offered
        with pytest.raises(ValueError, match="out of range"):
            DashboardModel.from_trace(Trace(doubled), run=3)

    def test_run_selection_scopes_failovers_and_lag_peaks(self):
        """``--run N`` scopes failovers and lag peaks by the event's
        span, exactly as it scopes requests: only the run that held the
        failover reports it."""
        def run(span, events):
            request = _request_record(f"r{span}", [{"stage": "store"}])
            return [{**request, "span": span}] + [
                {"kind": "event", "name": name, "span": span, "attrs": attrs}
                for name, attrs in events
            ]

        trace = Trace(
            run(1, [("replica.lag", {"lag": 2, "groups": {"1": 2}})])
            + run(2, [
                ("serve.failover", {"shard": 0}),
                ("replica.lag", {"lag": 7, "groups": {"1": 7, "2": 3}}),
            ])
        )
        both = DashboardModel.from_trace(trace)
        assert (both.runs, both.failovers, both.replication_lag_peak) == (2, 1, 7)
        first = DashboardModel.from_trace(trace, run=1)
        assert (first.failovers, first.replication_lag_peak) == (0, 2)
        assert first.group_lag_peaks == {"1": 2}
        second = DashboardModel.from_trace(trace, run=2)
        assert (second.failovers, second.replication_lag_peak) == (1, 7)
        assert second.group_lag_peaks == {"1": 7, "2": 3}

    def test_empty_records(self):
        empty = DashboardModel.from_trace(Trace())
        assert empty.offered == 0
        assert empty.windows == []
        assert empty.percentile(0.99) == 0.0
        assert "0 requests" in empty.render()

    def test_requests_from_records_ignores_other_events(self):
        records = [
            {"kind": "event", "name": "pregel.superstep", "attrs": {}},
            {"kind": "span", "name": "serve.run", "id": 1, "start": 0.0},
            {"kind": "event", "name": "serve.request", "attrs": {}},  # no id
        ]
        trace = Trace(records)
        assert trace.requests == []
        # The id-less request is not a usable record: dropped and logged.
        assert len(trace.records) == 2
        assert "'trace_id'" in trace.skipped[0]


def _request_record(trace_id, stages, outcome="served"):
    return {
        "kind": "event",
        "name": "serve.request",
        "attrs": {
            "trace_id": trace_id,
            "outcome": outcome,
            "arrival": 0.0,
            "latency_seconds": 1e-6,
            "stages": stages,
        },
    }


class TestReplicationHealth:
    """Replication counters rebuilt from stage attrs + lag samples."""

    @pytest.fixture()
    def replicated_model(self):
        records = [
            # Confirmed read: lagging follower, guard confirmed with
            # the leader.
            _request_record("t-1", [
                {"stage": "store", "lag": 3},
                {"stage": "confirm", "ops": 3},
            ]),
            # Guarded stale read: lagging follower, monotonicity proved
            # no confirmation was needed.
            _request_record("t-2", [{"stage": "store", "lag": 2}]),
            # Forced catch-up: lag exceeded the staleness bound.
            _request_record("t-3", [
                {"stage": "store", "lag": 5},
                {"stage": "catchup", "ops": 5},
            ]),
            # Hedged read resolved by the faster replica; no lag.
            _request_record("t-4", [{"stage": "store", "hedge_won": True}]),
            # Replicator lag samples, one per change of the worst lag.
            {"kind": "event", "name": "replica.lag",
             "attrs": {"lag": 3, "groups": {"1": 3}, "version": 3}},
            {"kind": "event", "name": "replica.lag",
             "attrs": {"lag": 5, "groups": {"1": 5, "2": 2}, "version": 5}},
            {"kind": "event", "name": "replica.lag",
             "attrs": {"lag": 0, "groups": {"1": 0, "2": 0}, "version": 5}},
        ]
        return DashboardModel.from_trace(Trace(records))

    def test_counters_rebuilt_from_stages(self, replicated_model):
        model = replicated_model
        assert model.confirmed_reads == 1
        assert model.stale_reads == 1
        assert model.forced_catchups == 1
        assert model.hedges_won == 1

    def test_lag_peaks_per_group(self, replicated_model):
        assert replicated_model.replication_lag_peak == 5
        assert replicated_model.group_lag_peaks == {"1": 5, "2": 2}

    def test_to_json_has_replication_block(self, replicated_model):
        payload = json.loads(json.dumps(replicated_model.to_json()))
        assert payload["replication"] == {
            "confirmed_reads": 1,
            "stale_reads": 1,
            "forced_catchups": 1,
            "hedges_won": 1,
            "lag_peak": 5,
            "group_lag_peaks": {"1": 5, "2": 2},
        }
        assert payload["incidents"] == []

    def test_render_shows_replication_line(self, replicated_model):
        rendered = replicated_model.render()
        assert (
            "replication: lag peak 5 (g1:5 g2:2)  confirmed 1  stale 1"
            "  catchups 0" not in rendered
        )
        assert (
            "replication: lag peak 5 (g1:5 g2:2)  confirmed 1  stale 1"
            "  catchups 1  hedges won 1" in rendered
        )

    def test_render_omits_line_without_replication(self):
        model = DashboardModel.from_trace(
            Trace([_request_record("t-1", [{"stage": "store"}])])
        )
        assert "replication:" not in model.render()

    def test_incidents_render_and_serialize(self):
        incidents = [{
            "id": "incident-001-failover",
            "kind": "failover",
            "at": 2.5e-3,
            "root_cause": "injected replica crash on shard 0 replica 0",
        }]
        model = DashboardModel.from_trace(Trace(), incidents=incidents)
        rendered = model.render()
        assert "Open incidents (1)" in rendered
        assert "incident-001-failover" in rendered
        assert "-> injected replica crash" in rendered
        payload = json.loads(json.dumps(model.to_json()))
        assert payload["incidents"] == incidents


class TestCli:
    @pytest.fixture()
    def trace_file(self, traced_run, tmp_path):
        records, _ = traced_run
        path = tmp_path / "serve.jsonl"
        path.write_text(
            "\n".join(json.dumps(record) for record in records) + "\n"
        )
        return path

    def test_top_once_json(self, trace_file, capsys):
        assert main(["top", str(trace_file), "--once", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["served"] > 0
        assert payload["traced_fraction"] >= 0.99

    def test_top_once_text(self, trace_file, capsys):
        assert main(["top", str(trace_file), "--once"]) == 0
        assert "throughput" in capsys.readouterr().out

    def test_top_json_requires_once(self, trace_file, capsys):
        assert main(["top", str(trace_file), "--json"]) == 2

    def test_top_openmetrics_exposition(self, trace_file, capsys):
        assert main(["top", str(trace_file), "--once", "--openmetrics"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# TYPE repro_serve_requests counter")
        assert out.endswith("# EOF\n")
        assert "repro_serve_latency_seconds_bucket" in out

    def test_top_openmetrics_flag_validation(self, trace_file, capsys):
        assert main(["top", str(trace_file), "--openmetrics"]) == 2
        assert "--openmetrics needs --once" in capsys.readouterr().err
        assert main([
            "top", str(trace_file), "--once", "--openmetrics", "--json",
        ]) == 2
        assert "exclusive" in capsys.readouterr().err

    def test_top_incidents_section(self, trace_file, tmp_path, capsys):
        from repro.observe.incident import FlightRecorder, TriggerEngine

        recorder = FlightRecorder()
        engine = TriggerEngine(recorder, tmp_path / "incidents")
        recorder.add_listener(engine.observe)
        recorder.record("serve.replica_crash", at=0.001, shard=0, replica=0)
        recorder.record("serve.failover", at=0.002, shard=0,
                        from_replica=0, to_replica=1, version=1)
        assert main([
            "top", str(trace_file), "--once",
            "--incidents", str(tmp_path / "incidents"),
        ]) == 0
        out = capsys.readouterr().out
        assert "Open incidents (1)" in out
        assert "incident-001-failover" in out
        assert "-> injected replica crash" in out

    def test_top_missing_file(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "nope.jsonl"), "--once"]) == 2

    def test_top_no_requests(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"kind": "span", "name": "x", "id": 1, "start": 0.0}\n')
        assert main(["top", str(path), "--once"]) == 1

    def test_top_fail_on_alert(self, trace_file, tmp_path, capsys):
        tight = tmp_path / "tight.json"
        tight.write_text(json.dumps({"slos": [{
            "name": "impossible", "kind": "latency",
            "target": 0.999, "threshold_seconds": 1e-12,
        }]}))
        loose = tmp_path / "loose.json"
        loose.write_text(json.dumps({"slos": [{
            "name": "trivial", "kind": "latency",
            "target": 0.5, "threshold_seconds": 10.0,
        }]}))
        assert main(
            ["top", str(trace_file), "--once", "--slo", str(tight),
             "--fail-on-alert"]
        ) == 1
        assert "ALERT" in capsys.readouterr().err
        assert main(
            ["top", str(trace_file), "--once", "--slo", str(loose),
             "--fail-on-alert"]
        ) == 0

    def test_top_bad_slo_spec(self, trace_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert main(
            ["top", str(trace_file), "--once", "--slo", str(bad)]
        ) == 2

    def test_top_run_selection(self, trace_file, capsys):
        assert main(["top", str(trace_file), "--once", "--run", "1"]) == 0
        assert main(["top", str(trace_file), "--once", "--run", "9"]) == 2

    def test_trace_slowest(self, trace_file, capsys):
        assert main(["trace", str(trace_file), "--slowest", "3"]) == 0
        out = capsys.readouterr().out
        assert "Slowest 3" in out
        assert "admission" in out

    def test_trace_by_trace_id(self, trace_file, capsys):
        main(["trace", str(trace_file), "--slowest", "1"])
        line = capsys.readouterr().out.splitlines()[-1]
        trace_id = line.split()[0]
        assert main(["trace", str(trace_file), "--trace-id", trace_id]) == 0
        assert trace_id in capsys.readouterr().out
        assert main(["trace", str(trace_file), "--trace-id", "nope"]) == 1

    def test_trace_summary_includes_request_overview(self, trace_file, capsys):
        assert main(["trace", str(trace_file)]) == 0
        assert "Request traces" in capsys.readouterr().out
