"""Tests for the ``repro top`` dashboard model and CLI."""

import json
import time

import pytest

from repro.cli import main
from repro.core.build import build_index
from repro.core.dynamic import DynamicReachabilityIndex
from repro.graph.generators import social_graph
from repro.observe.dashboard import DEFAULT_WINDOW_COUNT, DashboardModel
from repro.pregel.cost_model import CostModel
from repro.serve import (
    BoundedStalenessReplicator,
    CachingBackend,
    MutationBackend,
    QueryCache,
    QueryServer,
    ServeFaultPlan,
    ShardedIndexBackend,
    ShardedLabelStore,
    Timeline,
)
from repro.telemetry import session
from repro.telemetry.reader import Trace
from repro.telemetry.sinks import InMemorySink
from repro.telemetry.spans import RequestTrace
from repro.workloads.queries import random_pairs
from repro.workloads.traffic import poisson_arrivals, uniform_arrivals, zipf_pairs
from repro.workloads.updates import mixed_update_stream

_NO_LIMIT = CostModel(time_limit_seconds=None)


@pytest.fixture(scope="module")
def traced_run():
    """One cached serving run: (records, ServeReport)."""
    graph = social_graph(200, seed=9)
    index = build_index(graph, cost_model=_NO_LIMIT).index
    store = ShardedLabelStore(index, num_shards=4, cost_model=_NO_LIMIT)
    backend = CachingBackend(ShardedIndexBackend(store))
    pairs = zipf_pairs(graph.num_vertices, 1500, seed=1)
    arrivals = poisson_arrivals(1500, rate=2_000_000, seed=2)
    sink = InMemorySink()
    with session([sink]):
        server = QueryServer(backend, queue_depth=64)
        report = server.run_open(pairs, arrivals)
    return sink.records, report


@pytest.fixture(scope="module")
def model(traced_run):
    records, _ = traced_run
    return DashboardModel.from_trace(Trace(records))


def _mixed_run():
    """Reads beside writes over a leader and a round-robin follower
    group that lags behind it; a shallow queue sheds some of both."""
    leader = DynamicReachabilityIndex(social_graph(150, seed=4))
    replicator = BoundedStalenessReplicator(
        leader, num_replicas=2, delay_seconds=2e-4
    )
    store = ShardedLabelStore(
        leader, num_shards=4, cost_model=_NO_LIMIT, replicas=2,
        policy="round-robin", replicator=replicator,
    )
    cache = QueryCache()
    cache.attach(leader)
    server = QueryServer(
        CachingBackend(ShardedIndexBackend(store), cache),
        queue_depth=32,
        on_advance=store.advance,
        mutation_backend=MutationBackend(
            leader, replicator=replicator
        ),
    )
    mutations = mixed_update_stream(
        leader.current_graph(), 150, node_ratio=0.1, seed=5
    )
    return server.run_mixed(
        zipf_pairs(leader.num_vertices, 1500, seed=6),
        poisson_arrivals(1500, rate=1_000_000, seed=7),
        mutations,
        poisson_arrivals(150, rate=100_000, seed=8),
    )


def _crashed_run():
    """Both copies of shard 0 crash mid-run, so its reads fail, and
    shard 1 fails over to its second copy."""
    graph = social_graph(150, seed=4)
    store = ShardedLabelStore(
        build_index(graph, cost_model=_NO_LIMIT).index,
        num_shards=2, cost_model=_NO_LIMIT, replicas=2,
    )
    timeline = Timeline(store.advance)
    ServeFaultPlan.parse(
        "crash=0.0@0.0002,crash=0.1@0.0002,crash=1.0@0.0002"
    ).schedule(
        timeline, store
    )
    server = QueryServer(
        ShardedIndexBackend(store), on_advance=timeline.advance,
    )
    return server.run_open(
        random_pairs(graph.num_vertices, 600, seed=5),
        uniform_arrivals(600, rate=1_000_000),
    )


def _traced(run):
    sink = InMemorySink()
    with session([sink]):
        report = run()
    return sink.records, report


#: Every ServeReport field a request trace carries.
_TRACED_FIELDS = (
    "offered", "served", "shed", "deadline_dropped", "failed", "positives",
    "makespan_seconds", "mean_seconds", "p50_seconds", "p99_seconds",
    "p999_seconds", "max_seconds", "cache_hits", "cache_misses",
    "failovers", "hedges_won", "stale_reads", "confirmed_reads",
    "forced_catchups", "mutations_offered", "mutations_applied",
    "mutations_noop", "mutations_rejected", "mutations_shed",
    "mutation_p50_seconds", "mutation_p99_seconds", "mutation_max_seconds",
    # Derived from the fields above.
    "throughput", "availability", "cache_hit_rate", "update_throughput",
)


class TestModel:
    def test_counts_match_report(self, traced_run, model):
        _, report = traced_run
        assert model.report.offered == report.offered
        assert model.report.served == report.served
        assert model.report.shed == report.shed
        assert model.report.deadline_dropped == report.deadline_dropped
        assert model.report.positives == report.positives

    def test_percentiles_match_report_exactly(self, traced_run, model):
        _, report = traced_run
        assert model.report.p50_seconds == report.p50_seconds
        assert model.report.p99_seconds == report.p99_seconds
        assert model.report.p999_seconds == report.p999_seconds
        assert model.report.makespan_seconds == report.makespan_seconds
        assert model.report.throughput == report.throughput

    def test_hit_rate_matches_report_exactly(self, traced_run, model):
        _, report = traced_run
        assert model.report.cache_hits == report.cache_hits
        assert model.report.cache_misses == report.cache_misses
        assert model.report.cache_hit_rate == report.cache_hit_rate

    def test_shard_traffic(self, traced_run, model):
        _, report = traced_run
        # Store stages record every fetch; shard loads cover all shards.
        assert model.store_fetches == report.cache_misses
        assert sum(model.shard_loads.values()) == sum(report.shard_loads)

    @pytest.mark.parametrize("run", ["cached", "mixed", "crashed"])
    def test_report_matches_the_live_run(self, traced_run, run):
        records, live = {
            "cached": lambda: traced_run,
            "mixed": lambda: _traced(_mixed_run),
            "crashed": lambda: _traced(_crashed_run),
        }[run]()
        model = DashboardModel.from_trace(Trace(records))
        for name in _TRACED_FIELDS:
            assert getattr(model.report, name) == getattr(live, name), name
        # The store stages name every shard a fetch read.
        assert [
            model.shard_loads.get(shard, 0)
            for shard in range(len(live.shard_loads))
        ] == live.shard_loads
        assert model.traced_fraction == 1.0
        assert sum(w.offered for w in model.windows) == live.offered
        assert sum(w.served for w in model.windows) == live.served
        assert model.latencies == sorted(
            r.latency_seconds
            for r in model.requests
            if r.op is None and r.outcome == "served"
        )
        # Writes show where, and only where, the trace holds them.
        assert ("mutations_offered" in model.to_json()) == (run == "mixed")
        assert ("  writes " in model.render()) == (run == "mixed")
        if run == "cached":
            assert model.store_fetches == live.cache_misses
        # Each case exercises what it is here for.
        if run == "mixed":
            assert live.mutations_applied and live.mutations_shed and live.shed
            assert live.stale_reads + live.confirmed_reads + live.forced_catchups
        if run == "crashed":
            assert live.failed and live.failovers

    def test_traced_fraction_and_stage_counts(self, model):
        assert model.traced_fraction >= 0.99
        for stage in ("admission", "cache", "store", "backend"):
            assert model.stage_counts.get(stage, 0) > 0

    def test_windows_cover_the_run(self, model):
        assert model.windows
        assert sum(w.offered for w in model.windows) == model.report.offered
        assert sum(w.served for w in model.windows) == model.report.served

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
        assert payload["served"] == model.report.served
        assert payload["p99_seconds"] == model.report.p99_seconds
        assert payload["hit_rate"] == model.report.cache_hit_rate
        assert len(payload["windows"]) == len(model.windows)
        assert "alerts" not in payload and "slos" not in payload

    def test_render_mentions_the_essentials(self, model):
        text = model.render()
        assert "throughput" in text
        assert "p99" in text
        assert "Windows" in text
        assert "Worst requests" in text

    def test_run_selection(self, traced_run):
        records, report = traced_run
        doubled = list(records) + [
            {**r, "span": (r.get("span") or 0) + 1000}
            for r in records
            if r.get("kind") == "event" and r.get("name") == "serve.request"
        ]
        both = DashboardModel.from_trace(Trace(doubled))
        assert both.runs == 2
        assert both.report.offered == 2 * report.offered
        first = DashboardModel.from_trace(Trace(doubled), run=1)
        assert first.report.offered == report.offered
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
        assert (both.runs, both.report.failovers, both.replication_lag_peak) == (2, 1, 7)
        first = DashboardModel.from_trace(trace, run=1)
        assert (first.report.failovers, first.replication_lag_peak) == (0, 2)
        assert first.group_lag_peaks == {"1": 2}
        second = DashboardModel.from_trace(trace, run=2)
        assert (second.report.failovers, second.replication_lag_peak) == (1, 7)
        assert second.group_lag_peaks == {"1": 7, "2": 3}

    @pytest.mark.parametrize(
        "span", [12e-6, 1e-9, 5e-4, 7.3e-3, 0.1, 0.7, 1.0, 3.0]
    )
    def test_windows_stop_at_the_makespan(self, span):
        """The default width cuts exactly ``DEFAULT_WINDOW_COUNT``
        windows (a ceiling over ``span / (span / 12)`` used to add a
        13th, zero-length one on about a third of spans), and a width
        the user sets opens no window at or past the makespan."""
        requests = [RequestTrace(f"t{i}", 0, 1, span * i / 16) for i in range(16)]
        default = DashboardModel._build_windows(requests, span, None)
        assert len(default) == DEFAULT_WINDOW_COUNT
        for parts in (3, 7, 10, 12):
            windows = DashboardModel._build_windows(requests, span, span / parts)
            assert len(windows) in (parts, parts + 1)
            for cut in (default, windows):
                assert all(w.start < w.end for w in cut)
                assert cut[-1].end == span
                assert sum(w.offered for w in cut) == len(requests)

    def test_empty_records(self):
        empty = DashboardModel.from_trace(Trace())
        assert empty.report.offered == 0
        assert empty.windows == []
        assert empty.report.p99_seconds == 0.0
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
        report = replicated_model.report
        assert report.confirmed_reads == 1
        assert report.stale_reads == 1
        assert report.forced_catchups == 1
        assert report.hedges_won == 1

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

    def test_top_missing_file(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "nope.jsonl"), "--once"]) == 2

    def test_top_no_requests(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"kind": "span", "name": "x", "id": 1, "start": 0.0}\n')
        assert main(["top", str(path), "--once"]) == 1

    def test_top_has_no_slo_flags(self, trace_file, capsys):
        """--fail-on-alert and --slo are unknown flags: no flag is taken
        as a prefix of another, so --slo is not read as --slowest."""
        with pytest.raises(SystemExit) as exc:
            main(["top", str(trace_file), "--once", "--fail-on-alert"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fail-on-alert" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["top", str(trace_file), "--once", "--slo", "spec.json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --slo spec.json" in captured.err

    def test_top_refuses_more_windows_than_requests(self, trace_file, capsys):
        """--window 1e-300 used to allocate span / 1e-300 rows."""
        started = time.perf_counter()
        assert main(
            ["top", str(trace_file), "--once", "--window", "1e-300"]
        ) == 2
        assert time.perf_counter() - started < 1.0
        (line,) = capsys.readouterr().err.splitlines()
        assert "more windows than its 1500 requests" in line

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
