"""Tests for the profile views: node timelines, skew analysis, exporters."""

import json

import pytest

from repro.core.drl import drl_index
from repro.core.drl_basic import drl_basic_index
from repro.core.drl_batch import drl_batch_index
from repro.graph.generators import random_digraph
from repro.pregel.cost_model import CostModel
from repro.pregel.engine import Cluster
from repro.pregel.vertex_program import VertexProgram
from repro.observe.export import chrome_trace, folded_stacks, write_chrome_trace
from repro.observe.report import critical_path, summarize_trace
from repro.observe.skew import analyze_skew
from repro.telemetry import session
from repro.telemetry.reader import Trace, read_trace
from repro.telemetry.sinks import InMemorySink, JsonlSink
from tests.conftest import straggler_records

_NO_LIMIT = CostModel(time_limit_seconds=None)


class _Flood(VertexProgram):
    def __init__(self):
        self.visited: set[int] = set()

    def compute(self, ctx, v, messages):
        if ctx.superstep == 1 and v != 0:
            return
        if v in self.visited:
            return
        self.visited.add(v)
        for w in ctx.graph.out_neighbors(v):
            ctx.charge()
            ctx.send(w, None)


@pytest.fixture(scope="module")
def graph():
    return random_digraph(120, 480, seed=11)


def timed(run):
    """``run()`` under a session: its result and the node timeline
    :class:`Trace` rebuilds from the session's records."""
    sink = InMemorySink()
    with session([sink]):
        result = run()
    return result, Trace(sink.records).node_timeline


# ----------------------------------------------------------------------
# Timeline recording in the engine
# ----------------------------------------------------------------------
def test_timeline_slices_sum_to_run_totals(graph):
    stats, timeline = timed(
        lambda: Cluster(num_nodes=4, cost_model=_NO_LIMIT).run(graph, _Flood())
    )
    assert timeline is not None
    assert timeline.num_nodes == 4
    assert len(timeline.supersteps()) == stats.supersteps
    units = [0] * 4
    lanes = [0.0] * 4
    for piece in timeline.slices:
        units[piece.node] += piece.units
        lanes[piece.node] += piece.total_seconds
    assert units == stats.per_node_units
    assert sum(units) == stats.compute_units
    # Each node's lane covers the same wall of simulated time, equal to
    # the run's comp+comm+barrier total (waits absorb the slack).
    expected = (
        stats.computation_seconds
        + stats.communication_seconds
        + stats.barrier_seconds
    )
    for lane in lanes:
        assert lane == pytest.approx(expected)
    # Waits are non-negative slack; within a super-step every node's lane
    # spans the same simulated interval.  (No node is guaranteed zero wait:
    # the compute-heaviest and comm-heaviest node may differ.)
    for group in timeline.supersteps():
        assert all(p.barrier_wait_seconds >= 0 for p in group)
        span = {p.total_seconds for p in group}
        assert max(span) == pytest.approx(min(span))


def test_timeline_records_finalize_pass(graph):
    class _Finalizing(_Flood):
        def finalize(self, fctx):
            for v in range(fctx.graph.num_vertices):
                fctx.charge(v)

    stats, timeline = timed(
        lambda: Cluster(num_nodes=4, cost_model=_NO_LIMIT).run(
            graph, _Finalizing()
        )
    )
    groups = timeline.supersteps()
    assert len(groups) == stats.supersteps  # finalize counts as one
    last = groups[-1]
    assert all(piece.comm_seconds == 0.0 for piece in last)
    assert sum(piece.units for piece in last) == graph.num_vertices


def test_timeline_merges_across_chained_runs(graph):
    result, timeline = timed(
        lambda: drl_batch_index(graph, num_nodes=4, cost_model=_NO_LIMIT)
    )
    stats = result.stats
    assert timeline is not None
    assert len(timeline.supersteps()) == stats.supersteps
    loads = analyze_skew(timeline).node_loads
    assert [load.units for load in loads] == stats.per_node_units


def test_timeline_via_builders(graph):
    for builder in (drl_index, drl_basic_index):
        result, timeline = timed(
            lambda: builder(graph, num_nodes=4, cost_model=_NO_LIMIT)
        )
        assert timeline is not None
        assert len(timeline.supersteps()) == result.stats.supersteps


def test_node_events_emitted_under_session(graph):
    sink = InMemorySink()
    with session([sink]):
        stats = Cluster(num_nodes=4, cost_model=_NO_LIMIT).run(
            graph, _Flood()
        )
    node_events = [e for e in sink.events if e.name == "pregel.node"]
    assert len(node_events) == 4 * stats.supersteps
    assert sum(e.attrs["units"] for e in node_events) == stats.compute_units


# ----------------------------------------------------------------------
# Skew analysis
# ----------------------------------------------------------------------
def test_skew_names_straggler_and_estimates_rebalance():
    report = analyze_skew(Trace(straggler_records()).node_timeline)
    assert report.dominant_straggler == 2
    assert report.stragglers[0][1] == pytest.approx(4.0)
    assert not report.balanced
    assert report.rebalance_speedup > 1.0
    for load in report.node_loads:
        if load.node != 2:
            assert load.wait_share > 0
    assert "node 2 (4.0x)" in report.render()


def test_skew_clean_run_is_balanced(graph):
    _, timeline = timed(
        lambda: drl_batch_index(graph, num_nodes=4, cost_model=_NO_LIMIT)
    )
    report = analyze_skew(timeline)
    assert report.dominant_straggler is None
    assert report.balanced
    assert report.gini < 0.1
    assert 0 <= report.barrier_wait_share < 0.2
    assert sum(l.busy_share for l in report.node_loads) == pytest.approx(1.0)


def test_timeline_from_records_empty_without_node_events():
    trace = Trace([{"kind": "span", "name": "a", "id": 1, "start": 0.0}])
    assert trace.node_timeline is None


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
@pytest.fixture()
def trace_records(graph, tmp_path):
    path = tmp_path / "trace.jsonl"
    with session([JsonlSink(path)]):
        stats = Cluster(num_nodes=4, cost_model=_NO_LIMIT).run(graph, _Flood())
    return read_trace(path), stats


def test_chrome_trace_one_process_per_node(trace_records):
    records, stats = trace_records
    doc = chrome_trace(records)
    names = {
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert names == {
        "driver (wall clock)",
        "node 0 (simulated)",
        "node 1 (simulated)",
        "node 2 (simulated)",
        "node 3 (simulated)",
    }


def test_chrome_trace_node_totals_match_timeline(trace_records):
    records, stats = trace_records
    events = chrome_trace(records)["traceEvents"]
    # Every lane spans the run's comp + comm + barrier total.
    total = (
        stats.computation_seconds
        + stats.communication_seconds
        + stats.barrier_seconds
    )
    for node in range(4):
        lane_us = sum(
            e["dur"]
            for e in events
            if e["ph"] == "X" and e["pid"] == node + 1
        )
        assert lane_us == pytest.approx(total * 1e6)


def test_chrome_trace_wall_timestamps_normalized(trace_records):
    records, _ = trace_records
    events = chrome_trace(records)["traceEvents"]
    driver = [e for e in events if e["ph"] == "X" and e["pid"] == 0]
    assert driver
    assert min(e["ts"] for e in driver) == pytest.approx(0.0, abs=1e-6)
    assert all(e["ts"] >= 0 for e in driver)


def test_chrome_trace_zero_is_the_earliest_span_start_not_an_event():
    """An event stamped before every span does not move the zero."""
    trace = Trace([
        {"kind": "event", "name": "early", "span": None, "wall": 5.0,
         "attrs": {}},
        {"kind": "span", "name": "child", "id": 2, "parent": 1,
         "start": 10.5, "wall_seconds": 0.25, "simulated_seconds": 0.0,
         "status": "ok", "attrs": {}},
        {"kind": "span", "name": "root", "id": 1, "parent": None,
         "start": 10.0, "wall_seconds": 1.0, "simulated_seconds": 0.0,
         "status": "ok", "attrs": {}},
    ])
    wall_lane = {
        e["name"]: e["ts"] for e in chrome_trace(trace)["traceEvents"]
        if e["ph"] == "X" and e["pid"] == 0
    }
    assert wall_lane == {"root": 0.0, "child": 0.5e6}


def test_chrome_trace_is_valid_json(trace_records, tmp_path):
    records, _ = trace_records
    out = tmp_path / "chrome.json"
    write_chrome_trace(records, out)
    doc = json.loads(out.read_text())
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]


def test_folded_stacks_nest_and_weight(tmp_path, graph):
    path = tmp_path / "trace.jsonl"
    with session([JsonlSink(path)]):
        drl_batch_index(graph, num_nodes=4, cost_model=_NO_LIMIT)
    lines = folded_stacks(read_trace(path))
    assert lines
    stacked = [line for line in lines if ";" in line]
    assert any("drl_b.build;drl_b.batch;pregel.run" in line for line in stacked)
    for line in lines:
        _, value = line.rsplit(" ", 1)
        assert int(value) > 0


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def test_critical_path_follows_heaviest_children(tmp_path, graph):
    path = tmp_path / "trace.jsonl"
    with session([JsonlSink(path)]):
        drl_batch_index(graph, num_nodes=4, cost_model=_NO_LIMIT)
    chain = critical_path(read_trace(path))
    names = [name for name, _ in chain]
    assert names[0] == "drl_b.build"
    assert "pregel.run" in names
    assert critical_path(Trace()) == []


def test_profile_report_sections(trace_records):
    records, _ = trace_records
    text = summarize_trace(records)
    titles = ("records:", "Skew report", "Top spans by simulated time",
              "Critical path", "Super-steps of the longest run")
    starts = [text.find(title) for title in titles]
    assert -1 not in starts and starts == sorted(starts)
