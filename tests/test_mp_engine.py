"""Unit tests of the multiprocessing engine and the shared partition
assignment helper.

The engine-equivalence matrix lives in ``test_engine_equivalence.py``;
this module covers the plumbing around it: the single
:func:`~repro.graph.partition.node_assignment` helper every executor
shares (pinned by a golden so a silent change to the hash mix cannot
slip through), engine selection and its rejection paths, worker
timelines, the CLI flags, builds that end at the super-step limit or
the simulated cut-off, one fork per build, a worker killed or stopped
mid-superstep or a master that raises between two floods, the combiner
across workers, the relay rules (the master applies no delta; no
worker gets its own delta or finalize reply back) and the re-arm that
touches only written rows.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from multiprocessing.context import ForkProcess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main
from repro.core.batching import batch_sequence
from repro.core.build import build_index
from repro.core.drl import DrlFloodProgram, drl_index
from repro.core.multicore import (
    _WORKING_BYTES_PER_VERTEX,
    per_core_working_bytes,
)
from repro.errors import ReproError
from repro.graph.generators import citation_graph
from repro.graph.io import write_edge_list
from repro.graph.order import degree_order
from repro.graph.partition import (
    PARTITIONER_STRATEGIES,
    HashPartitioner,
    node_assignment,
)
from repro.pregel import mp
from repro.pregel.cost_model import CostModel, TimeLimitExceeded
from repro.pregel.engine import (
    ENGINE_NAMES,
    Cluster,
    SimulatorEngine,
    SuperstepLimitExceeded,
    resolve_engine,
)
from repro.pregel.metrics import RunStats
from repro.pregel.mp import MultiprocessEngine
from repro.pregel.vertex_program import VertexProgram
from repro.telemetry import session
from repro.telemetry.reader import Trace
from repro.telemetry.sinks import InMemorySink

from tests.conftest import family_graphs
from tests.test_message_plane import PerDestinationFlood, run


# ----------------------------------------------------------------------
# The shared partition-assignment helper (one source of truth)
# ----------------------------------------------------------------------
def test_node_assignment_golden():
    """Pin the hash assignment both engines and the multi-core memory
    estimator share; a change here silently re-partitions every build."""
    assert list(node_assignment(HashPartitioner(4), 12)) == [
        0, 1, 2, 0, 1, 3, 0, 2, 3, 1, 2, 0,
    ]


@pytest.mark.parametrize("strategy", sorted(PARTITIONER_STRATEGIES))
def test_node_assignment_matches_partition(strategy):
    partitioner = PARTITIONER_STRATEGIES[strategy](3, 20)
    assignment = node_assignment(partitioner, 20)
    assert assignment.typecode == "q"
    for node, members in enumerate(partitioner.partition(20)):
        for v in members:
            assert assignment[v] == node


def test_multicore_estimate_counts_by_shared_assignment():
    graph = citation_graph(50, avg_refs=2.0, seed=1)
    partitioner = HashPartitioner(4)
    per_core = per_core_working_bytes(graph, partitioner)
    assignment = node_assignment(partitioner, graph.num_vertices)
    for core, estimate in enumerate(per_core):
        owned = sum(1 for node in assignment if node == core)
        assert estimate == _WORKING_BYTES_PER_VERTEX * owned
    assert sum(per_core) == _WORKING_BYTES_PER_VERTEX * graph.num_vertices


class _OwnerProbeProgram(VertexProgram):
    """Records which node each vertex computed on; no messages."""

    mp_supported = True

    def __init__(self, num_vertices: int):
        self.owners = [-1] * num_vertices

    def compute(self, ctx, w, messages) -> None:
        self.owners[w] = ctx.node_of(w)

    def mp_collect(self, vertices):
        return [(w, self.owners[w]) for w in vertices]

    def mp_merge(self, collected) -> None:
        for w, owner in collected:
            self.owners[w] = owner


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_both_engines_place_vertices_by_shared_helper(engine):
    """Regression for the one-helper rule: the vertex placement either
    engine actually computes with equals ``node_assignment``'s output."""
    graph = citation_graph(30, avg_refs=2.0, seed=7)
    cluster = Cluster(num_nodes=5, engine=engine, workers=2)
    program = _OwnerProbeProgram(graph.num_vertices)
    cluster.run(graph, program)
    expected = node_assignment(cluster.partitioner, graph.num_vertices)
    assert program.owners == list(expected)


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
def test_resolve_engine():
    assert isinstance(resolve_engine("sim"), SimulatorEngine)
    mp = resolve_engine("mp", workers=3)
    assert isinstance(mp, MultiprocessEngine)
    assert mp.workers == 3
    instance = MultiprocessEngine(workers=2)
    assert resolve_engine(instance) is instance
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("gpu")


def test_cluster_exposes_engine_by_name():
    assert Cluster(num_nodes=2).engine.name == "sim"
    assert Cluster(num_nodes=2, engine="mp").engine.name == "mp"


# ----------------------------------------------------------------------
# Rejection paths
# ----------------------------------------------------------------------
def test_mp_rejects_programs_without_hooks():
    class _Plain(VertexProgram):
        def compute(self, ctx, w, messages) -> None:  # pragma: no cover
            pass

    graph = citation_graph(10, avg_refs=1.5, seed=0)
    with pytest.raises(ReproError, match="mp_supported"):
        Cluster(num_nodes=2, engine="mp").run(graph, _Plain())


def test_vertex_program_mp_hooks_default_unimplemented():
    class _Claims(VertexProgram):
        mp_supported = True

        def compute(self, ctx, w, messages) -> None:  # pragma: no cover
            pass

    with pytest.raises(NotImplementedError, match="mp_collect"):
        _Claims().mp_collect([0])
    with pytest.raises(NotImplementedError, match="mp_merge"):
        _Claims().mp_merge([])


# ----------------------------------------------------------------------
# Worker behaviour
# ----------------------------------------------------------------------
def _flood(engine, graph, cost_model=None, **run_kwargs):
    """One traced DRL flood on ``engine``: ``(exception or None, the
    committed stats with the wall clock zeroed, its pregel.superstep
    rows)``."""
    cluster = Cluster(num_nodes=3, cost_model=cost_model, engine=engine, workers=2)
    stats = RunStats(num_nodes=3, per_node_units=[0] * 3)
    error = None
    sink = InMemorySink()
    with session([sink]):
        try:
            cluster.run(
                graph, DrlFloodProgram(graph, degree_order(graph)),
                stats=stats, **run_kwargs,
            )
        except ReproError as exc:
            error = exc
    rows = [e["attrs"] for e in Trace(sink.records).events("pregel.superstep")]
    return error, replace(stats, wall_seconds=0.0), rows


def test_single_worker_matches_simulator():
    graph = citation_graph(24, avg_refs=2.0, seed=4)
    sim = drl_index(graph, num_nodes=3)
    mp = drl_index(graph, num_nodes=3, engine="mp", workers=1)
    assert mp.index == sim.index
    assert mp.stats.simulated_seconds == sim.stats.simulated_seconds
    # Trace rows and the finalize pass (one super-step beyond the last
    # traced one), not just totals.
    _, sim_stats, sim_trace = _flood("sim", graph)
    _, mp_stats, mp_trace = _flood(MultiprocessEngine(workers=1), graph)
    assert (mp_stats, mp_trace) == (sim_stats, sim_trace)
    assert sim_stats.supersteps == len(sim_trace) + 1
    assert sum(sim_stats.per_node_units) == sim_stats.compute_units
    assert sim_stats.compute_units > sum(
        row["compute_units"] for row in sim_trace
    )


def test_mp_timeline_holds_measured_worker_slices():
    """Under mp, the timeline is per *worker process* with measured
    wall-clock, not the simulator's modelled per-node split."""
    graph = citation_graph(24, avg_refs=2.0, seed=4)
    sink = InMemorySink()
    with session([sink]):
        drl_index(graph, num_nodes=4, engine="mp", workers=2)
    timeline = Trace(sink.records).node_timeline
    assert timeline is not None
    assert timeline.num_nodes == 2
    assert timeline.slices
    assert {piece.node for piece in timeline.slices} <= {0, 1}
    for piece in timeline.slices:
        assert piece.compute_seconds >= 0.0
        assert piece.barrier_wait_seconds >= 0.0


# ----------------------------------------------------------------------
# A build that ends early
# ----------------------------------------------------------------------
@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_superstep_limit_ends_mp_like_the_simulator():
    graph = citation_graph(80, avg_refs=2.5, seed=4)
    before = _shm_segments()
    sim_error, sim_stats, sim_trace = _flood("sim", graph, max_supersteps=3)
    mp_error, mp_stats, mp_trace = _flood("mp", graph, max_supersteps=3)
    assert type(sim_error) is type(mp_error) is SuperstepLimitExceeded
    assert str(mp_error) == str(sim_error)
    assert (mp_stats, mp_trace) == (sim_stats, sim_trace)
    assert mp_stats.supersteps == len(mp_trace) == 3
    assert multiprocessing.active_children() == []
    assert _shm_segments() <= before


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_time_limit_ends_mp_like_the_simulator():
    graph = citation_graph(80, avg_refs=2.5, seed=4)
    _, full, _ = _flood("sim", graph)
    cost = CostModel().with_time_limit(full.simulated_seconds / 2)
    before = _shm_segments()
    sim_error, sim_stats, sim_trace = _flood("sim", graph, cost_model=cost)
    mp_error, mp_stats, mp_trace = _flood("mp", graph, cost_model=cost)
    assert type(sim_error) is type(mp_error) is TimeLimitExceeded
    assert str(mp_error) == str(sim_error)
    assert (mp_stats, mp_trace) == (sim_stats, sim_trace)
    assert 0 < mp_stats.supersteps < full.supersteps
    assert multiprocessing.active_children() == []
    assert _shm_segments() <= before


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
def test_cli_build_engines_agree_byte_for_byte(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    write_edge_list(citation_graph(60, avg_refs=2.0, seed=2), edges)
    sim_idx = tmp_path / "sim.idx"
    mp_idx = tmp_path / "mp.idx"
    argv = ["build", str(edges), "--method", "drl", "--nodes", "4"]
    assert main(argv + ["-o", str(sim_idx), "--engine", "sim"]) == 0
    assert main(
        argv + ["-o", str(mp_idx), "--engine", "mp", "--workers", "2"]
    ) == 0
    capsys.readouterr()
    assert sim_idx.read_bytes() == mp_idx.read_bytes()


def test_cli_rejects_bad_engine_combinations(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    write_edge_list(citation_graph(10, avg_refs=1.5, seed=0), edges)
    out = tmp_path / "x.idx"
    base = ["build", str(edges), "-o", str(out)]
    assert main(base + ["--method", "tol", "--engine", "mp"]) == 2
    assert main(base + ["--engine", "mp", "--workers", "0"]) == 2
    assert main(base + ["--workers", "2"]) == 2
    err = capsys.readouterr().err
    assert "only applies to --engine mp" in err


# ----------------------------------------------------------------------
# A build leaves no segment and no resource tracker behind
# ----------------------------------------------------------------------
_FRESH_BUILD = """
import multiprocessing.resource_tracker as tracker
from repro.core.build import build_index
from repro.graph.generators import citation_graph

build_index(
    citation_graph(200, avg_refs=2.5, seed=3), method="drl-b",
    num_nodes=6, engine="mp", workers=3,
)
print(tracker._resource_tracker._fd)
"""


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_mp_build_in_a_fresh_process_makes_no_segment_and_no_tracker():
    # The workers read the master's CSR through fork: a build creates no
    # shared-memory segment, so the stdlib never starts its resource
    # tracker process.  A fresh interpreter shows both, as nothing else
    # in it could have started the tracker first.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    before = _shm_segments()
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_BUILD], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "None\n"
    assert _shm_segments() <= before


# ----------------------------------------------------------------------
# A worker that dies mid-superstep
# ----------------------------------------------------------------------
def _shm_segments() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


@pytest.fixture
def one_worker_dies(request, tmp_path, monkeypatch):
    """Patch DRL's ``compute`` so exactly one forked worker ``SIGKILL``s
    itself in super-step 2 of flood ``request.param`` (default 1; the
    first worker to create the marker file).  A process counts its
    floods by its ``next_batch`` calls: the master makes DRL_b's first
    before the workers are forked, and a replica replays every later
    one; DRL floods once, unarmed."""
    flood = getattr(request, "param", 1)
    master = os.getpid()
    marker = tmp_path / "killed"
    rearms = [0]
    original_compute = DrlFloodProgram.compute
    original_next_batch = DrlFloodProgram.next_batch

    def next_batch(self, sources):
        rearms[0] += 1
        original_next_batch(self, sources)

    def compute(self, ctx, w, messages):
        if (
            ctx.superstep == 2 and os.getpid() != master
            and max(rearms[0], 1) == flood
        ):
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        original_compute(self, ctx, w, messages)

    monkeypatch.setattr(DrlFloodProgram, "next_batch", next_batch)
    monkeypatch.setattr(DrlFloodProgram, "compute", compute)
    return marker


def _count_forks(monkeypatch) -> list:
    """Record every worker process the mp engine starts."""
    started: list = []
    original = ForkProcess.start

    def start(self):
        started.append(self)
        original(self)

    monkeypatch.setattr(ForkProcess, "start", start)
    return started


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_killed_worker_ends_in_a_typed_error(one_worker_dies):
    graph = citation_graph(80, avg_refs=2.5, seed=4)
    before = _shm_segments()
    with pytest.raises(ReproError) as info:
        build_index(graph, method="drl", num_nodes=6, engine="mp", workers=3)
    assert one_worker_dies.exists()
    message = str(info.value)
    assert "mp worker" in message
    assert f"killed by signal {int(signal.SIGKILL)}" in message
    assert "superstep 2" in message
    # Every other worker was reaped and the CSR segments unlinked.
    assert multiprocessing.active_children() == []
    assert _shm_segments() <= before


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_worker_exception_reaches_the_master_with_its_traceback(monkeypatch):
    original = DrlFloodProgram.compute

    def compute(self, ctx, w, messages):
        if ctx.superstep == 2:
            raise ValueError(f"boom at vertex {w}")
        original(self, ctx, w, messages)

    monkeypatch.setattr(DrlFloodProgram, "compute", compute)
    graph = citation_graph(80, avg_refs=2.5, seed=4)
    before = _shm_segments()
    with pytest.raises(ValueError, match="boom at vertex") as info:
        build_index(graph, method="drl", num_nodes=6, engine="mp", workers=3)
    notes = "\n".join(info.value.__notes__)
    assert "worker" in notes and "traceback" in notes
    assert "in compute" in notes  # the worker-side frame, not the master's
    assert multiprocessing.active_children() == []
    assert _shm_segments() <= before


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_cli_reports_a_killed_worker_with_exit_code_2(
    one_worker_dies, tmp_path, capsys
):
    edges = tmp_path / "g.edges"
    write_edge_list(citation_graph(80, avg_refs=2.5, seed=4), edges)
    out = tmp_path / "x.idx"
    before = _shm_segments()
    argv = ["build", str(edges), "-o", str(out), "--method", "drl-b",
            "--nodes", "6", "--engine", "mp", "--workers", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: mp worker") and "killed by signal" in err
    assert not out.exists()
    assert multiprocessing.active_children() == []
    assert _shm_segments() <= before


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
@pytest.mark.parametrize("one_worker_dies", [3], indirect=True)
def test_worker_killed_in_a_later_batch_ends_in_a_typed_error(
    one_worker_dies, monkeypatch
):
    """The pool survives two re-arms, then loses a worker in batch 3."""
    started = _count_forks(monkeypatch)
    graph = citation_graph(80, avg_refs=2.5, seed=4)
    before = _shm_segments()
    with pytest.raises(ReproError) as info:
        build_index(graph, method="drl-b", num_nodes=6, engine="mp", workers=3)
    assert one_worker_dies.exists()
    assert len(started) == 3  # the batch-3 workers are the first ones
    message = str(info.value)
    assert message.startswith("mp worker")
    assert f"killed by signal {int(signal.SIGKILL)}" in message
    assert message.endswith("during superstep 2")
    assert multiprocessing.active_children() == []
    assert _shm_segments() <= before


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_a_stopped_worker_ends_in_a_typed_error_at_the_deadline(
    tmp_path, monkeypatch
):
    """A worker that neither answers nor dies (``SIGSTOP``ped in
    super-step 2) ends the build in one ``ReproError`` once the reply
    deadline passes; the stopped worker is killed, since it never acts
    on ``SIGTERM``, and nothing is left behind."""
    monkeypatch.setattr(mp, "_REPLY_DEADLINE", 0.5)
    master, marker = os.getpid(), tmp_path / "stopped"
    original = DrlFloodProgram.compute

    def compute(self, ctx, w, messages):
        if ctx.superstep == 2 and os.getpid() != master:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGSTOP)
        original(self, ctx, w, messages)

    monkeypatch.setattr(DrlFloodProgram, "compute", compute)
    graph = citation_graph(80, avg_refs=2.5, seed=4)
    before = _shm_segments()
    started = time.monotonic()
    with pytest.raises(ReproError) as info:
        build_index(graph, method="drl", num_nodes=6, engine="mp", workers=3)
    assert time.monotonic() - started < 10  # not forever
    assert marker.exists()
    message = str(info.value)
    assert message.startswith("mp worker")
    assert message.endswith("stopped answering during superstep 2")
    assert multiprocessing.active_children() == []
    assert _shm_segments() <= before


# ----------------------------------------------------------------------
# The combiner across workers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("arrival_seed", [None, 7])
@pytest.mark.parametrize("workers", [2, 3])
def test_the_combiner_on_the_mp_engine(workers, arrival_seed):
    """Combined sends leave each worker as single-destination records,
    deduplicated at the sender: DRL's index and every ``RunStats``
    field, and a per-destination flood's every accounted number, are
    the simulator's."""
    graph = citation_graph(80, avg_refs=2.5, seed=4)
    plain = drl_index(graph, num_nodes=6)
    sim = drl_index(graph, num_nodes=6, combine_messages=True)
    assert sim.stats.total_messages < plain.stats.total_messages  # it bites
    engine = MultiprocessEngine(workers=workers, arrival_seed=arrival_seed)
    got = drl_index(graph, num_nodes=6, combine_messages=True, engine=engine)
    assert got.index == sim.index
    assert replace(got.stats, wall_seconds=0.0) == replace(sim.stats, wall_seconds=0.0)

    seen, stats = run(PerDestinationFlood(graph, combine=True), graph)
    del stats["node_timeline"]  # the mp engine's slices are measured
    engine = MultiprocessEngine(workers=workers, arrival_seed=arrival_seed)
    assert run(PerDestinationFlood(graph, combine=True), graph, engine=engine) == (
        seen, stats,
    )
    assert multiprocessing.active_children() == []


def test_more_nodes_than_one_byte_names():
    """Past 256 nodes a target's node takes eight bytes, not one."""
    graph = citation_graph(80, avg_refs=2.5, seed=4)
    sim = drl_index(graph, num_nodes=300)
    got = drl_index(graph, num_nodes=300, engine="mp", workers=2)
    assert got.index == sim.index
    assert replace(got.stats, wall_seconds=0.0) == replace(sim.stats, wall_seconds=0.0)


# ----------------------------------------------------------------------
# One pool per build
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "method, options",
    [
        ("drl-b", {}),
        ("drl-b", {"initial_batch_size": 1, "growth_factor": 1.0}),
        ("drl-", {}),
    ],
    ids=["drl-b", "drl-b-singletons", "drl-"],
)
def test_an_mp_build_forks_its_workers_once(monkeypatch, method, options):
    """Every flood of a build runs on the workers its first one forked,
    whatever the batch count; the index and the stats stay the
    simulator's."""
    graph = citation_graph(60, avg_refs=2.5, seed=4)
    sim = build_index(graph, method=method, num_nodes=6, **options)
    started = _count_forks(monkeypatch)
    mp = build_index(
        graph, method=method, num_nodes=6, engine="mp", workers=3, **options
    )
    assert len(started) == 3
    assert mp.index == sim.index
    assert replace(mp.stats, wall_seconds=0.0) == replace(sim.stats, wall_seconds=0.0)
    assert multiprocessing.active_children() == []


class _StampProbeProgram(VertexProgram):
    """A first run stamps every vertex; a re-run copies each vertex's
    successor's stamp, which another worker may have written — only the
    merge of the first run's final state brings it to the replica."""

    mp_supported = True

    def __init__(self, num_vertices: int):
        self.stamp = [0] * num_vertices
        self.copied = [0] * num_vertices

    def compute(self, ctx, w, messages) -> None:
        if self.stamp[w]:
            self.copied[w] = self.stamp[(w + 1) % len(self.stamp)]
        else:
            self.stamp[w] = w + 1

    def mp_collect(self, vertices):
        return [(w, self.stamp[w], self.copied[w]) for w in vertices]

    def mp_merge(self, collected) -> None:
        for w, stamp, copied in collected:
            self.stamp[w], self.copied[w] = stamp, copied


def test_a_cluster_keeps_its_workers_between_runs_until_the_with_ends(
    monkeypatch,
):
    """Outside ``with cluster:`` a run reaps its workers; inside, a
    re-run of the program reuses them, and their replicas merge the
    first run's final state before it starts."""
    graph = citation_graph(40, avg_refs=2.0, seed=3)
    started = _count_forks(monkeypatch)
    program = _StampProbeProgram(graph.num_vertices)
    Cluster(num_nodes=4, engine="mp", workers=2).run(graph, program)
    assert len(started) == 2 and multiprocessing.active_children() == []

    started.clear()
    program = _StampProbeProgram(graph.num_vertices)
    with Cluster(num_nodes=4, engine="mp", workers=2) as cluster:
        cluster.run(graph, program)
        cluster.run(graph, program)
        assert len(multiprocessing.active_children()) == 2
    assert len(started) == 2 and multiprocessing.active_children() == []
    n = graph.num_vertices
    assert program.copied == [(w + 1) % n + 1 for w in range(n)]


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_time_limit_in_a_later_batch_reaps_the_pool(monkeypatch):
    graph = citation_graph(80, avg_refs=2.5, seed=4)
    full = build_index(graph, method="drl-b", num_nodes=6)
    cost = CostModel().with_time_limit(full.stats.simulated_seconds * 0.6)
    with pytest.raises(TimeLimitExceeded) as sim_error:
        build_index(graph, method="drl-b", num_nodes=6, cost_model=cost)
    started = _count_forks(monkeypatch)
    before = _shm_segments()
    with pytest.raises(TimeLimitExceeded) as mp_error:
        build_index(
            graph, method="drl-b", num_nodes=6, cost_model=cost,
            engine="mp", workers=3,
        )
    assert str(mp_error.value) == str(sim_error.value)
    assert len(started) == 3
    assert multiprocessing.active_children() == []
    assert _shm_segments() <= before


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_a_master_raise_between_floods_reaps_the_pool(monkeypatch):
    """The master's re-arm raises before batch 3: no run is open, and
    the build's ``with`` still reaps the kept workers."""
    original = DrlFloodProgram.next_batch
    calls = [0]

    def next_batch(self, sources):
        calls[0] += 1
        if calls[0] == 3:
            raise RuntimeError("master gives up before batch 3")
        original(self, sources)

    monkeypatch.setattr(DrlFloodProgram, "next_batch", next_batch)
    graph = citation_graph(80, avg_refs=2.5, seed=4)
    before = _shm_segments()
    with pytest.raises(RuntimeError, match="before batch 3"):
        build_index(graph, method="drl-b", num_nodes=6, engine="mp", workers=3)
    assert multiprocessing.active_children() == []
    assert _shm_segments() <= before


# ----------------------------------------------------------------------
# The master relays: no replica on it, no echo to a worker
# ----------------------------------------------------------------------
def _log_lines(path) -> list[list[int]]:
    if not path.exists():
        return []
    return [[int(field) for field in line.split()] for line in path.read_text().splitlines()]


def test_the_master_applies_no_barrier_delta(monkeypatch, tmp_path):
    """During an mp DRL_b build the deltas go from worker to worker: the
    master's program is fed none, the workers' are."""
    master, log = os.getpid(), tmp_path / "applied"
    master_calls = [0]
    original = DrlFloodProgram.mp_apply_published

    def mp_apply_published(self, delta):
        if os.getpid() == master:
            master_calls[0] += 1
        else:
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
        original(self, delta)

    monkeypatch.setattr(DrlFloodProgram, "mp_apply_published", mp_apply_published)
    graph = citation_graph(80, avg_refs=2.5, seed=4)
    sim = build_index(graph, method="drl-b", num_nodes=6)
    mp = build_index(graph, method="drl-b", num_nodes=6, engine="mp", workers=3)
    assert master_calls[0] == 0
    assert len({pid for pid, in _log_lines(log)}) == 3  # every worker got some
    assert mp.index == sim.index
    assert replace(mp.stats, wall_seconds=0.0) == replace(sim.stats, wall_seconds=0.0)


@pytest.mark.parametrize("method", ["drl-b", "drl-"])
def test_no_worker_receives_its_own_delta_or_finalize_reply(
    monkeypatch, tmp_path, method
):
    """Every delta and every finalize reply carries the process that
    produced it; each one a program unpickles is logged with the process
    that applies it.  A worker gets only the other workers' (before
    the next flood too), the master only the finalize replies."""
    master, log = os.getpid(), tmp_path / "received"
    publish, apply = DrlFloodProgram.mp_publish_delta, DrlFloodProgram.mp_apply_published
    collect, merge = DrlFloodProgram.mp_collect, DrlFloodProgram.mp_merge

    def received(kind: int, producer: int) -> None:
        with open(log, "a") as out:
            out.write(f"{kind} {producer} {os.getpid()}\n")

    def mp_publish_delta(self):
        delta = publish(self)
        return None if delta is None else (os.getpid(), delta)

    def mp_apply_published(self, tagged):
        received(0, tagged[0])
        apply(self, tagged[1])

    def mp_collect(self, vertices):
        return os.getpid(), collect(self, vertices)

    def mp_merge(self, tagged):
        received(1, tagged[0])
        merge(self, tagged[1])

    for name, patched in (
        ("mp_publish_delta", mp_publish_delta),
        ("mp_apply_published", mp_apply_published),
        ("mp_collect", mp_collect),
        ("mp_merge", mp_merge),
    ):
        monkeypatch.setattr(DrlFloodProgram, name, patched)
    graph = citation_graph(80, avg_refs=2.5, seed=4)
    sim = build_index(graph, method=method, num_nodes=6)
    mp = build_index(graph, method=method, num_nodes=6, engine="mp", workers=3)
    assert mp.index == sim.index
    lines = _log_lines(log)
    workers = {producer for _, producer, _ in lines}
    assert len(workers) == 3 and master not in workers
    assert all(producer != consumer for _, producer, consumer in lines)
    deltas = {consumer for kind, _, consumer in lines if kind == 0}
    # DRL⁻ publishes no inverted lists; DRL_b's go to every worker.
    assert len(deltas) == (3 if method == "drl-b" else 0) and master not in deltas
    merges = [consumer for kind, _, consumer in lines if kind == 1]
    floods = 2 if method == "drl-" else len(batch_sequence(degree_order(graph)))
    assert merges.count(master) == floods * 3  # each worker's, once per flood
    # Before every flood but the first, each worker merged the two others'.
    assert len(merges) - merges.count(master) == (floods - 1) * 3 * 2


# ----------------------------------------------------------------------
# The re-arm touches only the rows a batch wrote
# ----------------------------------------------------------------------
def full_sweep_next_batch(program: DrlFloodProgram, sources) -> None:
    """``DrlFloodProgram.next_batch`` as it was: every row visited."""
    in_sets, out_sets = program._in_label_sets, program._out_label_sets
    for w, (fwd, rev) in enumerate(zip(program.fwd_set, program.rev_set)):
        if fwd:
            in_sets[w] |= fwd
            fwd.clear()
        if rev:
            out_sets[w] |= rev
            rev.clear()
    for lists in (program._fwd_list, program._rev_list):
        for entries in lists:
            entries.clear()
    n = len(program._rank)
    program._fwd_pub = [0] * n
    program._rev_pub = [0] * n
    program._is_source = bytearray(n)
    for v in sources:
        program._is_source[v] = 3


@settings(max_examples=40, deadline=None)
@given(graph=family_graphs(), data=st.data())
def test_next_batch_leaves_the_program_as_the_full_sweep_does(graph, data):
    n = graph.num_vertices
    order = degree_order(graph)
    ranked = [order.vertex_at_rank(r) for r in range(n)]
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)), label="cuts"))
    batches = [ranked[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    cluster = Cluster(
        num_nodes=data.draw(st.integers(1, 4), label="nodes"),
        cost_model=CostModel(time_limit_seconds=None),
    )
    program = DrlFloodProgram(
        graph, order, sources=(),
        in_label_sets=[set() for _ in range(n)],
        out_label_sets=[set() for _ in range(n)],
    )
    for batch in [*batches, []]:  # the last re-arm folds the last batch in
        reference = copy.deepcopy(program)
        full_sweep_next_batch(reference, batch)
        program.next_batch(batch)
        assert vars(program) == vars(reference)
        if batch:
            cluster.run(graph, program)
