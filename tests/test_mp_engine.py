"""Unit tests of the multiprocessing engine and the shared partition
assignment helper.

The engine-equivalence matrix lives in ``test_engine_equivalence.py``;
this module covers the plumbing around it: the single
:func:`~repro.graph.partition.node_assignment` helper every executor
shares (pinned by a golden so a silent change to the hash mix cannot
slip through), engine selection and its rejection paths, worker
timelines, the CLI flags, builds that end at the super-step limit or
the simulated cut-off, and a worker killed mid-superstep.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.build import build_index
from repro.core.drl import DrlFloodProgram, drl_index
from repro.core.multicore import (
    _WORKING_BYTES_PER_VERTEX,
    per_core_working_bytes,
)
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.graph.generators import citation_graph
from repro.graph.io import write_edge_list
from repro.graph.order import degree_order
from repro.graph.partition import (
    PARTITIONER_STRATEGIES,
    HashPartitioner,
    node_assignment,
)
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
def test_mp_rejects_fault_injection():
    with pytest.raises(ReproError, match="does not support fault"):
        Cluster(num_nodes=4, engine="mp", faults=FaultPlan.parse("crash=1@2"))


def test_mp_rejects_checkpointing():
    with pytest.raises(ReproError, match="does not support fault"):
        Cluster(num_nodes=4, engine="mp", checkpoint_interval=2)


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
    committed stats with the wall clock zeroed)``."""
    cluster = Cluster(num_nodes=3, cost_model=cost_model, engine=engine, workers=2)
    stats = RunStats(num_nodes=3, per_node_units=[0] * 3)
    error = None
    try:
        cluster.run(
            graph, DrlFloodProgram(graph, degree_order(graph)),
            stats=stats, trace=True, **run_kwargs,
        )
    except ReproError as exc:
        error = exc
    return error, replace(stats, wall_seconds=0.0)


def test_single_worker_matches_simulator():
    graph = citation_graph(24, avg_refs=2.0, seed=4)
    sim = drl_index(graph, num_nodes=3)
    mp = drl_index(graph, num_nodes=3, engine="mp", workers=1)
    assert mp.index == sim.index
    assert mp.stats.simulated_seconds == sim.stats.simulated_seconds
    # Trace rows and the finalize pass (one super-step beyond the last
    # traced one), not just totals.
    _, sim_stats = _flood("sim", graph)
    _, mp_stats = _flood(MultiprocessEngine(workers=1), graph)
    assert mp_stats == sim_stats
    assert sim_stats.supersteps == len(sim_stats.trace) + 1
    assert sum(sim_stats.per_node_units) == sim_stats.compute_units
    assert sim_stats.compute_units > sum(
        row.compute_units for row in sim_stats.trace
    )


def test_mp_timeline_holds_measured_worker_slices():
    """Under mp, the timeline is per *worker process* with measured
    wall-clock, not the simulator's modelled per-node split."""
    graph = citation_graph(24, avg_refs=2.0, seed=4)
    result = drl_index(
        graph, num_nodes=4, engine="mp", workers=2, node_timeline=True
    )
    timeline = result.stats.node_timeline
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
    sim_error, sim_stats = _flood("sim", graph, max_supersteps=3)
    mp_error, mp_stats = _flood("mp", graph, max_supersteps=3)
    assert type(sim_error) is type(mp_error) is SuperstepLimitExceeded
    assert str(mp_error) == str(sim_error)
    assert mp_stats == sim_stats
    assert mp_stats.supersteps == len(mp_stats.trace) == 3
    assert multiprocessing.active_children() == []
    assert _shm_segments() <= before


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_time_limit_ends_mp_like_the_simulator():
    graph = citation_graph(80, avg_refs=2.5, seed=4)
    _, full = _flood("sim", graph)
    cost = CostModel().with_time_limit(full.simulated_seconds / 2)
    before = _shm_segments()
    sim_error, sim_stats = _flood("sim", graph, cost_model=cost)
    mp_error, mp_stats = _flood("mp", graph, cost_model=cost)
    assert type(sim_error) is type(mp_error) is TimeLimitExceeded
    assert str(mp_error) == str(sim_error)
    assert mp_stats == sim_stats
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
    assert main(base + ["--engine", "mp", "--faults", "crash=1@2"]) == 2
    assert main(base + ["--engine", "mp", "--checkpoint-interval", "2"]) == 2
    assert main(base + ["--engine", "mp", "--workers", "0"]) == 2
    assert main(base + ["--workers", "2"]) == 2
    err = capsys.readouterr().err
    assert "only applies to --engine mp" in err


# ----------------------------------------------------------------------
# A worker that dies mid-superstep
# ----------------------------------------------------------------------
def _shm_segments() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


@pytest.fixture
def one_worker_dies(tmp_path, monkeypatch):
    """Patch DRL's ``compute`` so exactly one forked worker ``SIGKILL``s
    itself in super-step 2 (the first to create the marker file)."""
    master = os.getpid()
    marker = tmp_path / "killed"
    original = DrlFloodProgram.compute

    def compute(self, ctx, w, messages):
        if ctx.superstep == 2 and os.getpid() != master:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        original(self, ctx, w, messages)

    monkeypatch.setattr(DrlFloodProgram, "compute", compute)
    return marker


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
