"""Differential engine-equivalence harness: simulator vs multiprocessing.

The multiprocessing engine's whole contract is "byte-identical labels,
identical charged accounting" — this module proves it three ways:

1. A fixed matrix of every fuzz graph family × every cluster method,
   comparing the *serialized index files* byte for byte plus the
   charged run statistics — and DRL_b with one source per batch, so the
   workers are re-armed once per vertex, with and without a shuffled
   barrier arrival order.  A mismatch is reported as a minimal
   replayable fuzz case: the failing configuration is pinned into a
   :class:`~repro.fuzz.cases.FuzzCase`, shrunk against the
   ``engine-mismatch`` fingerprint, written as a JSON repro, and the
   test fails with the repro path and the one-command replay line.
2. A hypothesis property: the mp index is invariant to the worker
   count (1, 2, 4) and to the barrier arrival order (a seeded shuffle
   of which worker the master drains first).
3. The same matrix through the fuzz harness's own ``engine-mismatch``
   oracle, so the nightly campaign and this tier-1 test can never
   drift apart on what "equivalent" means.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.drl import drl_index
from repro.core.drl_basic import drl_basic_index
from repro.core.drl_batch import drl_batch_index
from repro.fuzz.cases import FAMILIES, FuzzCase, family_graph
from repro.fuzz.oracles import oracle_engine_mismatch, run_case
from repro.fuzz.shrink import shrink_case
from repro.pregel.mp import MultiprocessEngine

from tests.conftest import family_graphs

#: The cluster methods both engines must agree on (the serial TOL
#: baseline never touches an engine).
METHODS = {
    "drl": drl_index,
    "drl-": drl_basic_index,
    "drl-b": drl_batch_index,
}

#: One deterministic mid-size graph per family for the fixed matrix.
MATRIX_SEED = 1302
MATRIX_VERTICES = 18
MATRIX_NODES = 4
MATRIX_WORKERS = 2


def _fail_with_repro(tmp_path, family: str, method: str, detail: str):
    """Reduce the failing configuration to a minimal replayable repro.

    Pins the graph into a concrete mp-stamped :class:`FuzzCase`, shrinks
    it while the ``engine-mismatch`` fingerprint reproduces, writes the
    reduced case as JSON, and fails with the replay command.
    """
    case = FuzzCase(
        case_id=0,
        family=family,
        seed=MATRIX_SEED,
        num_vertices=MATRIX_VERTICES,
        num_nodes=MATRIX_NODES,
        engine="mp",
    ).concretize()
    oracles = {"engine-mismatch": oracle_engine_mismatch}
    result = run_case(case, oracles=oracles)
    final, message = case, detail
    if not result.ok:
        reduction = shrink_case(
            case, fingerprint="engine-mismatch", oracles=oracles
        )
        final, message = reduction.case, reduction.failure.message
    path = tmp_path / f"engine-mismatch-{family}-{method}.json"
    final.save(path)
    pytest.fail(
        f"engines diverge on {family}/{method}: {message}\n"
        f"minimal repro ({final.num_vertices} vertices): {path}\n"
        f"replay with: repro fuzz --replay {path}"
    )


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("method", sorted(METHODS))
def test_engine_matrix_byte_identical(tmp_path, family, method):
    """Every family × method: sim and mp serialize to identical bytes."""
    graph = family_graph(family, MATRIX_VERTICES, MATRIX_SEED)
    build = METHODS[method]
    sim = build(graph, num_nodes=MATRIX_NODES)
    mp = build(
        graph, num_nodes=MATRIX_NODES, engine="mp", workers=MATRIX_WORKERS
    )

    sim_path = tmp_path / "sim.idx"
    mp_path = tmp_path / "mp.idx"
    sim.index.save(sim_path)
    mp.index.save(mp_path)
    if sim_path.read_bytes() != mp_path.read_bytes():
        _fail_with_repro(
            tmp_path, family, method,
            f"serialized indexes differ "
            f"({sim.index.num_entries} vs {mp.index.num_entries} entries)",
        )

    # The mp engine charges through the same accounting functions, so
    # the *simulated* statistics must match exactly too — any drift
    # here means a worker counted work the simulator would not.
    for attr in (
        "supersteps",
        "compute_units",
        "local_messages",
        "remote_messages",
        "remote_bytes",
        "broadcast_bytes",
        "simulated_seconds",
    ):
        got, want = getattr(mp.stats, attr), getattr(sim.stats, attr)
        if got != want:
            _fail_with_repro(
                tmp_path, family, method,
                f"stats.{attr} diverges: mp={got!r} sim={want!r}",
            )


@pytest.mark.parametrize("arrival_seed", [None, 7])
@pytest.mark.parametrize("family", FAMILIES)
def test_engine_matrix_singleton_batches(tmp_path, family, arrival_seed):
    """DRL_b with one source per batch re-arms the kept workers once per
    vertex; with the barrier arrival order shuffled or not, the index
    bytes and every charged ``RunStats`` field stay the simulator's."""
    graph = family_graph(family, MATRIX_VERTICES, MATRIX_SEED)
    singletons = {"initial_batch_size": 1, "growth_factor": 1.0}
    sim = drl_batch_index(graph, num_nodes=MATRIX_NODES, **singletons)
    engine = MultiprocessEngine(workers=MATRIX_WORKERS, arrival_seed=arrival_seed)
    mp = drl_batch_index(graph, num_nodes=MATRIX_NODES, engine=engine, **singletons)
    sim_path, mp_path = tmp_path / "sim.idx", tmp_path / "mp.idx"
    sim.index.save(sim_path)
    mp.index.save(mp_path)
    assert mp_path.read_bytes() == sim_path.read_bytes()
    assert replace(mp.stats, wall_seconds=0.0) == replace(sim.stats, wall_seconds=0.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_engine_mismatch_oracle_clean_on_matrix(family):
    """The fuzz oracle agrees with the direct matrix comparison."""
    case = FuzzCase(
        case_id=0,
        family=family,
        seed=MATRIX_SEED,
        num_vertices=MATRIX_VERTICES,
        num_nodes=MATRIX_NODES,
        engine="mp",
    )
    result = run_case(
        case, oracles={"engine-mismatch": oracle_engine_mismatch}
    )
    assert result.oracles_run == ("engine-mismatch",)
    assert result.ok, [f.message for f in result.failures]


@settings(max_examples=25, deadline=None)
@given(
    graph=family_graphs(max_vertices=12),
    workers=st.sampled_from([1, 2, 4]),
    arrival_seed=st.integers(min_value=0, max_value=2**16),
)
def test_mp_invariant_to_workers_and_arrival_order(
    graph, workers, arrival_seed
):
    """Property: the mp index never depends on the worker count or on
    the order worker replies arrive at the barrier (seeded shuffle)."""
    sim = drl_index(graph, num_nodes=3)
    engine = MultiprocessEngine(workers=workers, arrival_seed=arrival_seed)
    mp = drl_index(graph, num_nodes=3, engine=engine)
    assert mp.index == sim.index
    assert mp.stats.simulated_seconds == sim.stats.simulated_seconds
    assert mp.stats.compute_units == sim.stats.compute_units
