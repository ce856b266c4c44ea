"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.generators import paper_example_graph, paper_example_order
from repro.graph.traversal import reachable_set


@st.composite
def digraphs(draw, max_vertices: int = 24, max_edge_factor: int = 4) -> DiGraph:
    """Random simple digraphs, cycles included, possibly disconnected."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    cap = min(len(possible), max_edge_factor * n)
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=cap, unique=True)
        if possible
        else st.just([])
    )
    return DiGraph(n, edges)


@st.composite
def dags(draw, max_vertices: int = 20) -> DiGraph:
    """Random DAGs (edges go low id -> high id)."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=3 * n, unique=True)
        if possible
        else st.just([])
    )
    return DiGraph(n, edges)


@st.composite
def family_graphs(draw, max_vertices: int = 20) -> DiGraph:
    """Graphs drawn from the fuzz harness's families (DAG, cyclic,
    SCC-heavy, power-law, lattice) — structured inputs that stress the
    labeling algorithms harder than uniform random digraphs."""
    from repro.fuzz.cases import FAMILIES, family_graph

    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(min_value=4, max_value=max_vertices))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    return family_graph(family, n, seed)


@pytest.fixture
def paper_graph() -> DiGraph:
    """Fig. 1's graph (vertices 0..10 = the paper's v1..v11)."""
    return paper_example_graph()


@pytest.fixture
def paper_order():
    """The running example's order: v1 > v2 > ... > v11."""
    return paper_example_order()


def straggler_records() -> list[dict]:
    """A hand-written trace of a two-super-step run on four nodes in
    which node 2 takes 4× the others' seconds per unit: one
    ``pregel.node`` record per node per super-step, with the barrier
    waits the engine derives, under a ``pregel.run`` span inside a
    ``drl_b.build`` span."""
    t_op, t_byte, barrier = 2.5e-8, 1e-9, 3e-4
    records = []
    simulated = 0.0
    for superstep in (1, 2):
        units = [100 * superstep + 10 * node for node in range(4)]
        compute = [u * t_op * (4.0 if node == 2 else 1.0) for node, u in enumerate(units)]
        comm = [8 * u * t_byte for u in units]
        simulated += max(compute) + max(comm) + barrier
        for node in range(4):
            records.append({
                "kind": "event", "name": "pregel.node", "span": 2,
                "attrs": {
                    "superstep": superstep, "node": node, "units": units[node],
                    "compute_seconds": compute[node], "comm_seconds": comm[node],
                    "barrier_wait_seconds": (max(compute) - compute[node])
                    + (max(comm) - comm[node]),
                    "barrier_seconds": barrier, "recv_bytes": 8 * units[node],
                },
            })
    for span_id, parent, name in ((2, 1, "pregel.run"), (1, None, "drl_b.build")):
        records.append({
            "kind": "span", "name": name, "id": span_id, "parent": parent,
            "start": 0.0, "wall_seconds": 0.01, "simulated_seconds": simulated,
            "status": "ok", "attrs": {},
        })
    return records


# Expected label sets from Table II, keyed by 1-indexed paper vertex.
TABLE_II_IN = {
    1: {1}, 2: {2}, 3: {2}, 4: {2}, 5: {1}, 6: {2}, 7: {1},
    8: {1, 8}, 9: {1, 8, 9}, 10: {2, 10}, 11: {2, 11},
}
TABLE_II_OUT = {
    1: {1}, 2: {1, 2}, 3: {1, 2}, 4: {1, 2}, 5: {1}, 6: {1, 2},
    7: {1}, 8: {8}, 9: {9}, 10: {10}, 11: {11},
}
# Expected backward label sets from Table III.
TABLE_III_IN = {
    1: {1, 5, 7, 8, 9}, 2: {2, 3, 4, 6, 10, 11}, 3: set(), 4: set(),
    5: set(), 6: set(), 7: set(), 8: {8, 9}, 9: {9}, 10: {10}, 11: {11},
}
TABLE_III_OUT = {
    1: {1, 2, 3, 4, 5, 6, 7}, 2: {2, 3, 4, 6}, 3: set(), 4: set(),
    5: set(), 6: set(), 7: set(), 8: {8}, 9: {9}, 10: {10}, 11: {11},
}


def apply_and_check_touched(dynamic, op: str, u: int, v: int) -> tuple[set[int], set[int]]:
    """Apply ``dynamic.apply(op, u, v)`` for any of the five ops, and
    assert the ``touched`` contract: ``above`` is exactly the rows whose
    ``L_out`` changed and ``below`` those whose ``L_in`` changed (a row
    ``add_node`` appends counts as changed), each inside its cone of the
    graph before the write — everything reaching the write's source and
    reached from its sink: ``u`` and ``v`` for an edge write, the vertex
    for a node op or a promote, the new vertex for ``add_node``.  A
    write that does not apply changes no row.  Returns the two cones,
    computed by plain searches.  A drift promote riding along an edge
    write owns ``touched``, so ``dynamic`` must have no drift threshold."""
    graph = dynamic.current_graph()
    n = graph.num_vertices
    if op == "add_node":
        cones = {n}, {n}
    else:
        sink = v if op in ("insert", "delete") else u
        cones = reachable_set(graph.reverse(), u), reachable_set(graph, sink)
    before_in = [set(row) for row in dynamic.in_labels]
    before_out = [set(row) for row in dynamic.out_labels]
    applied = dynamic.apply(op, u, v)
    changed_in, changed_out = (
        {w for w, row in enumerate(live) if w >= n or row != before[w]}
        for live, before in ((dynamic.in_labels, before_in), (dynamic.out_labels, before_out))
    )
    if not applied:
        assert changed_in == changed_out == set()
        return cones
    above, below = dynamic.touched
    assert (above, below) == (changed_out, changed_in)
    assert above <= cones[0] and below <= cones[1]
    return cones
