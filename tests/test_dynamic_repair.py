"""Tests for the repair paths: grow and kill, cut and regain, band drop.

``insert_edge`` has exactly one repair path.  Hubs of the two endpoints
grow exact entries from the new edge on; the entries those gains kill
are read off the backward label sets, with no rank test and no cone.
``delete_edge`` / ``delete_node`` have one too: it removes the entries
whose pairs no longer reach, found from the hubs the cut edges carried,
then lets the rows that lost re-decide what they gain, in rank order;
``promote`` grows the moved vertex and drops the overtaken band's
entries, read off its own rows and the backward label sets.  These
tests pin the claims that make that safe: each is *exact* (``check()``
stays green after every op, on every graph family, and an insert, a
delete or a promote equals the whole-cone version it replaced row for
row), *local* (no label outside
``touched`` is written, and for every op ``touched`` holds exactly the
rows that changed; for an insert or delete that leaves the transitive
closure alone, none at all), *atomic* (a write that raises part-way is
rolled back and heard by no one), and never builds TOL from scratch.
"""

import itertools
import random
from collections import Counter
from contextlib import suppress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.tol
from repro.core.dynamic import UPDATE_OPS, DynamicReachabilityIndex, _invert
from repro.errors import IndexAuditError, ReproError, WriteAbortedError
from repro.fuzz.cases import FAMILIES, family_graph
from repro.graph.digraph import DiGraph
from repro.graph.generators import scc_heavy_graph, web_graph
from repro.graph.order import VertexOrder, degree_order
from repro.graph.traversal import reachable_set
from repro.workloads.updates import mixed_update_stream
from tests.conftest import apply_and_check_touched, family_graphs


def _plain_bfs(source: int, adjacency) -> set[int]:
    visited = {source}
    queue = [source]
    for w in queue:
        for x in adjacency[w]:
            if x not in visited:
                visited.add(x)
                queue.append(x)
    return visited


def _shrink(labels, journal, rows, dead: set[int]) -> None:
    """Remove ``dead`` from each of ``rows`` that holds any of it,
    saving each such row in ``journal`` first."""
    for w in rows:
        stale = labels[w] & dead
        if stale:
            journal.add(w)
            labels[w] -= stale


class ConeRepairIndex(DynamicReachabilityIndex):
    """The delete repair before the cut-and-regain one: strip every
    entry between the two cones of the removed edges and let every cone
    hub re-run its pruned BFS in rank order.  Kept as the reference the
    live repair must equal row for row."""

    def delete_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._out_adj[u]:
            return False
        with self._write("delete", u, v) as journal:
            self._unlink(journal, u, v)
            if not self._still_reaches(u, v):
                # No walk into u or out of v needs the edge: the cones read
                # as before the unlink.
                above = _plain_bfs(u, self._in_adj)
                below = _plain_bfs(v, self._out_adj)
                self._repair_cones(above, below, journal)
        self._check_drift(u, v)
        return True

    def delete_node(self, v: int) -> bool:
        self._check_vertex(v)
        with self._write("delete_node", v, v) as journal:
            above = _plain_bfs(v, self._in_adj)
            below = _plain_bfs(v, self._out_adj)
            for x in list(self._out_adj[v]):
                self._unlink(journal, v, x)
            for x in list(self._in_adj[v]):
                self._unlink(journal, x, v)
            journal.killed = v
            self._alive[v] = False
            self._repair_cones(above, below, journal)
        return True

    def _repair_cones(self, above: set[int], below: set[int], journal) -> None:
        """Only entries ``a ∈ L_in(d)`` / ``d ∈ L_out(a)`` with
        ``a ∈ above``, ``d ∈ below`` can change: strip them, then let
        each cone hub re-decide its own in rank order, so every
        higher-ranked witness a domination test consults is final."""
        in_labels, out_labels, rank = self.in_labels, self.out_labels, self._rank
        out_adj, in_adj, pruned_bfs = self._out_adj, self._in_adj, repro.core.tol.pruned_bfs
        _shrink(in_labels, journal.in_rows, below, above)
        _shrink(out_labels, journal.out_rows, above, below)
        for hub in sorted(above | below, key=rank.__getitem__):
            hub_rank = rank[hub]
            if hub in above:
                witnesses = {h for h in out_labels[hub] if rank[h] < hub_rank}
                pruned_bfs(hub, out_adj, rank, in_labels, witnesses, below, journal.in_rows)
            if hub in below:
                witnesses = {h for h in in_labels[hub] if rank[h] < hub_rank}
                pruned_bfs(hub, in_adj, rank, out_labels, witnesses, above, journal.out_rows)


class FloodInsertIndex(DynamicReachabilityIndex):
    """The insert before the grow-and-kill one: flood both cones for the
    best rank on the walks into ``u`` and out of ``v``, grow the hubs
    that stay hubs, and scan every flooded row for entries a new walk
    outranks.  Kept as the reference the live insert must equal row for
    row."""

    def insert_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError("self-loops do not affect reachability")
        if v in self._out_adj[u]:
            return False
        with self._write("insert", u, v) as journal:
            self._link(journal, u, v)
            if self.out_labels[u].isdisjoint(self.in_labels[v]):
                # Best rank on any walk a ⇝ u / v ⇝ w; the key sets are the cones.
                top_above = self._rank_flood(self.in_labels[u], self._in_adj)
                top_below = self._rank_flood(self.out_labels[v], self._out_adj)
                rank = self._rank
                hubs_above = [a for a in self.in_labels[u] if top_above[a] == rank[a]]
                hubs_below = [b for b in self.out_labels[v] if top_below[b] == rank[b]]
                self._flood_grow(hubs_above, v, True, top_below, journal.in_rows)
                self._flood_grow(hubs_below, u, False, top_above, journal.out_rows)
                self._flood_shrink(self.in_labels, journal.in_rows, top_below, top_above, hubs_above)
                self._flood_shrink(self.out_labels, journal.out_rows, top_above, top_below, hubs_below)
        self._check_drift(u, v)
        return True

    def _rank_flood(self, hubs, adjacency) -> dict[int, int]:
        """Flood from ``hubs`` in rank order, first assignment wins:
        ``top[w]`` is the best rank among the hubs that reach ``w``, the
        dict lists its rows best rank first."""
        top: dict[int, int] = {}
        for hub in sorted(hubs, key=self._rank.__getitem__):
            if hub in top:
                continue
            best = top[hub] = self._rank[hub]
            queue = [hub]
            for w in queue:
                for x in adjacency[w]:
                    if x not in top:
                        top[x] = best
                        queue.append(x)
        return top

    def _flood_grow(self, hubs, root: int, forward: bool, top: dict, journal) -> None:
        """Each hub's pruned BFS on from ``root``: stop at a row a new
        walk outranks the hub in, one that holds it, or one holding a
        higher-ranked witness of it."""
        rank = self._rank
        adjacency = self._out_adj if forward else self._in_adj
        labels = self.in_labels if forward else self.out_labels
        reverse_labels = self.out_labels if forward else self.in_labels
        for hub in hubs:
            hub_rank = rank[hub]
            witnesses = {h for h in reverse_labels[hub] if rank[h] < hub_rank}
            queue = [root]
            for w in queue:
                row = labels[w]
                if top[w] < hub_rank or hub in row or not witnesses.isdisjoint(row):
                    continue
                journal.add(w)
                row.add(hub)
                queue.extend(adjacency[w])

    def _flood_shrink(self, labels, journal, top: dict, cone: dict, keep) -> None:
        """``h ∈ cone`` leaves row ``w`` unless ``h`` is in ``keep`` and
        ``rank[h] <= top[w]``; rows come best rank first, so the dead set
        only shrinks."""
        rank = self._rank
        keep = sorted(keep, key=rank.__getitem__, reverse=True)
        dead = set(cone)
        for w, best in top.items():
            while keep and rank[keep[-1]] <= best:
                dead.discard(keep.pop())
            stale = labels[w] & dead
            if stale:
                journal.add(w)
                labels[w] -= stale


class ConePromoteIndex(DynamicReachabilityIndex):
    """The promote before the band-only one: rebuild the order from the
    moved list, walk both cones of ``v``, grow ``v`` as the live promote
    does, and subtract the band hubs that reach ``v`` from every row
    ``v`` reaches, and the mirror.  Kept as the reference the live
    promote must equal row for row."""

    def promote(self, v: int, new_rank: int | None = None) -> int | None:
        self._check_vertex(v)
        if new_rank is None or new_rank < 0:
            new_rank = self._ideal_rank(v)
        old_rank = self._rank[v]
        if new_rank >= old_rank:
            return None
        by_rank = list(self._order.by_rank())
        del by_rank[old_rank]
        by_rank.insert(new_rank, v)
        band = set(by_rank[new_rank + 1 : old_rank + 1])
        with self._write("promote", v, new_rank) as journal:
            self._order = VertexOrder(by_rank)
            rank = self._rank = self._order.ranks
            forward_cone = _plain_bfs(v, self._out_adj)
            backward_cone = _plain_bfs(v, self._in_adj)
            for adjacency, labels, reverse_labels, rows in (
                (self._out_adj, self.in_labels, self.out_labels, journal.in_rows),
                (self._in_adj, self.out_labels, self.in_labels, journal.out_rows),
            ):
                witnesses = {h for h in reverse_labels[v] if rank[h] < new_rank}
                repro.core.tol.pruned_bfs(
                    v, adjacency, rank, labels, witnesses, range(self._n), rows
                )
            for labels, rows, cone, reaching in (
                (self.in_labels, journal.in_rows, forward_cone, backward_cone),
                (self.out_labels, journal.out_rows, backward_cone, forward_cone),
            ):
                _shrink(labels, rows, cone, band & reaching)
        return new_rank


def _assert_backward_sets_invert_the_rows(dynamic: DynamicReachabilityIndex) -> None:
    assert dynamic.backward_in == _invert(dynamic.in_labels)
    assert dynamic.backward_out == _invert(dynamic.out_labels)


# ----------------------------------------------------------------------
# check(): the self-audit the other tests lean on
# ----------------------------------------------------------------------
def test_check_passes_on_an_exact_index_and_names_the_first_difference():
    dynamic = DynamicReachabilityIndex(
        DiGraph(4, [(0, 1), (1, 2), (2, 3)]), VertexOrder([0, 1, 2, 3])
    )
    dynamic.check()
    dynamic.out_labels[2].add(3)  # an entry TOL would never keep
    with pytest.raises(IndexAuditError) as caught:
        dynamic.check()
    error = caught.value
    assert isinstance(error, ReproError)
    assert (error.vertex, error.direction) == (2, "out")
    assert 3 in error.live and 3 not in error.expected
    assert "L_out(2)" in str(error)
    dynamic.out_labels[2].discard(3)
    dynamic.in_labels[1].clear()  # a lost entry, earlier vertex wins
    with pytest.raises(IndexAuditError, match=r"L_in\(1\)"):
        dynamic.check()


def test_check_names_a_hub_whose_backward_set_is_off():
    dynamic = DynamicReachabilityIndex(
        DiGraph(4, [(0, 1), (1, 2), (2, 3)]), VertexOrder([0, 1, 2, 3])
    )
    dynamic.backward_in[0].discard(3)  # the rows say 0 ∈ L_in(3)
    with pytest.raises(IndexAuditError, match=r"L⁻_in\(0\)") as caught:
        dynamic.check()
    error = caught.value
    assert (error.vertex, error.direction, error.backward) == (0, "in", True)
    assert 3 in error.expected and 3 not in error.live
    dynamic.backward_in[0].add(3)
    dynamic.check()
    dynamic.backward_out[2].add(0)  # 2 ∉ L_out(0): 0 outranks it
    with pytest.raises(IndexAuditError, match=r"L⁻_out\(2\)"):
        dynamic.check()


# ----------------------------------------------------------------------
# Exactness: every family, every op kind, at notify time too
# ----------------------------------------------------------------------
_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["delete", "delete", "delete", "delete_node", "insert", "promote"]
        ),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    ),
    max_size=20,
)


@settings(max_examples=120, deadline=None)
@given(family_graphs(max_vertices=16), _OPS)
def test_property_interleaved_streams_keep_check_green(g, operations):
    dynamic = DynamicReachabilityIndex(g)
    notified = []

    def listener(op, u, v):
        dynamic.check()  # exact already when listeners run
        notified.append(op)

    dynamic.subscribe(listener)
    for op, a, b in operations:
        alive = dynamic.alive_vertices()
        if len(alive) < 2:
            break
        u, v = alive[a % len(alive)], alive[b % len(alive)]
        if op == "delete":
            edges = list(dynamic.edges())
            if edges:
                apply_and_check_touched(dynamic, op, *edges[a % len(edges)])
        elif op == "delete_node":
            apply_and_check_touched(dynamic, op, u, u)
        elif op == "insert" and u != v:
            apply_and_check_touched(dynamic, op, u, v)
        elif op == "promote":
            apply_and_check_touched(dynamic, op, u, b % dynamic.num_vertices)
        dynamic.check()
    assert set(notified) <= {"delete", "delete_node", "insert", "promote"}


_DELETE_HEAVY = st.lists(
    st.tuples(
        st.sampled_from(["delete", "delete", "delete", "delete_node", "insert"]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    ),
    max_size=24,
)


_SELF_LOOPS = st.lists(st.integers(0, 10**6), max_size=3)


@settings(max_examples=150, deadline=None)
@given(family_graphs(max_vertices=18), _SELF_LOOPS, _DELETE_HEAVY, st.sampled_from([None, 2]))
def test_property_deletes_equal_the_two_cone_repair(g, loops, operations, drift):
    """Every family, cyclic ones included, some with self-loops, with and
    without automatic promotion: after each delete the labels equal the
    two-cone reference's row for row, and ``touched`` is the rows that
    changed, inside the cones of the graph before the delete."""
    n = g.num_vertices
    g = DiGraph(n, list(g.edges()) + [(x % n, x % n) for x in loops])
    dynamic = DynamicReachabilityIndex(g, drift_threshold=drift)
    reference = ConeRepairIndex(g, drift_threshold=drift)
    for op, a, b in operations:
        alive = dynamic.alive_vertices()
        if len(alive) < 2:
            break
        edges = list(dynamic.edges())
        if op == "insert":
            u, v = alive[a % len(alive)], alive[b % len(alive)]
            if u != v:
                dynamic.insert_edge(u, v)
                reference.insert_edge(u, v)
        elif op == "delete" and edges or op == "delete_node":
            u, v = edges[a % len(edges)] if op == "delete" else (alive[a % len(alive)],) * 2
            if drift is None:
                apply_and_check_touched(dynamic, op, u, v)
            else:  # a promote may ride along and own `touched`
                dynamic.apply(op, u, v)
            reference.apply(op, u, v)
            assert list(reference.order.by_rank()) == list(dynamic.order.by_rank())
        assert dynamic.in_labels == reference.in_labels
        assert dynamic.out_labels == reference.out_labels
    dynamic.check()


_INSERT_HEAVY = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "insert", "insert", "insert", "delete", "delete_node", "add_node", "promote"]
        ),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    ),
    max_size=24,
)


@settings(max_examples=150, deadline=None)
@given(family_graphs(max_vertices=18), _SELF_LOOPS, _INSERT_HEAVY, st.sampled_from([None, 2]))
def test_property_inserts_equal_the_flood_insert(g, loops, operations, drift):
    """Every family, cyclic ones included, some with self-loops, with and
    without automatic promotion, inserts among every other op: after each
    op the labels equal the flooding reference's row for row, ``touched``
    is the rows that changed, and the backward label sets are the
    inversion of the rows."""
    n = g.num_vertices
    g = DiGraph(n, list(g.edges()) + [(x % n, x % n) for x in loops])
    dynamic = DynamicReachabilityIndex(g, drift_threshold=drift)
    reference = FloodInsertIndex(g, drift_threshold=drift)
    for op, a, b in operations:
        alive = dynamic.alive_vertices()
        if len(alive) < 2:
            break
        edges = list(dynamic.edges())
        u, v = alive[a % len(alive)], alive[b % len(alive)]
        if op == "insert" and u == v or op == "delete" and not edges:
            continue
        if op == "delete":
            u, v = edges[a % len(edges)]
        elif op == "delete_node":
            v = u
        elif op == "promote":
            v = b % dynamic.num_vertices
        if drift is None:
            apply_and_check_touched(dynamic, op, u, v)
        else:  # a promote may ride along and own `touched`
            dynamic.apply(op, u, v)
        reference.apply(op, u, v)
        assert list(reference.order.by_rank()) == list(dynamic.order.by_rank())
        assert dynamic.in_labels == reference.in_labels
        assert dynamic.out_labels == reference.out_labels
        assert dynamic.touched == reference.touched
        _assert_backward_sets_invert_the_rows(dynamic)
    dynamic.check()


def test_an_entry_dies_in_a_row_that_gains_nothing():
    """Ranks v < h < u < w < x, edges h→x→w, v→w, h→u; insert u→v.  The
    new walk h→u→v→w passes v, so h leaves L_in(w) though w gains no
    entry: h gained v in L_out, and w held both h and v."""
    v, h, u, w, x = range(5)
    g = DiGraph(5, [(h, x), (x, w), (v, w), (h, u)])
    dynamic = DynamicReachabilityIndex(g, VertexOrder([v, h, u, w, x]))
    assert dynamic.in_labels[w] == {v, h, w}
    apply_and_check_touched(dynamic, "insert", u, v)
    assert dynamic.in_labels[w] == {v, w}
    assert v in dynamic.out_labels[h]
    assert w in dynamic.touched[1]
    _assert_backward_sets_invert_the_rows(dynamic)
    dynamic.check()


def test_a_cycle_closing_insert_whose_two_ends_gain_the_killer():
    """Edges v→c→u, h→u, v→w, h→w; insert u→v closes the cycle through
    c, the best vertex.  h held L_in(w) and reached c on no old walk, c
    reached w on none: h gains c in L_out and w gains c in L_in, so
    neither side held it before, and h must still leave L_in(w)."""
    c, h, u, v, w = range(5)
    g = DiGraph(5, [(v, c), (c, u), (h, u), (v, w), (h, w)])
    dynamic = DynamicReachabilityIndex(g, VertexOrder([c, h, u, v, w]))
    reference = FloodInsertIndex(g, VertexOrder([c, h, u, v, w]))
    assert h in dynamic.in_labels[w]
    assert c not in dynamic.out_labels[h] and c not in dynamic.in_labels[w]
    grows, grow = [], dynamic._grow
    dynamic._grow = lambda hubs, *rest: grows.append(sorted(hubs)) or grow(hubs, *rest)
    apply_and_check_touched(dynamic, "insert", u, v)
    reference.insert_edge(u, v)
    # h and u are hubs of u too, but ranked below c: they grow nothing
    # (a grow of theirs would only add entries the kills take back).
    assert grows == [[c], [c]]
    assert c in dynamic.out_labels[h] and c in dynamic.in_labels[w]
    assert h not in dynamic.in_labels[w]
    assert dynamic.in_labels == reference.in_labels
    assert dynamic.out_labels == reference.out_labels
    _assert_backward_sets_invert_the_rows(dynamic)
    dynamic.check()


@pytest.mark.parametrize("op", ["delete", "delete_node"])
def test_delete_at_a_self_looped_vertex_equals_the_two_cone_repair(op):
    """1 carries a self-loop and L_in(1) = {0, 1}: deleting 1 (or the
    edge into it) cuts hub 0 from a row the loop would walk back into."""
    g = DiGraph(3, [(0, 1), (1, 1), (1, 2), (2, 2)])
    order = VertexOrder([0, 1, 2])
    dynamic = DynamicReachabilityIndex(g, order)
    reference = ConeRepairIndex(g, order)
    u, v = (0, 1) if op == "delete" else (1, 1)
    apply_and_check_touched(dynamic, op, u, v)
    reference.apply(op, u, v)
    assert dynamic.in_labels == reference.in_labels
    assert dynamic.out_labels == reference.out_labels
    dynamic.check()
    assert dynamic.delete_edge(2, 2) and dynamic.touched == (set(), set())
    dynamic.check()


def test_delete_inside_a_strongly_connected_component():
    """``A ∩ D ≠ ∅``: the broken cycle's rows lose hubs on both sides,
    and a row that stops sharing a component with its best hub may gain
    itself."""
    dynamic = DynamicReachabilityIndex(scc_heavy_graph(40, seed=5))
    on_cycle = [(u, v) for u, v in dynamic.edges() if dynamic.query(v, u)]
    assert on_cycle
    repaired = 0
    for u, v in on_cycle[:12]:
        apply_and_check_touched(dynamic, "delete", u, v)
        repaired += dynamic.touched != (set(), set())
        dynamic.check()
    assert repaired


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1), (1, 2), (2, 0), (1, 3), (2, 3), (3, 4), (4, 3), (0, 4)],
        [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (0, 3), (3, 4), (2, 4)],
    ],
    ids=["two-components", "nested-cycles"],
)
def test_deletes_are_exact_under_every_renaming(edges):
    """A delete's searches stop early: the closure test at the first
    vertex outside ``u``'s component, the cut's where its search on from
    the hub meets its search back from the start.  Where each stops
    follows the order the adjacency sets list vertex ids in, so every
    edge and node delete of a small cyclic graph runs under every
    renaming of it (the order renamed with it): each stays exact and
    changes the same rows, renamed."""
    n = 5
    base = DiGraph(n, edges)
    base_order = list(degree_order(base).by_rank())
    writes = [("delete", a, b) for a, b in edges] + [("delete_node", v, v) for v in range(n)]
    expected = {}
    for names in itertools.permutations(range(n)):
        graph = DiGraph(n, [(names[a], names[b]) for a, b in edges])
        order = VertexOrder([names[x] for x in base_order])
        for op, a, b in writes:
            dynamic = DynamicReachabilityIndex(graph, order)
            apply_and_check_touched(dynamic, op, names[a], names[b])
            dynamic.check()
            back = {name: x for x, name in enumerate(names)}
            above, below = dynamic.touched
            rows = ({back[w] for w in above}, {back[w] for w in below})
            assert expected.setdefault((op, a, b), rows) == rows, (names, op, a, b)


# ----------------------------------------------------------------------
# No rebuild: tol_index is a construction-time dependency only
# ----------------------------------------------------------------------
def test_no_tol_index_call_on_any_mutation_path(monkeypatch):
    dynamic = DynamicReachabilityIndex(web_graph(300, seed=4), drift_threshold=40)
    calls = []
    # Every from-scratch build runs the TOL rounds: tol_index packs
    # their sets, check() compares against them as they are.
    real = repro.core.tol.tol_label_sets

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.core.tol, "tol_label_sets", counting)
    rng = random.Random(9)
    applied = {"delete": 0, "delete_node": 0, "insert": 0, "add_node": 0}
    for _ in range(200):
        alive = dynamic.alive_vertices()
        roll = rng.random()
        if roll < 0.6:
            edges = list(dynamic.edges())
            applied["delete"] += dynamic.delete_edge(*rng.choice(edges))
        elif roll < 0.7:
            applied["delete_node"] += dynamic.delete_node(rng.choice(alive))
        elif roll < 0.95:
            u, v = rng.sample(alive, 2)
            applied["insert"] += dynamic.insert_edge(u, v)
        else:
            dynamic.add_node()
            applied["add_node"] += 1
    assert applied["delete"] > 80 and applied["delete_node"] > 5
    assert calls == []
    # The insert-heavy half: the graph grows back, promotes included.
    promoted = []
    dynamic.subscribe(lambda op, u, v: promoted.append(op) if op == "promote" else None)
    inserts = applied["insert"]
    for _ in range(200):
        alive = dynamic.alive_vertices()
        if rng.random() < 0.9:
            u, v = rng.sample(alive, 2)
            applied["insert"] += dynamic.insert_edge(u, v)
        else:
            dynamic.promote(rng.choice(alive))
    assert applied["insert"] - inserts > 150 and promoted
    assert calls == []
    dynamic.check()  # the audit is the one caller, and only on request
    assert len(calls) == 1
    repro.core.tol.tol_index(dynamic.current_graph(), dynamic.order)
    assert len(calls) == 2  # ... and tol_index cannot slip past the count


# ----------------------------------------------------------------------
# Locality: nothing outside `touched` is written
# ----------------------------------------------------------------------
class _ReadOnly(set):
    """A label row that fails the test when anything mutates it."""

    def _written(self, *args):
        raise AssertionError("a label row that must not change was written")

    add = discard = remove = pop = clear = update = _written
    difference_update = intersection_update = _written
    symmetric_difference_update = _written
    __isub__ = __ior__ = __iand__ = __ixor__ = _written


class _Tripped(Exception):
    """The fault a :class:`_Tripwire` row raises."""


class _Tripwire(set):
    """A label row that raises :class:`_Tripped` on the ``fuse[0]``-th
    mutating call made on any row sharing ``fuse``; the call raises
    before it changes anything."""

    def __init__(self, row, fuse: list[int]):
        super().__init__(row)
        self.fuse = fuse

    def _counted(name):
        method = getattr(set, name)

        def counted(self, *args):
            self.fuse[0] -= 1
            if self.fuse[0] == 0:
                raise _Tripped(name)
            return method(self, *args)

        return counted

    add = _counted("add")
    discard = _counted("discard")
    remove = _counted("remove")
    pop = _counted("pop")
    clear = _counted("clear")
    update = _counted("update")
    difference_update = _counted("difference_update")
    intersection_update = _counted("intersection_update")
    symmetric_difference_update = _counted("symmetric_difference_update")
    __isub__ = _counted("__isub__")
    __ior__ = _counted("__ior__")
    __iand__ = _counted("__iand__")
    __ixor__ = _counted("__ixor__")


def _freeze_rows(dynamic: DynamicReachabilityIndex, above=(), below=()) -> None:
    """Make every label row read-only except, as in ``touched``,
    ``out_labels[w]`` for ``w ∈ above`` and ``in_labels[w]`` for ``w ∈ below``."""
    for w in range(dynamic.num_vertices):
        if w not in below:
            dynamic.in_labels[w] = _ReadOnly(dynamic.in_labels[w])
        if w not in above:
            dynamic.out_labels[w] = _ReadOnly(dynamic.out_labels[w])


def _core_with_bypassed_leaf_edge() -> tuple[DiGraph, int, int, int]:
    # A hub-dominated core plus two leaves u, v joined through the hub:
    # u has no in-edges and v no out-edges, so A = {u} and D = {v}.
    core = web_graph(120, seed=2)
    n = core.num_vertices
    u, v = n, n + 1
    hub = max(range(n), key=lambda w: core.in_degree(w) * core.out_degree(w))
    return DiGraph(n + 2, list(core.edges()) + [(u, hub), (hub, v)]), u, v, hub


def test_closure_cutting_delete_writes_only_cone_rows():
    # Cutting the only way into v does change the closure: the repair
    # runs, and calls no mutator on a row outside A = {u, hub, …} / D = {v}
    # — not even a no-op one.  Of those it writes only what changed:
    # v's L_in loses every hub but v; no L_out row held v.
    g, u, v, hub = _core_with_bypassed_leaf_edge()
    dynamic = DynamicReachabilityIndex(g)
    reaches_hub = {w for w in range(g.num_vertices) if dynamic.query(w, hub)}
    _freeze_rows(dynamic, above=reaches_hub, below={v})
    assert dynamic.delete_edge(hub, v)
    assert dynamic.touched == (set(), {v})
    assert dynamic.in_labels[v] == {v}
    assert not dynamic.query(u, v)
    dynamic.check()


def test_edge_delete_between_two_leaves_touches_only_their_rows():
    # Not even their rows: the leaf-to-leaf edge runs parallel to
    # u → hub → v, deleting it leaves u ⇝ v standing, and a write that
    # leaves the closure alone owes the index nothing.
    g, u, v, _ = _core_with_bypassed_leaf_edge()
    g = DiGraph(g.num_vertices, list(g.edges()) + [(u, v)])
    dynamic = DynamicReachabilityIndex(g)
    _freeze_rows(dynamic)
    assert dynamic.delete_edge(u, v)
    assert dynamic.touched == (set(), set())
    assert dynamic.query(u, v)  # still reachable through the hub
    assert not dynamic.has_edge(u, v)
    dynamic.check()


def test_closure_preserving_inserts_write_no_row_at_all():
    # The insert twin, twice: an edge parallel to an existing path, and
    # one closing a cycle inside a strongly connected component.
    g, u, v, _ = _core_with_bypassed_leaf_edge()
    dynamic = DynamicReachabilityIndex(g)
    _freeze_rows(dynamic)
    assert dynamic.query(u, v) and not dynamic.has_edge(u, v)
    assert dynamic.insert_edge(u, v)
    assert dynamic.touched == (set(), set())
    assert dynamic.has_edge(u, v)
    dynamic.check()

    dynamic = DynamicReachabilityIndex(scc_heavy_graph(40, seed=5))
    a, b = next(
        (a, b)
        for a in range(40) for b in range(40)
        if a != b and dynamic.query(a, b) and dynamic.query(b, a)
        and not dynamic.has_edge(a, b)
    )
    _freeze_rows(dynamic)
    assert dynamic.insert_edge(a, b)
    assert dynamic.touched == (set(), set())
    dynamic.check()


# ----------------------------------------------------------------------
# `touched` is the rows written, no more and no less
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", FAMILIES)
def test_insert_touched_is_exactly_the_rows_that_changed(family):
    rng = random.Random(11)
    closing = 0
    for seed in range(6):
        g = family_graph(family, 22, seed=seed)
        dynamic = DynamicReachabilityIndex(g)
        for _ in range(25):
            u, v = rng.sample(range(g.num_vertices), 2)
            if rng.random() < 0.3:  # aim for an edge that closes a cycle
                back = [(a, b) for a in range(g.num_vertices)
                        for b in range(g.num_vertices) if a != b and dynamic.query(b, a)]
                u, v = rng.choice(back) if back else (u, v)
            if dynamic.has_edge(u, v):
                continue
            closing += dynamic.query(v, u)
            apply_and_check_touched(dynamic, "insert", u, v)
            assert dynamic.has_edge(u, v)
            dynamic.check()
    assert closing or family not in ("cyclic", "scc-heavy")


@pytest.mark.parametrize(
    "graph", [web_graph(300, seed=2), scc_heavy_graph(60, seed=3)], ids=["web", "scc-heavy"]
)
def test_touched_is_exactly_the_rows_that_changed_for_every_op(graph):
    # All five ops on one stream, a fifth of them promotes: a promote
    # names the rows it changed like every other op, not its two cones.
    dynamic = DynamicReachabilityIndex(graph)
    stream = mixed_update_stream(graph, 300, node_ratio=0.1, promote_ratio=0.2, seed=4)
    applied = Counter()
    for op, u, v in stream:
        order = dynamic.order
        apply_and_check_touched(dynamic, op, u, v)
        applied[op] += dynamic.order is not order or op != "promote"
    assert set(applied) == set(UPDATE_OPS) and applied["promote"] > 10
    dynamic.check()


def test_edge_insert_between_two_leaves_writes_only_touched_rows():
    # Two low-rank leaves of a web graph: v's cone is a good part of the
    # graph, so the shrink pass reads hundreds of rows — and may write
    # only the ones `touched` names.  The first run learns `touched`,
    # the second makes every other row read-only.
    g = web_graph(300, seed=2)
    leaves = list(degree_order(g).by_rank())[::-1]
    u, v = next(
        (u, v) for u in leaves[:20] for v in leaves[:20]
        if u != v and not g.has_edge(u, v) and g.out_degree(v) > 0
    )
    first = DynamicReachabilityIndex(g)
    assert first.insert_edge(u, v)
    above, below = first.touched
    assert above or below
    dynamic = DynamicReachabilityIndex(g)
    _freeze_rows(dynamic, above, below)
    assert dynamic.insert_edge(u, v)
    assert dynamic.touched == (above, below)
    assert len(reachable_set(g, v)) > 10 * (len(above) + len(below))
    dynamic.check()


# ----------------------------------------------------------------------
# promote: the dead entries are read off v's rows and L⁻, no cone
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    family_graphs(max_vertices=16),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=12),
)
def test_property_promote_to_random_ranks_keeps_check_green(g, targets):
    dynamic = DynamicReachabilityIndex(g)
    n = g.num_vertices
    for a, b in targets:
        applied = dynamic.promote(a % n, b % n)
        assert applied is None or applied == b % n == dynamic.order.ranks[a % n]
        dynamic.check()


_PROMOTE_HEAVY = st.lists(
    st.tuples(
        st.sampled_from(["zero", "scc", "hub", "degree", "any", "insert", "delete"]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    ),
    max_size=20,
)


def _promote_target(dynamic: DynamicReachabilityIndex, kind: str, v: int, b: int) -> int | None:
    """A rank to promote ``v`` to: 0, the rank of a vertex of ``v``'s
    strongly connected component or of one of ``v``'s own hubs ranked
    above it (so the move overtakes it), its degree rank (``None``), or
    any rank."""
    rank, n = dynamic.order.ranks, dynamic.num_vertices
    if kind == "zero":
        return 0
    if kind == "degree":
        return None
    if kind == "scc":
        pool = [w for w in dynamic.alive_vertices() if dynamic.query(v, w) and dynamic.query(w, v)]
    elif kind == "hub":
        pool = dynamic.in_labels[v] | dynamic.out_labels[v]
    else:
        return b % n
    above = sorted(rank[w] for w in pool if rank[w] < rank[v])
    return above[b % len(above)] if above else b % n


@settings(max_examples=150, deadline=None)
@given(family_graphs(max_vertices=18), _SELF_LOOPS, _PROMOTE_HEAVY, st.sampled_from([None, 2]))
def test_property_promotes_equal_the_cone_promote(g, loops, operations, drift):
    """Every family, cyclic ones included, some with self-loops, with and
    without automatic promotion: after each promote to rank 0, into its
    own strongly connected component, past one of its own hubs, to its
    degree rank or anywhere, among inserts and deletes that move the
    graph, the labels equal the cone reference's row for row, with the
    same ``touched`` and the same backward label sets."""
    n = g.num_vertices
    g = DiGraph(n, list(g.edges()) + [(x % n, x % n) for x in loops])
    dynamic = DynamicReachabilityIndex(g, drift_threshold=drift)
    reference = ConePromoteIndex(g, drift_threshold=drift)
    for kind, a, b in operations:
        alive = dynamic.alive_vertices()
        u, v = alive[a % len(alive)], alive[b % len(alive)]
        if kind == "insert":
            if u == v:
                continue
            dynamic.insert_edge(u, v)
            reference.insert_edge(u, v)
        elif kind == "delete":
            edges = list(dynamic.edges())
            if not edges:
                continue
            dynamic.delete_edge(*edges[a % len(edges)])
            reference.delete_edge(*edges[a % len(edges)])
        else:
            target = _promote_target(dynamic, kind, u, b)
            if drift is None:
                apply_and_check_touched(dynamic, "promote", u, -1 if target is None else target)
            else:
                dynamic.promote(u, target)
            reference.promote(u, target)
        assert list(reference.order.by_rank()) == list(dynamic.order.by_rank())
        assert dynamic.in_labels == reference.in_labels
        assert dynamic.out_labels == reference.out_labels
        assert dynamic.touched == reference.touched
        assert dynamic.backward_in == reference.backward_in
        assert dynamic.backward_out == reference.backward_out
        _assert_backward_sets_invert_the_rows(dynamic)
    dynamic.check()


# ----------------------------------------------------------------------
# Atomicity: a write that raises part-way leaves the index it found
# ----------------------------------------------------------------------
_SCC = scc_heavy_graph(30, seed=5)
_WRITES = [  # each one repairs; with drift 2 the insert's promotes ride along
    ("insert", 29, 0), ("delete", 18, 19), ("add_node", 0, 0),
    ("delete_node", 19, 19), ("promote", 29, 0),
    ("promote", 4, 1),  # 24 ranks up: three band hubs die in 18 rows
]
_WRITE_IDS = ["insert", "delete", "add_node", "delete_node", "promote", "promote_wide_band"]


def _state(dynamic: DynamicReachabilityIndex, path) -> tuple:
    dynamic.snapshot().save(path)
    return (
        path.read_bytes(), list(dynamic.edges()), list(dynamic.order.by_rank()),
        dynamic.num_vertices, dynamic.alive_vertices(),
    )


@pytest.mark.parametrize("drift", [None, 2])
@pytest.mark.parametrize("op, u, v", _WRITES, ids=_WRITE_IDS)
def test_a_write_tripped_at_every_row_mutation_rolls_back(op, u, v, drift, tmp_path):
    """Trip the k-th row mutation of the write, for every k until the
    write completes.  Each tripped write raises ``WriteAbortedError``
    and leaves the index as of the last write a listener heard: with
    drift 2 an edge write may be heard and its promote tripped.  The
    write that completes equals the same write on an untripped index."""
    fresh = DynamicReachabilityIndex(_SCC, drift_threshold=drift)
    fresh_log = []
    fresh.subscribe(lambda *update: fresh_log.append(update))
    fresh.apply(op, u, v)
    expected = _state(fresh, tmp_path / "fresh.idx")
    aborts = 0
    for k in range(1, 1000):
        dynamic = DynamicReachabilityIndex(_SCC, drift_threshold=drift)
        fuse = [k]
        dynamic.in_labels = [_Tripwire(row, fuse) for row in dynamic.in_labels]
        dynamic.out_labels = [_Tripwire(row, fuse) for row in dynamic.out_labels]
        heard = [((), _state(dynamic, tmp_path / "heard.idx"))]
        dynamic.subscribe(
            lambda *update: heard.append((update, _state(dynamic, tmp_path / "heard.idx")))
        )
        try:
            dynamic.apply(op, u, v)
        except WriteAbortedError as error:
            assert isinstance(error.__cause__, _Tripped)
            assert fuse[0] == 0
            aborts += 1
            assert _state(dynamic, tmp_path / "live.idx") == heard[-1][1]
            assert [update for update, _ in heard[1:]] == fresh_log[: len(heard) - 1]
            dynamic.check()
            continue
        assert fuse[0] > 0  # the write completed before the fuse burnt down
        assert _state(dynamic, tmp_path / "live.idx") == expected
        assert [update for update, _ in heard[1:]] == fresh_log
        assert dynamic.touched == fresh.touched
        break
    assert aborts == k - 1
    assert aborts or op == "add_node"  # add_node appends rows, mutates none


@settings(max_examples=80, deadline=None)
@given(
    family_graphs(max_vertices=14),
    st.lists(
        st.tuples(
            st.sampled_from(UPDATE_OPS), st.integers(0, 10**6), st.integers(0, 10**6),
            st.booleans(),
        ),
        max_size=16,
    ),
)
def test_property_ideal_rank_is_the_degree_rank_after_every_write(g, operations):
    """The bisection over the maintained degree keys answers what a sort
    of the current degrees does, after every write — a write tripped at
    its first row mutation and rolled back included."""
    dynamic = DynamicReachabilityIndex(g)
    for op, a, b, trip in operations:
        alive = dynamic.alive_vertices()
        u, v = alive[a % len(alive)], alive[b % len(alive)]
        if op == "insert" and u == v:
            continue
        if op == "delete":
            edges = list(dynamic.edges())
            if not edges:
                continue
            u, v = edges[a % len(edges)]
        if op == "delete_node" and len(alive) < 2:
            continue
        if trip:
            fuse = [1]
            dynamic.in_labels = [_Tripwire(row, fuse) for row in dynamic.in_labels]
            dynamic.out_labels = [_Tripwire(row, fuse) for row in dynamic.out_labels]
        with suppress(WriteAbortedError):  # rolled back: the keys must be too
            dynamic.apply(op, u, b % dynamic.num_vertices if op == "promote" else v)
        expected = degree_order(dynamic.current_graph())
        for w in dynamic.alive_vertices():
            assert dynamic._ideal_rank(w) == expected.rank(w)
    dynamic.check()
