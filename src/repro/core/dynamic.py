"""Dynamic maintenance of the TOL index under online updates.

The paper defers "maintaining indexes on distributed dynamic graphs" to
future work but inherits the setting from TOL (Zhu et al., SIGMOD'14),
whose index is explicitly designed for dynamic graphs.  This module
provides a *centralized* dynamic index with exact semantics:

**The vertex order is explicit at all times** (TOL's total-order
approach): after every applied update,
:meth:`DynamicReachabilityIndex.snapshot` is guaranteed equal to
``tol_index(current_graph(), order)`` for the *current* order.  The
order changes only through two operations — :meth:`add_node` appends
the new vertex at the tail, and :meth:`promote` moves one vertex
hub-ward (TOL's "butterfly" rewrite) — so "the TOL index" stays
well-defined throughout.

Update algorithms
-----------------
*Closure first.*  By Theorem 1 the index is a function of the
transitive closure and the order, nothing else, so an edge update after
which every pair reaches what it reached before moves no label.  Both
edge updates look before they repair.  An insert ``(u, v)`` asks the
old labels whether ``u`` reached ``v`` already (one intersection).  A
delete unlinks the edge and searches forward from ``u`` for ``v``,
stepping only onto vertices the old labels say reached ``v`` — old
reachability over-approximates new, so no surviving walk is cut, and
only vertices between ``u`` and ``v`` are visited — and stops at the
first one outside ``u``'s strongly connected component.  When the closure
stands, the write is still a write (listeners, drift check, ``True``),
with ``touched == (set(), set())``; otherwise:

*Insertion* ``(u, v)`` is **a grow, then what it kills**, and never
computes a cone.  Only pairs ``a ⇝ u``, ``v ⇝ w`` gain walks, each new
one ``a ⇝ u → v ⇝ w``.  A gained entry ``a ∈ L_in(w)`` has ``a`` a hub
of ``u`` and outranks the best vertex on the walks ``v ⇝ w`` — a hub
of ``v`` held by ``w``'s old row — and, when the edge closes a cycle,
the best vertex of ``L_out(v) ∩ L_in(u)``.  So each hub of ``u`` walks
forward from ``v`` through the rows whose old contents hold none of its
higher-ranked witnesses and no hub of ``v`` above it, adding exact
entries only (the mirror from ``u`` for ``L_out``).  An old entry dies
only by domination: the best vertex ``x`` on the new walks ``h ⇝ w``
was just gained by ``w`` (``L_in(w) ∩ L⁻_out(x)`` dies), by ``h``
(``h`` leaves ``L⁻_in(h) ∩ L⁻_in(x)``), or by both (the cycle's best
vertex).  These are set intersections over the paper's backward label
sets ``L⁻_in(h) = {w | h ∈ L_in(w)}`` / ``L⁻_out``, which the index
keeps; every pair they find is dead, so nothing is tested.

*Deletion* ``(u, v)`` is a **cut, then a regain**, and never computes
a cone.  By Theorem 1 a delete keeps an old entry iff its pair still
reaches, and a pair gains an entry only if the highest vertex on its
old walks lost its entry in one of the pair's rows.  A lost pair's old
walks all ran through the edge under their hub, so only the hubs ``u``
and ``v`` share can lose: for each, the rows it lost are those reached
from ``v`` through rows holding it, minus those it still reaches (the
mirror from ``u`` for ``L_out``).  Then the kernel re-runs in rank
order from each row that lost an entry, and from the vertices ranked
below a row's best lost hub that reach it (the row included), which
re-decide only the rows that lost.  A walk passes a row that holds its
hub untested and unwritten, so only rows that change are written.

*Node addition* appends a fresh vertex id at the **tail of the order**
(lowest priority).  An isolated tail vertex provably costs nothing:
its TOL round reaches only itself, and no other round can reach it, so
its labels are exactly ``{v}``/``{v}`` and every other label set is
untouched.

*Node deletion* is the same repair once for all of ``v``'s edges
(``v`` counts as a lost hub in every row that held it; the cut starts
from its old neighbours) and leaves the id behind as an isolated
**tombstone** whose labels are ``{v}``/``{v}`` — ids are never
recycled, so shard maps, caches, and replicas keyed by vertex id stay
valid.  Mutating a tombstone raises; querying one is permitted (it is
simply isolated).

*Order upgrade* (:meth:`promote`) is the TOL butterfly rewrite: moving
``v`` from rank ``r_old`` up to ``r_new < r_old`` re-ranks only the
**band** it jumps, and can only (a) *grow* ``v``'s own coverage, and
(b) *kill* entries ``h ∈ L_in(w)`` of band hubs with ``h ⇝ v ⇝ w``.
By Theorem 1 such an ``h`` already sat in ``L_in(v)``, so the dead
entries are read off ``v``'s own rows and ``L⁻_in(h)``, and the rewrite
is those plus ``v``'s pruned BFS pair — no cone, no rebuild.

*Every write keeps a journal* of the label rows it changes, each named
(and, but for an insert's, saved) before its first change, and of its
edits to the graph and the order: its rows are
:attr:`~DynamicReachabilityIndex.touched`, the backward label sets take
its deltas once the rows are final (an insert's from the entries it
added and killed, every other write's from the saved rows), and a write
that raises part-way is rolled back by it
(:class:`~repro.errors.WriteAbortedError`).

When constructed with a ``drift_threshold``, the index watches how far
each updated vertex's *degree rank* (its position under the paper's
``(d_in+1)·(d_out+1)`` order on **current** degrees, one bisection of a
sorted key list every edge write keeps up) has drifted above its frozen
rank, and promotes it automatically once the drift exceeds
the threshold — the online answer to "the construction-time order goes
stale as the graph evolves and labels fatten".
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right, insort
from contextlib import contextmanager
from typing import Iterable

from repro.core import tol
from repro.core.labels import ReachabilityIndex
from repro.errors import IndexAuditError, WriteAbortedError, check_count
from repro.graph.digraph import DiGraph
from repro.graph.order import VertexOrder, degree_order

#: Update operations a :class:`DynamicReachabilityIndex` can apply and
#: notify listeners about, in ``(op, u, v)`` shape.  For ``add_node``
#: and ``delete_node`` both payload slots carry the vertex id; for
#: ``promote`` the payload is ``(vertex, new_rank)``.
UPDATE_OPS = ("insert", "delete", "add_node", "delete_node", "promote")


class _Rows(dict):
    """The label rows one write changed in one direction, each mapped to
    what it held before the write's first change to it, for the backward
    label sets.  ``add(w)`` names row ``w``, saving it, unless it is
    named already; a row the write appends is named with what it held
    before, nothing.  An insert, which moves the backward sets itself,
    names its rows with ``None``."""

    __slots__ = ("labels",)

    def __init__(self, labels: list[set[int]]):
        super().__init__()
        self.labels = labels

    def add(self, w: int) -> None:
        if w not in self:
            self[w] = self.labels[w].copy()


class _Journal:
    """What one write changed: ``in_rows`` / ``out_rows`` the label rows
    it changed, per direction, each named (and, but for an insert's,
    saved) before its first change; ``linked`` / ``unlinked`` the edges
    it added and removed; ``killed`` the vertex it tombstoned; ``n`` and
    ``order`` what it started from.
    ``inverted`` is set by a write that brought the backward label sets
    up to date itself; otherwise the commit does, from the saved rows."""

    __slots__ = ("in_rows", "out_rows", "linked", "unlinked", "killed", "n", "order", "inverted")

    def __init__(self, n: int, order: VertexOrder, in_labels, out_labels):
        self.in_rows = _Rows(in_labels)
        self.out_rows = _Rows(out_labels)
        self.linked: list[tuple[int, int]] = []
        self.unlinked: list[tuple[int, int]] = []
        self.killed: int | None = None
        self.n = n
        self.order = order
        self.inverted = False


class DynamicReachabilityIndex:
    """A TOL index that stays exact under online graph updates.

    Parameters
    ----------
    graph:
        Initial graph; its edges seed the mutable adjacency.
    order:
        Initial total order (defaults to the *initial* graph's degree
        order).  It changes only via :meth:`add_node` (tail append) and
        :meth:`promote` (hub-ward move); :attr:`order` always exposes
        the current one.
    drift_threshold:
        When set, every applied edge update checks its endpoints'
        degree-rank drift (:meth:`drift`) and promotes a vertex whose
        frozen rank lags its current degree rank by more than this many
        positions.  ``None`` (the default) disables automatic upgrades;
        :meth:`promote` stays available either way.
    """

    def __init__(
        self,
        graph: DiGraph,
        order: VertexOrder | None = None,
        drift_threshold: int | None = None,
    ):
        if order is None:
            order = degree_order(graph)
        if len(order) != graph.num_vertices:
            raise ValueError("order does not cover the graph's vertices")
        if drift_threshold is not None:
            drift_threshold = check_count("drift_threshold", drift_threshold)
        n = graph.num_vertices
        self._n = n
        self._rank = order.ranks
        self._order = order
        self._drift_threshold = drift_threshold
        self._alive = [True] * n
        self._out_adj: list[set[int]] = [set() for _ in range(n)]
        self._in_adj: list[set[int]] = [set() for _ in range(n)]
        for a, b in graph.edges():
            self._out_adj[a].add(b)
            self._in_adj[b].add(a)
        # Label sets: in_labels[w] = L_in(w), out_labels[w] = L_out(w).
        # The one from-scratch build; every later update repairs in place.
        self.in_labels, self.out_labels = tol.tol_label_sets(graph, order)
        #: The paper's backward label sets (§III): ``backward_in[h]`` is
        #: ``L⁻_in(h) = {w | h ∈ L_in(w)}``, ``backward_out[h]`` the mirror.
        #: An insert reads the rows an entry it adds can kill off them.
        self.backward_in = _invert(self.in_labels)
        self.backward_out = _invert(self.out_labels)
        # One key per vertex, ascending: (d_in+1)(d_out+1) above the id bits,
        # so a vertex's degree rank is one bisection (_ideal_rank).
        self._degree_keys = sorted(_degree_key(self._in_adj, self._out_adj, w) for w in range(n))
        self._listeners: list = []
        #: ``(above, below)`` of the last applied update: the rows whose
        #: ``out_labels[w]`` (w ∈ above) and ``in_labels[w]`` (w ∈ below)
        #: it changed, exactly, for every op — two empty sets for an edge
        #: write that leaves the transitive closure alone.
        self.touched: tuple[set[int], set[int]] = (set(), set())

    # ------------------------------------------------------------------
    # Queries and views
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertex ids, tombstones included (grows with
        :meth:`add_node`, never shrinks)."""
        return self._n

    @property
    def order(self) -> VertexOrder:
        """The current total order the index is exact under.

        Exposed so external checkers (``repro.fuzz`` oracles, tests)
        can rebuild the reference ``tol_index(current_graph(), order)``
        the snapshot contract promises equality with.  Reread it after
        :meth:`add_node` / :meth:`promote` — both replace it.
        """
        return self._order

    @property
    def num_edges(self) -> int:
        """Current number of edges."""
        return sum(len(adj) for adj in self._out_adj)

    def is_alive(self, v: int) -> bool:
        """True while ``v`` exists and was not deleted."""
        return 0 <= v < self._n and self._alive[v]

    def alive_vertices(self) -> list[int]:
        """Vertex ids currently alive (ascending)."""
        return [v for v in range(self._n) if self._alive[v]]

    def has_edge(self, u: int, v: int) -> bool:
        """True if the edge ``(u, v)`` is currently present."""
        return v in self._out_adj[u]

    def edges(self) -> Iterable[tuple[int, int]]:
        """Iterate over the current edges."""
        for u in range(self._n):
            for v in sorted(self._out_adj[u]):
                yield u, v

    def query(self, s: int, t: int) -> bool:
        """``q(s, t)`` on the current graph.

        Tombstoned vertices are permitted: they are isolated, so every
        query involving one answers ``False`` (or ``True`` for
        ``q(v, v)``), matching the transitive closure of
        :meth:`current_graph`.
        """
        return not self.out_labels[s].isdisjoint(self.in_labels[t])

    def snapshot(self) -> ReachabilityIndex:
        """An immutable copy of the current (exact TOL) index."""
        return ReachabilityIndex.from_label_lists(self.in_labels, self.out_labels)

    def current_graph(self) -> DiGraph:
        """The current graph as an immutable :class:`DiGraph`.

        Tombstoned ids are present as isolated vertices — the id space
        is dense and never recycled.
        """
        return DiGraph(self._n, list(self.edges()))

    def check(self) -> None:
        """Self-audit against ``tol_index(current_graph(), order)``:
        raises :class:`~repro.errors.IndexAuditError` naming the first
        differing vertex and direction, then the first hub whose backward
        label set is not the inversion of the rows.  Costs one full TOL
        build; nothing on a mutation path calls it."""
        expected = tol.tol_label_sets(self.current_graph(), self._order)
        for w in range(self._n):
            for direction, live, want in zip(
                ("in", "out"), (self.in_labels, self.out_labels), expected
            ):
                if live[w] != want[w]:
                    raise IndexAuditError(w, direction, live[w], want[w])
        for direction, backward, labels in (
            ("in", self.backward_in, self.in_labels),
            ("out", self.backward_out, self.out_labels),
        ):
            for h, want in enumerate(_invert(labels)):
                if backward[h] != want:
                    raise IndexAuditError(h, direction, backward[h], want, backward=True)

    # ------------------------------------------------------------------
    # Update hooks
    # ------------------------------------------------------------------
    def subscribe(self, listener) -> None:
        """Register ``listener(op, u, v)`` to run after every *applied*
        update (``op`` is one of :data:`UPDATE_OPS`).

        Listeners fire only when the update actually applied — e.g.
        inserting a present edge is a no-op and stays silent.  They run
        only after the label sets are exact again, so a listener may
        query, take a snapshot, or call :meth:`check`.  This is the
        invalidation hook the serving layer's
        :class:`~repro.serve.QueryCache` and the replication op log
        attach to (see ``docs/dynamic.md``).  For ``promote`` the
        payload is ``(vertex, new_rank)``; for node ops both slots
        carry the vertex id.  While listeners run, :attr:`touched`
        names exactly the label rows the update changed, for every op
        (replication copies them); an insert or edge delete that leaves
        the transitive closure alone still notifies, with
        ``touched == (set(), set())``.  A write that raises part-way
        is rolled back and notifies no one.
        """
        self._listeners.append(listener)

    def unsubscribe(self, listener) -> None:
        """Remove a previously registered listener."""
        self._listeners.remove(listener)

    @contextmanager
    def _write(self, op: str, u: int, v: int):
        """Run one write against a fresh :class:`_Journal`.  When the body
        returns, the backward label sets catch up with the rows, the
        journal's rows are :attr:`touched` and the listeners run.  When it
        raises, the journal is rolled back, no listener runs, and
        :class:`WriteAbortedError` is raised from the cause."""
        journal = _Journal(self._n, self._order, self.in_labels, self.out_labels)
        try:
            yield journal
        except BaseException as exc:
            self._roll_back(journal)
            if not isinstance(exc, Exception):
                raise
            raise WriteAbortedError(op, u, v) from exc
        if not journal.inverted:
            self._reinvert(journal)
        self.touched = (set(journal.out_rows), set(journal.in_rows))
        for listener in self._listeners:
            listener(op, u, v)

    def _reinvert(self, journal: _Journal) -> None:
        """Bring the backward label sets up to date from the rows
        ``journal`` saved: each entry a row lost or gained moves."""
        for backward in (self.backward_in, self.backward_out):
            while len(backward) < self._n:  # the rows add_node appended
                backward.append(set())
        for labels, backward, saved in (
            (self.in_labels, self.backward_in, journal.in_rows),
            (self.out_labels, self.backward_out, journal.out_rows),
        ):
            for w, old in saved.items():
                new = labels[w]
                for h in old - new:
                    backward[h].discard(w)
                for h in new - old:
                    backward[h].add(w)

    def _roll_back(self, journal: _Journal) -> None:
        """Put back everything ``journal`` recorded.  The edges, order,
        vertex flags and degree keys go back first; the rows are then the
        TOL index of that graph and order, which is what they held before
        the write, so the journal names them and one build recomputes
        them (a cost only a failed write pays; an insert saves no rows,
        because copying each costs its dearest case more than its own
        work).  The backward label sets change only once a write's rows
        are final, so they still match."""
        n = journal.n
        for a, b in journal.linked:
            self._out_adj[a].discard(b)
            self._in_adj[b].discard(a)
        for a, b in journal.unlinked:
            self._out_adj[a].add(b)
            self._in_adj[b].add(a)
        del self._out_adj[n:], self._in_adj[n:], self._alive[n:]
        del self.in_labels[n:], self.out_labels[n:]
        if journal.killed is not None:
            self._alive[journal.killed] = True
        self._n, self._order, self._rank = n, journal.order, journal.order.ranks
        self._degree_keys = sorted(_degree_key(self._in_adj, self._out_adj, w) for w in range(n))
        before = tol.tol_label_sets(self.current_graph(), self._order)
        for labels, rows, old in zip((self.in_labels, self.out_labels),
                                     (journal.in_rows, journal.out_rows), before):
            for w in rows:
                if w < n:
                    labels[w] = old[w]

    def _link(self, journal: _Journal, a: int, b: int) -> None:
        journal.linked.append((a, b))
        self._rewire(a, b, set.add)

    def _unlink(self, journal: _Journal, a: int, b: int) -> None:
        journal.unlinked.append((a, b))
        self._rewire(a, b, set.discard)

    def _rewire(self, a: int, b: int, change) -> None:
        """Apply ``change`` (``set.add`` / ``set.discard``) to the edge
        ``(a, b)`` in both adjacencies, moving its ends' degree keys."""
        in_adj, out_adj, keys = self._in_adj, self._out_adj, self._degree_keys
        ends = (a,) if a == b else (a, b)
        for w in ends:
            del keys[bisect_left(keys, _degree_key(in_adj, out_adj, w))]
        change(out_adj[a], b)
        change(in_adj[b], a)
        for w in ends:
            insort(keys, _degree_key(in_adj, out_adj, w))

    def apply(self, op: str, u: int, v: int) -> bool:
        """Apply one ``(op, u, v)`` update; returns whether it changed
        anything.  ``op`` is one of :data:`UPDATE_OPS`: ``add_node``
        ignores the payload, ``delete_node`` deletes ``u``, ``promote``
        moves ``u`` to rank ``v`` (negative meaning its degree rank)."""
        if op == "insert":
            return self.insert_edge(u, v)
        if op == "delete":
            return self.delete_edge(u, v)
        if op == "add_node":
            self.add_node()
            return True
        if op == "delete_node":
            return self.delete_node(u)
        if op == "promote":
            return self.promote(u, v) is not None
        raise ValueError(f"unknown update op {op!r}")

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> bool:
        """Insert ``(u, v)``; returns False if it was already present.

        Self-loops are rejected (they never affect reachability).
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError("self-loops do not affect reachability")
        if v in self._out_adj[u]:
            return False
        with self._write("insert", u, v) as journal:
            self._link(journal, u, v)
            in_labels, out_labels = self.in_labels, self.out_labels
            # The labels are still the old, exact ones: when they say u reached
            # v already no pair gains a walk, and the write owes the index nothing.
            if out_labels[u].isdisjoint(in_labels[v]):
                # Neither grow writes these two rows: each holds its own hubs.
                rank = self._rank
                hubs_in, hubs_out = in_labels[u], out_labels[v]
                cycle = hubs_in & hubs_out
                if cycle:
                    # v ⇝ u: the best vertex c on those walks sits on every new
                    # walk, so a hub ranked below it gains nothing.
                    c_rank = min(map(rank.__getitem__, cycle))
                    hubs_in = [a for a in hubs_in if rank[a] <= c_rank]
                    hubs_out = [b for b in hubs_out if rank[b] <= c_rank]
                gained_in = self._grow(hubs_in, hubs_out, v, True, journal.in_rows)
                gained_out = self._grow(hubs_out, hubs_in, u, False, journal.out_rows)
                lost_in = self._killed(gained_in, gained_out, True)
                lost_out = self._killed(gained_out, gained_in, False)
                self._drop(in_labels, lost_in, journal.in_rows)
                self._drop(out_labels, lost_out, journal.out_rows)
                # Every row is final: the backward sets take the same deltas.
                self._move_backward(self.backward_in, gained_in, lost_in)
                self._move_backward(self.backward_out, gained_out, lost_out)
            journal.inverted = True
        self._check_drift(u, v)
        return True

    def _grow(self, hubs, others, root: int, forward: bool, journal: _Rows) -> dict[int, list[int]]:
        """Walk each hub's pruned BFS on from ``root``, across the new
        edge, add every entry it earns and return the rows each hub
        gained, each row named in ``journal`` first.  ``others`` are the
        hubs of the other endpoint's row (``L_out(v)`` for a forward walk
        from ``v``) that may grow.

        A walk stops at a row that holds the hub (it reached that row
        before with everything behind it, and the entry is the walk's own
        visited mark), and at a row holding a hub ranked above it from its
        own opposite row (reached before, not cleanly) or from ``others``
        (the best vertex on the walks from the other endpoint to the row
        is in both rows, and outranks it).  Rows are read live, with what
        the forward pass added: that is a hub of ``u`` ranked no lower
        than the cycle's best vertex, so it blocks no other hub of ``u``,
        and in a witness row of a hub of ``v`` it outranks that hub, so
        it is one of its ``others`` already."""
        rank = self._rank
        adjacency = self._out_adj if forward else self._in_adj
        labels = self.in_labels if forward else self.out_labels
        reverse_labels = self.out_labels if forward else self.in_labels
        gained: dict[int, list[int]] = {}
        for hub in hubs:
            hub_rank = rank[hub]
            blockers = {h for h in reverse_labels[hub] if rank[h] < hub_rank}
            blockers.update(b for b in others if rank[b] < hub_rank)
            rows: list[int] = []
            queue = [root]
            for w in queue:
                row = labels[w]
                if hub in row or not blockers.isdisjoint(row):
                    continue
                if w not in journal:
                    journal[w] = None
                row.add(hub)
                rows.append(w)
                queue.extend(adjacency[w])
            if rows:
                gained[hub] = rows
        return gained

    def _killed(self, gained: dict, gained_across: dict, forward: bool):
        """The old entries an insert kills in one direction (``forward``:
        ``L_in``), from what the two grows added: ``gained`` this
        direction's, ``gained_across`` the other's.  Returns ``({row: dead
        hubs}, {hub: rows it dies in})``, keyed as the two cases below find
        them; a pair may be in both.

        If ``h`` leaves ``L_in(w)``, the best vertex ``x`` on the new walks
        ``h ⇝ w`` is in the new ``L_out(h)`` and the new ``L_in(w)`` and
        was not in both before.  So ``w`` gained it (``h`` is in the old
        ``L_in(w)`` and in ``L⁻_out(x)``, or gained ``x`` too — the cycle's
        best vertex), or ``h`` gained it (``w`` is in ``L⁻_in(h) ∩
        L⁻_in(x)``).  Each pair found either way has ``x`` above ``h`` on
        a walk ``h ⇝ w``, so it is dead: nothing is tested.  The backward
        sets are the pre-insert ones; the rows hold the grown entries too,
        but the only one that can meet the killers is ``x`` itself (another
        hub gained there would sit below ``x`` on a walk to its endpoint)."""
        labels = self.in_labels if forward else self.out_labels
        backward = self.backward_in if forward else self.backward_out
        backward_across = self.backward_out if forward else self.backward_in
        by_row: dict[int, set[int]] = {}
        for x, rows in gained.items():
            killers = backward_across[x]
            also = gained_across.get(x)
            if also:
                killers = killers.union(also)
            for w in rows:
                dead = labels[w] & killers
                dead.discard(x)
                if dead:
                    if w in by_row:
                        by_row[w] |= dead
                    else:
                        by_row[w] = dead
        by_hub: dict[int, set[int]] = {}
        for x, rows in gained_across.items():
            holders = backward[x]
            for h in rows:
                dead_rows = backward[h] & holders
                if dead_rows:
                    if h in by_hub:
                        by_hub[h] |= dead_rows
                    else:
                        by_hub[h] = dead_rows
        return by_row, by_hub

    @staticmethod
    def _drop(labels, lost, journal: _Rows) -> None:
        """Remove the entries :meth:`_killed` found, naming each row in
        ``journal`` before its first change."""
        by_row, by_hub = lost
        for w, dead in by_row.items():
            if w not in journal:
                journal[w] = None
            labels[w] -= dead
        for hub, dead_rows in by_hub.items():
            for w in dead_rows:
                if w not in journal:
                    journal[w] = None
                labels[w].discard(hub)

    @staticmethod
    def _move_backward(backward, gained: dict, lost) -> None:
        """Give the backward sets one direction's deltas of an insert:
        ``gained`` from :meth:`_grow`, ``lost`` from :meth:`_killed`."""
        for hub, rows in gained.items():
            backward[hub].update(rows)
        by_row, by_hub = lost
        for w, dead in by_row.items():
            for hub in dead:
                backward[hub].discard(w)
        for hub, dead_rows in by_hub.items():
            backward[hub] -= dead_rows

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete_edge(self, u: int, v: int) -> bool:
        """Delete ``(u, v)``; returns False if it was not present."""
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._out_adj[u]:
            return False
        with self._write("delete", u, v) as journal:
            self._unlink(journal, u, v)
            if not self._still_reaches(u, v):
                # A pair that lost its walks lost them under its hub, which
                # sat above both endpoints: only the hubs u and v share can lose.
                in_labels, out_labels = self.in_labels, self.out_labels
                lost_in = self._cut(in_labels[u] & in_labels[v], [v], True, journal.in_rows)
                lost_out = self._cut(out_labels[u] & out_labels[v], [u], False, journal.out_rows)
                self._regain(lost_in, lost_out, journal)
        self._check_drift(u, v)
        return True

    def _still_reaches(self, u: int, v: int) -> bool:
        """True if ``u ⇝ v`` on the current adjacency, decided while the
        labels are still exact for the graph *before* ``(u, v)`` was
        unlinked.  A breadth-first search from ``u`` that steps only onto
        vertices the old labels say reach ``v``: every vertex of a
        surviving walk ``u ⇝ v`` reached ``v`` before as well, so none is
        pruned, and nothing outside the vertices between ``u`` and ``v``
        is visited.  It ends at the first such vertex that did not reach
        ``u``: none of its walks to ``v`` used the edge, so they survive.
        So the search stays inside ``u``'s strongly connected component,
        and, breadth first, how far it goes does not hang on the order
        the adjacency sets list their vertices in."""
        out_adj, out_labels = self._out_adj, self.out_labels
        reaches_u, reaches_v = self.in_labels[u], self.in_labels[v]
        visited = {u}
        queue = [u]
        for w in queue:
            for x in out_adj[w]:
                if x in visited:
                    continue
                row = out_labels[x]
                if row.isdisjoint(reaches_v):
                    continue
                if x == v or row.isdisjoint(reaches_u):
                    return True
                visited.add(x)
                queue.append(x)
        return False

    def _cut(self, hubs, starts, forward: bool, journal: set) -> dict[int, int]:
        """Remove every entry of ``hubs`` whose pair stopped reaching when
        the edges into ``starts`` were cut (``forward``: the ``L_in``
        entries; otherwise the edges out of ``starts`` and the ``L_out``
        entries) and recording each row in ``journal``.  Returns the rows
        that lost an entry, each with the best rank it lost.

        Run on the new adjacency while the labels are the old ones.  A
        new walk from a hub passes only rows that hold it (each row on it
        is a row the hub outranks the walk to), and a lost pair's old
        walk entered the cut at one of ``starts`` and went on through
        such rows.  So the rows a hub lost are the ones reached from the
        starts it no longer reaches, stepping onto its rows only, minus
        those it still enters from a row outside that reach (a row
        outside lost nothing).
        """
        rank = self._rank
        labels = self.in_labels if forward else self.out_labels
        adjacency = self._out_adj if forward else self._in_adj
        reverse = self._in_adj if forward else self._out_adj
        lost: dict[int, int] = {}
        for hub in hubs:
            cut = [
                s for s in starts
                if hub in labels[s] and not self._reaches(hub, s, adjacency, reverse, labels)
            ]
            if not cut:
                continue
            reached = set(cut)
            queue = cut
            for w in queue:
                for x in adjacency[w]:
                    if x not in reached and hub in labels[x]:
                        reached.add(x)
                        queue.append(x)
            kept = [
                x for x in queue
                if x == hub or any(w not in reached and hub in labels[w] for w in reverse[x])
            ]
            still = set(kept)
            for w in kept:
                for x in adjacency[w]:
                    if x in reached and x not in still:
                        still.add(x)
                        kept.append(x)
            hub_rank = rank[hub]
            for x in reached - still:
                journal.add(x)
                labels[x].discard(hub)
                if lost.get(x, hub_rank) >= hub_rank:
                    lost[x] = hub_rank
        return lost

    @staticmethod
    def _reaches(hub: int, row: int, adjacency, reverse, labels) -> bool:
        """True if ``hub`` reaches ``row`` on the current adjacency.  A
        walk from ``hub`` passes only rows that hold it (``row`` holds it
        too), so two breadth-first searches through those rows, one on
        from ``hub`` and one back from ``row``, each a level at a time,
        the smaller frontier first, meet exactly when it does.  Met
        halfway, how far they go hangs little on the order the adjacency
        sets list their vertices in."""
        if row == hub:
            return True
        ahead, behind = {hub}, {row}
        forward, backward = [hub], [row]
        while forward and backward:
            grown = []
            if len(forward) <= len(backward):
                for w in forward:
                    for x in adjacency[w]:
                        if x in behind:
                            return True
                        if x not in ahead and hub in labels[x]:
                            ahead.add(x)
                            grown.append(x)
                forward = grown
            else:
                for w in backward:
                    for x in reverse[w]:
                        if x in ahead:
                            return True
                        if x not in behind and hub in labels[x]:
                            behind.add(x)
                            grown.append(x)
                backward = grown
        return False

    def _regain(self, lost_in: dict, lost_out: dict, journal: _Journal) -> None:
        """Add the entries a cut earns, once ``_cut`` removed the ones it
        cost, recording every row written in ``journal``.

        A pair gains an entry only when the hub of its old walks lost its
        entry in one of the pair's rows.  Lost in ``L_out(a)``: ``a``
        re-runs forward, re-deciding every row it reaches.  Lost in
        ``L_in(d)``: the new hub ranks below that lost one, and so does
        every vertex on its new walk to ``d`` — a search back from ``d``
        through vertices ranked below ``d``'s best lost hub finds it
        (``d`` itself included: inside a strongly connected component a
        row need not hold itself), and it re-decides only rows that lost
        an ``L_in`` entry.  The backward runs mirror both.  Hubs run in
        rank order, so every witness a test consults is final.
        """
        rank, pruned_bfs = self._rank, tol.pruned_bfs
        every_row = range(self._n)
        forward = dict.fromkeys(lost_out, every_row)
        backward = dict.fromkeys(lost_in, every_row)
        for hub in self._below_lost(lost_in, self._in_adj):
            forward.setdefault(hub, lost_in)
        for hub in self._below_lost(lost_out, self._out_adj):
            backward.setdefault(hub, lost_out)
        in_labels, out_labels = self.in_labels, self.out_labels
        in_rows, out_rows = journal.in_rows, journal.out_rows
        for hub in sorted(forward.keys() | backward.keys(), key=rank.__getitem__):
            hub_rank = rank[hub]
            if hub in forward:
                witnesses = {h for h in out_labels[hub] if rank[h] < hub_rank}
                pruned_bfs(hub, self._out_adj, rank, in_labels, witnesses, forward[hub], in_rows)
            if hub in backward:
                witnesses = {h for h in in_labels[hub] if rank[h] < hub_rank}
                pruned_bfs(hub, self._in_adj, rank, out_labels, witnesses, backward[hub], out_rows)

    def _below_lost(self, lost: dict, adjacency) -> set[int]:
        """The rows of ``lost`` and every vertex a search from them along
        ``adjacency`` finds, stepping only onto vertices ranked below the
        row's best lost hub.  Rows are searched best lost rank first, so a
        vertex found once was searched on from with the widest bound."""
        rank = self._rank
        found: set[int] = set()
        for row in sorted(lost, key=lost.__getitem__):
            if row in found:
                continue
            bound = lost[row]
            found.add(row)
            queue = [row]
            for w in queue:
                for x in adjacency[w]:
                    if x not in found and rank[x] > bound:
                        found.add(x)
                        queue.append(x)
        return found

    # ------------------------------------------------------------------
    # Node-level updates
    # ------------------------------------------------------------------
    def add_node(self) -> int:
        """Add an isolated vertex; returns its id (always ``num_vertices``
        before the call — ids are assigned densely and never recycled).

        The new vertex joins at the **tail of the order** (lowest
        priority), which keeps the index exact for free: its own TOL
        round reaches only itself and no earlier round can reach it, so
        its labels are exactly ``{v}``/``{v}`` and nothing else moves.
        """
        v = self._n
        with self._write("add_node", v, v) as journal:
            self._n += 1
            self._alive.append(True)
            self._out_adj.append(set())
            self._in_adj.append(set())
            self.in_labels.append({v})
            self.out_labels.append({v})
            journal.in_rows[v] = set()
            journal.out_rows[v] = set()
            insort(self._degree_keys, _degree_key(self._in_adj, self._out_adj, v))
            self._order = self._order.appended()
            self._rank = self._order.ranks
        return v

    def delete_node(self, v: int) -> bool:
        """Delete ``v``: remove every incident edge, tombstone the id.

        The id stays in the (dense) id space as an isolated vertex with
        labels ``{v}``/``{v}``, so ``snapshot()`` remains byte-equal to
        ``tol_index(current_graph(), order)`` and downstream consumers
        keyed by vertex id (shard maps, caches, replicas) need no
        remapping.  Further mutations of ``v`` raise; queries just see
        an isolated vertex.  Listeners observe one ``delete_node``
        notification, not one per removed edge.
        """
        self._check_vertex(v)
        with self._write("delete_node", v, v) as journal:
            # A self-loop is no start: the cut must never reach v's own
            # rows, whose hubs it iterates.
            successors, predecessors = self._out_adj[v] - {v}, self._in_adj[v] - {v}
            for x in list(self._out_adj[v]):
                self._unlink(journal, v, x)
            for x in predecessors:
                self._unlink(journal, x, v)
            journal.killed = v
            self._alive[v] = False
            # Every lost walk ran through v, under a hub of v's own rows; v
            # itself loses every entry it had outside them.
            lost_in = self._cut(self.in_labels[v], successors, True, journal.in_rows)
            lost_out = self._cut(self.out_labels[v], predecessors, False, journal.out_rows)
            for labels, rows in (
                (self.in_labels, journal.in_rows), (self.out_labels, journal.out_rows)
            ):
                if labels[v] != {v}:
                    rows.add(v)
                    labels[v] = {v}
            self._regain(lost_in, lost_out, journal)
        return True

    # ------------------------------------------------------------------
    # Order upgrades (the TOL butterfly rewrite)
    # ------------------------------------------------------------------
    def promote(self, v: int, new_rank: int | None = None) -> int | None:
        """Move ``v`` hub-ward to ``new_rank`` and rewrite the labels.

        ``new_rank`` defaults to ``v``'s current *degree rank* (its
        position under the paper's degree order on current degrees).
        Promotions only move up: when the target rank is not above the
        current one this is a silent no-op returning ``None``;
        otherwise the applied rank is returned and listeners see
        ``("promote", v, new_rank)``.

        A single hub-ward move changes the exact index in only two ways:
        ``v``'s own entries grow (it lost dominators), and entries of the
        **band** hubs it overtook die where ``v`` now dominates them
        (``h ⇝ v ⇝ w``).  So: read the dead entries off the old labels
        (:meth:`_overtaken`), move ``v`` in the order (only the band
        re-ranks), run ``v``'s pruned BFS pair under the new ranks, then
        drop what was read.  Every other entry is provably untouched, and
        no cone is walked.
        """
        self._check_vertex(v)
        if new_rank is not None:
            try:
                new_rank = operator.index(new_rank)
            except TypeError:
                raise ValueError(f"new_rank must be an integer, got {new_rank!r}") from None
        if new_rank is None or new_rank < 0:
            new_rank = self._ideal_rank(v)
        if new_rank >= self._rank[v]:
            return None
        with self._write("promote", v, new_rank) as journal:
            dead_in = self._overtaken(v, new_rank, True)
            dead_out = self._overtaken(v, new_rank, False)
            self._order = self._order.moved(v, new_rank)
            rank = self._rank = self._order.ranks
            # Grow side: v's own round under the new order, every row (a row
            # holding v keeps it, the rest are re-decided).  Exact because
            # every witness it consults is a hub still above v, whose entries
            # the move did not change — filtered by rank, because v's raw
            # rows still hold the band.
            for adjacency, labels, reverse_labels, rows in (
                (self._out_adj, self.in_labels, self.out_labels, journal.in_rows),
                (self._in_adj, self.out_labels, self.in_labels, journal.out_rows),
            ):
                witnesses = {h for h in reverse_labels[v] if rank[h] < new_rank}
                tol.pruned_bfs(v, adjacency, rank, labels, witnesses, range(self._n), rows)
            for labels, rows, dead in (
                (self.in_labels, journal.in_rows, dead_in),
                (self.out_labels, journal.out_rows, dead_out),
            ):
                for hub, dead_rows in dead.items():
                    for w in dead_rows:
                        rows.add(w)
                        labels[w].discard(hub)
        return new_rank

    def _overtaken(self, v: int, new_rank: int, forward: bool) -> dict[int, list[int]]:
        """The entries a move of ``v`` up to ``new_rank`` kills in one
        direction (``forward``: ``L_in``), as ``{band hub: rows it dies
        in}``, read while the labels are the old ones.

        ``h ∈ L_in(w)`` dies iff ``h`` is in the band (its old rank in
        ``[new_rank, old rank of v)``) and ``h ⇝ v ⇝ w``: ``v`` now outranks
        it on a walk ``h ⇝ w``.  ``h`` was the highest vertex on every walk
        ``h ⇝ w`` (Theorem 1), so on every walk ``h ⇝ v`` too: it is a hub
        of ``v``'s own row, and the rows it dies in are those of
        ``L⁻_in(h)`` that ``v`` reaches.  A promote changes no
        reachability, so the old labels answer that, and every pair found
        is dead."""
        rank, old_rank = self._rank, self._rank[v]
        if forward:
            labels, backward, reach = self.in_labels, self.backward_in, self.out_labels[v]
        else:
            labels, backward, reach = self.out_labels, self.backward_out, self.in_labels[v]
        return {
            hub: [w for w in backward[hub] if not reach.isdisjoint(labels[w])]
            for hub in labels[v] if new_rank <= rank[hub] < old_rank
        }

    def drift(self, v: int) -> int:
        """How many positions ``v``'s frozen rank lags its degree rank.

        Positive drift means the order undervalues ``v`` (its degrees
        grew since the order froze); automatic upgrades fire when this
        exceeds the configured ``drift_threshold``.
        """
        self._check_vertex(v)
        return self._rank[v] - self._ideal_rank(v)

    def _ideal_rank(self, v: int) -> int:
        """``v``'s rank under the paper's ``(d_in+1)·(d_out+1)`` order on
        *current* degrees: the vertices with a larger product, plus the
        ties with a larger id (exactly as :func:`degree_order` breaks
        them) — the keys above ``v``'s own."""
        keys = self._degree_keys
        return len(keys) - bisect_right(keys, _degree_key(self._in_adj, self._out_adj, v))

    def _check_drift(self, *vertices: int) -> None:
        """Auto-promote updated endpoints whose drift crossed the
        threshold (no-op without a ``drift_threshold``)."""
        if self._drift_threshold is None:
            return
        for v in vertices:
            if self._alive[v] and self.drift(v) > self._drift_threshold:
                self.promote(v)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        check_count("vertex", v, minimum=0)  # 1.0 and nan name no vertex
        if v >= self._n:
            raise ValueError(f"vertex {v} out of range [0, {self._n})")
        if not self._alive[v]:
            raise ValueError(f"vertex {v} was deleted")


def _degree_key(in_adj, out_adj, w: int) -> int:
    """``w``'s sort key for the degree order: ``(d_in+1)·(d_out+1)``
    above 32 bits of id."""
    return ((len(in_adj[w]) + 1) * (len(out_adj[w]) + 1)) << 32 | w


def _invert(labels: list[set[int]]) -> list[set[int]]:
    """The backward label sets of ``labels``: ``{w | h ∈ labels[w]}`` for
    every hub ``h``."""
    backward: list[set[int]] = [set() for _ in labels]
    for w, row in enumerate(labels):
        for h in row:
            backward[h].add(w)
    return backward
