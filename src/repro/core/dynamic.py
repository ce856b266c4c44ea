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
only vertices between ``u`` and ``v`` are visited.  When the closure
stands, the write is still a write (listeners, drift check, ``True``),
with ``touched == (set(), set())``; otherwise:

*Insertion* ``(u, v)`` is **two rank floods and set algebra**.  With
``A`` = everything reaching ``u`` and ``D`` = everything ``v`` reaches,
only pairs in ``A × D`` gain walks, and every new walk ``a ⇝ w`` is a
walk ``a ⇝ u`` followed by a walk ``v ⇝ w``.  So with ``top_A(a)`` /
``top_D(w)`` the best rank on any such half, Theorem 1 reads:
``a ∈ L_in(w)`` afterwards iff the old walks ``a ⇝ w`` were clean
(``a`` was in ``L_in(w)``, or did not reach ``w``) and ``rank[a] ≤
min(top_A(a), top_D(w))`` — symmetrically for ``L_out``.  ``top_D`` is
one flood from the hubs of ``L_out(v)`` in rank order, first assignment
wins (the best vertex on the walks ``v ⇝ w`` is itself a hub of ``v``),
and its key set is ``D``; ``top_A`` is the mirror image.  Hubs of ``u``
that stay hubs then *grow* forward from ``v`` through rows nothing
outranks them in, adding exact entries only, and one set intersection
per cone row *shrinks* it by the hubs a new walk outranks.  No pair is
tested for domination, and nothing outside ``A ∪ D`` is read.

*Deletion* ``(u, v)`` is a **rank-ordered cone repair**.  With ``A`` =
everything that reached ``u`` and ``D`` = everything ``v`` reached on
the pre-delete graph (the same two sets after the unlink: no walk into
``u`` or out of ``v`` needs the edge), only reachability pairs in
``A × D`` can change,
so only entries ``a ∈ L_in(d)`` / ``d ∈ L_out(a)`` can: those are
stripped, then the hubs of ``A ∪ D`` re-run their pruned BFS on the new
graph in rank order — forward for ``h ∈ A``, backward for ``h ∈ D``.  A
vertex outside the opposite cone keeps its entry status (walk on iff it
holds ``h``); a vertex inside pays the domination test against
higher-ranked hubs, whose entries are final because they ran first.

*Node addition* appends a fresh vertex id at the **tail of the order**
(lowest priority).  An isolated tail vertex provably costs nothing:
its TOL round reaches only itself, and no other round can reach it, so
its labels are exactly ``{v}``/``{v}`` and every other label set is
untouched.

*Node deletion* is one cone repair over ``v``'s own two cones (not one
per edge) and leaves the id behind as an isolated **tombstone** whose
labels are ``{v}``/``{v}`` — ids are never recycled, so shard maps,
caches, and replicas keyed by vertex id stay valid.  Mutating a
tombstone raises; querying one is permitted (it is simply isolated).

*Order upgrade* (:meth:`promote`) is the TOL butterfly rewrite: moving
``v`` from rank ``r_old`` up to ``r_new < r_old`` can only (a) *grow*
``v``'s own coverage (fewer dominators once ``v`` outranks the band it
jumped), and (b) *invalidate* entries of the **band** hubs ``h`` it
overtook where ``h → v → w`` now routes through the higher hub ``v``;
every other entry is exactly as before.  So the rewrite is one pair of
full pruned BFSs from ``v`` under the new order (the grow side) plus a
subtraction of the band from the rows on either side of ``v`` (the
shrink side: *every* such entry is dead) — no rebuild.

When constructed with a ``drift_threshold``, the index watches how far
each updated vertex's *degree rank* (its position under the paper's
``(d_in+1)·(d_out+1)`` order on **current** degrees) has drifted above
its frozen rank, and promotes it automatically once the drift exceeds
the threshold — the online answer to "the construction-time order goes
stale as the graph evolves and labels fatten".
"""

from __future__ import annotations

from typing import Iterable

from repro.core import tol
from repro.core.labels import ReachabilityIndex
from repro.errors import IndexAuditError
from repro.graph.digraph import DiGraph
from repro.graph.order import VertexOrder, degree_order

#: Update operations a :class:`DynamicReachabilityIndex` can apply and
#: notify listeners about, in ``(op, u, v)`` shape.  For ``add_node``
#: and ``delete_node`` both payload slots carry the vertex id; for
#: ``promote`` the payload is ``(vertex, new_rank)``.
UPDATE_OPS = ("insert", "delete", "add_node", "delete_node", "promote")


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
        if drift_threshold is not None and drift_threshold < 1:
            raise ValueError("drift_threshold must be >= 1 (or None)")
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
        self._listeners: list = []
        #: ``(above, below)`` of the last applied update: it changed at most
        #: ``out_labels[w]``, w ∈ above, and ``in_labels[w]``, w ∈ below.
        #: Deletes and promotes report their two cones; an insert reports
        #: exactly the rows it wrote; an insert or edge delete that leaves
        #: the transitive closure alone reports two empty sets.
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
        differing vertex and direction.  Costs one full TOL build;
        nothing on a mutation path calls it."""
        expected = tol.tol_label_sets(self.current_graph(), self._order)
        for w in range(self._n):
            for direction, live, want in zip(
                ("in", "out"), (self.in_labels, self.out_labels), expected
            ):
                if live[w] != want[w]:
                    raise IndexAuditError(w, direction, live[w], want[w])

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
        bounds the label rows the update changed (replication diffs it);
        an insert or edge delete that leaves the transitive closure
        alone still notifies, with ``touched == (set(), set())``.
        """
        self._listeners.append(listener)

    def unsubscribe(self, listener) -> None:
        """Remove a previously registered listener."""
        self._listeners.remove(listener)

    def _notify(self, op: str, u: int, v: int, above, below) -> None:
        self.touched = (above, below)
        for listener in self._listeners:
            listener(op, u, v)

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
        self._out_adj[u].add(v)
        self._in_adj[v].add(u)
        above, below = set(), set()  # the rows written, per direction
        # The labels are still the old, exact ones: when they say u reached
        # v already no pair gains a walk, and the write owes the index nothing.
        if self.out_labels[u].isdisjoint(self.in_labels[v]):
            # Best rank on any walk a ⇝ u / v ⇝ w; the key sets are the cones.
            top_above = self._rank_flood(self.in_labels[u], self._in_adj)
            top_below = self._rank_flood(self.out_labels[v], self._out_adj)
            # The hubs of u that stay hubs of u, and of v likewise: only their
            # entries between the cones survive, only they gain any.
            rank = self._rank
            hubs_above = [a for a in self.in_labels[u] if top_above[a] == rank[a]]
            hubs_below = [b for b in self.out_labels[v] if top_below[b] == rank[b]]
            # Both grows before either shrink: a grow's witness test reads
            # old entries of both directions, which a shrink may remove.
            self._grow(hubs_above, v, True, top_below, below)
            self._grow(hubs_below, u, False, top_above, above)
            self._shrink(self.in_labels, below, top_below, top_above, hubs_above)
            self._shrink(self.out_labels, above, top_above, top_below, hubs_below)
        self._notify("insert", u, v, above, below)
        self._check_drift(u, v)
        return True

    def _rank_flood(self, hubs: set[int], adjacency: list[set[int]]) -> dict[int, int]:
        """Flood from ``hubs`` in rank order, first assignment wins:
        ``top[w]`` is the best rank among the hubs that reach ``w``, and
        the dict lists its rows best rank first.  With ``hubs = L_out(v)``
        and the out-adjacency that is the best rank on any walk ``v ⇝ w``
        (the best vertex on those walks is itself a hub of ``v``), and
        the keys are ``v``'s whole cone."""
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

    def _grow(self, hubs, root: int, forward: bool, top: dict, written: set) -> None:
        """Walk each hub's pruned BFS on from ``root``, across the new
        edge, and add every entry it earns, naming the rows in
        ``written``.  A walk stops at a row some new walk outranks the
        hub in, at a row that holds the hub already (the hub reached it
        before, and everything behind it — which also makes the entry
        its own visited mark), and at a row holding one of the hub's
        higher-ranked witnesses (reached before, but not cleanly)."""
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
                row.add(hub)
                written.add(w)
                queue.extend(adjacency[w])

    def _shrink(self, labels, written: set[int], top: dict, cone: dict, keep) -> None:
        """Remove the entries between the cones that a new walk outranks:
        ``h ∈ cone`` leaves row ``w`` unless ``h`` is in ``keep`` (still a
        hub of the endpoint) and ``rank[h] <= top[w]``.  Rows come out of
        the flood best rank first, so the dead set only shrinks."""
        rank = self._rank
        keep = sorted(keep, key=rank.__getitem__, reverse=True)
        dead = set(cone)
        for w, best in top.items():
            while keep and rank[keep[-1]] <= best:
                dead.discard(keep.pop())
            stale = labels[w] & dead
            if stale:
                labels[w] -= stale
                written.add(w)

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete_edge(self, u: int, v: int) -> bool:
        """Delete ``(u, v)``; returns False if it was not present."""
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._out_adj[u]:
            return False
        self._out_adj[u].discard(v)
        self._in_adj[v].discard(u)
        if self._still_reaches(u, v):
            above, below = set(), set()
        else:
            # Only walks from above to below used the edge, and no walk into
            # u or out of v needs it: the cones read as before the unlink.
            above = self._plain_bfs(u, self._in_adj)   # everyone reaching u
            below = self._plain_bfs(v, self._out_adj)  # everyone v reaches
            self._repair_cones(above, below)
        self._notify("delete", u, v, above, below)
        self._check_drift(u, v)
        return True

    def _still_reaches(self, u: int, v: int) -> bool:
        """True if ``u ⇝ v`` on the current adjacency, decided while the
        labels are still exact for the graph *before* ``(u, v)`` was
        unlinked.  A depth-first search from ``u`` that steps only onto
        vertices the old labels say reach ``v``: every vertex of a
        surviving walk ``u ⇝ v`` reached ``v`` before as well, so none is
        pruned, and nothing outside the vertices between ``u`` and ``v``
        is visited.  Outside ``u``'s strongly connected component a step
        never has to be taken back (such an ``x`` reached ``v`` without
        passing ``u``, so it still does)."""
        out_adj, out_labels = self._out_adj, self.out_labels
        reaches_v = self.in_labels[v]
        visited = {u}
        stack = [iter(out_adj[u])]
        while stack:
            for x in stack[-1]:
                if x in visited or out_labels[x].isdisjoint(reaches_v):
                    continue
                if v in out_adj[x]:
                    return True
                visited.add(x)
                stack.append(iter(out_adj[x]))
                break
            else:
                stack.pop()
        return False

    def _repair_cones(self, above: set[int], below: set[int]) -> None:
        """Restore exactness after edges vanished between the cones
        ``above`` and ``below`` (taken on the pre-removal graph).
        Only entries ``a ∈ L_in(d)`` / ``d ∈ L_out(a)`` with ``a ∈ above``,
        ``d ∈ below`` can change.  Strip them, then let each cone hub
        re-decide its own in rank order, so every higher-ranked witness
        a domination test consults is final.
        """
        in_labels, out_labels, rank = self.in_labels, self.out_labels, self._rank
        out_adj, in_adj, pruned_bfs = self._out_adj, self._in_adj, tol.pruned_bfs
        for w in below:
            in_labels[w] -= above
        for w in above:
            out_labels[w] -= below
        # A vertex outside the opposite cone kept its entry status, so each
        # walk re-decides only the rows inside it; its witnesses are the hubs
        # ranked above it in its own opposite row.
        for hub in sorted(above | below, key=rank.__getitem__):
            hub_rank = rank[hub]
            if hub in above:
                witnesses = {h for h in out_labels[hub] if rank[h] < hub_rank}
                pruned_bfs(hub, out_adj, rank, in_labels, witnesses, below)
            if hub in below:
                witnesses = {h for h in in_labels[hub] if rank[h] < hub_rank}
                pruned_bfs(hub, in_adj, rank, out_labels, witnesses, above)

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
        self._n += 1
        self._alive.append(True)
        self._out_adj.append(set())
        self._in_adj.append(set())
        self.in_labels.append({v})
        self.out_labels.append({v})
        self._order = VertexOrder(list(self._order.by_rank()) + [v])
        self._rank = self._order.ranks
        self._notify("add_node", v, v, {v}, {v})
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
        # v's two cones on the OLD graph contain every incident edge's cones.
        above = self._plain_bfs(v, self._in_adj)   # everyone reaching v
        below = self._plain_bfs(v, self._out_adj)  # everyone v reaches
        for x in self._out_adj[v]:
            self._in_adj[x].discard(v)
        for x in self._in_adj[v]:
            self._out_adj[x].discard(v)
        self._out_adj[v].clear()
        self._in_adj[v].clear()
        self._alive[v] = False
        self._repair_cones(above, below)
        self._notify("delete_node", v, v, above, below)
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

        The rewrite exploits that a single hub-ward move changes the
        exact index in only two ways: ``v``'s own entries grow (it lost
        dominators), and entries of the **band** hubs it overtook die
        where ``v`` now dominates them (``h → v → w``).  So: shift
        the order, run one full pruned BFS pair from ``v`` under the
        new ranks, then subtract the band hubs that reach ``v`` from
        every row ``v`` reaches, and the mirror.  Every other entry is
        provably untouched.
        """
        self._check_vertex(v)
        if new_rank is None or new_rank < 0:
            new_rank = self._ideal_rank(v)
        old_rank = self._rank[v]
        if new_rank >= old_rank:
            return None
        by_rank = list(self._order.by_rank())
        del by_rank[old_rank]
        by_rank.insert(new_rank, v)
        self._order = VertexOrder(by_rank)
        self._rank = self._order.ranks
        # The band: hubs v overtook (their rank shifted down by one).
        band = set(by_rank[new_rank + 1 : old_rank + 1])

        forward_cone = self._plain_bfs(v, self._out_adj)
        backward_cone = self._plain_bfs(v, self._in_adj)
        # Grow side: v's own round under the new order, re-deciding every
        # row it can reach (no cone).  Exact because every witness it
        # consults is a hub still above v, whose entries the move did not
        # change — filtered by rank, because v's raw rows still hold the band.
        rank = self._rank
        for adjacency, labels, reverse_labels in (
            (self._out_adj, self.in_labels, self.out_labels),
            (self._in_adj, self.out_labels, self.in_labels),
        ):
            witnesses = {h for h in reverse_labels[v] if rank[h] < new_rank}
            tol.pruned_bfs(v, adjacency, rank, labels, witnesses)
        # Shrink side: an entry (h, w) with h in the band dies iff
        # h ⇝ v ⇝ w — that walk now passes the higher v.  No test.
        overtaken_above = band & backward_cone
        overtaken_below = band & forward_cone
        for w in forward_cone:
            self.in_labels[w] -= overtaken_above
        for w in backward_cone:
            self.out_labels[w] -= overtaken_below
        self._notify("promote", v, new_rank, backward_cone, forward_cone)
        return new_rank

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
        them)."""
        in_adj, out_adj = self._in_adj, self._out_adj
        key = (len(in_adj[v]) + 1) * (len(out_adj[v]) + 1)
        ahead = 0
        for w in range(self._n):
            product = (len(in_adj[w]) + 1) * (len(out_adj[w]) + 1)
            if product > key or (product == key and w > v):
                ahead += 1
        return ahead

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
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} out of range [0, {self._n})")
        if not self._alive[v]:
            raise ValueError(f"vertex {v} was deleted")

    def _plain_bfs(self, source: int, adjacency: list[set[int]]) -> set[int]:
        visited = {source}
        queue = [source]
        for w in queue:
            for x in adjacency[w]:
                if x not in visited:
                    visited.add(x)
                    queue.append(x)
        return visited
