"""Stateful property test: the dynamic index as a state machine.

Hypothesis drives arbitrary interleavings of edge insertions/deletions,
node additions/deletions, order upgrades (explicit promotes plus
drift-triggered automatic ones), and queries against a model (rebuilt
TOL + exact reachability) and shrinks any failing interleaving to a
minimal counterexample.  The invariant is the repo's dynamic contract:
after every step, ``snapshot() == tol_index(current_graph, order)``
for the index's *current* order — and an edge write reports no touched
rows exactly when that index did not move (the closure-preserving fast
path is taken whenever it may be, never otherwise).
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.baselines.transitive_closure import TransitiveClosure
from repro.core.dynamic import DynamicReachabilityIndex
from repro.core.tol import tol_index
from repro.graph.digraph import DiGraph

_N = 8
_RAW = st.integers(min_value=0, max_value=31)


class DynamicIndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # A small drift threshold so automatic promotions fire
        # organically inside the interleavings under test.
        self.dynamic = DynamicReachabilityIndex(
            DiGraph(_N, []), drift_threshold=3
        )
        self.n = _N
        self.dead: set[int] = set()
        self.edges: set[tuple[int, int]] = set()
        self.previous = self.dynamic.snapshot()  # the index one step back
        self.edge_write = False  # last step: an applied edge write, no promote

    def _vertex(self, raw: int) -> int:
        """Map a raw draw onto a currently alive vertex id."""
        alive = [v for v in range(self.n) if v not in self.dead]
        return alive[raw % len(alive)]

    @rule(u=_RAW, v=_RAW)
    def insert(self, u, v):
        u, v = self._vertex(u), self._vertex(v)
        if u == v:
            return
        order = self.dynamic.order
        added = self.dynamic.insert_edge(u, v)
        assert added == ((u, v) not in self.edges)
        self.edge_write = added and self.dynamic.order is order
        self.edges.add((u, v))

    @rule(u=_RAW, v=_RAW)
    def delete(self, u, v):
        u, v = self._vertex(u), self._vertex(v)
        if u == v:
            return
        order = self.dynamic.order
        removed = self.dynamic.delete_edge(u, v)
        assert removed == ((u, v) in self.edges)
        self.edge_write = removed and self.dynamic.order is order
        self.edges.discard((u, v))

    @rule()
    def add_node(self):
        v = self.dynamic.add_node()
        assert v == self.n  # ids are dense and never recycled
        self.n += 1

    @rule(raw=_RAW)
    def delete_node(self, raw):
        if self.n - len(self.dead) <= 2:
            return
        v = self._vertex(raw)
        assert self.dynamic.delete_node(v)
        self.dead.add(v)
        self.edges = {(a, b) for a, b in self.edges if v not in (a, b)}

    @rule(raw=_RAW)
    def promote(self, raw):
        v = self._vertex(raw)
        new_rank = self.dynamic.promote(v)
        if new_rank is not None:
            assert self.dynamic.order.ranks[v] == new_rank

    @rule(s=_RAW, t=_RAW)
    def query(self, s, t):
        s, t = self._vertex(s), self._vertex(t)
        oracle = TransitiveClosure(DiGraph(self.n, sorted(self.edges)))
        assert self.dynamic.query(s, t) == oracle.query(s, t)

    @invariant()
    def index_is_exactly_tol(self):
        graph = DiGraph(self.n, sorted(self.edges))
        assert self.dynamic.snapshot() == tol_index(graph, self.dynamic.order)

    @invariant()
    def edge_write_skips_the_repair_iff_the_index_stands(self):
        snapshot = self.dynamic.snapshot()
        if self.edge_write:
            skipped = self.dynamic.touched == (set(), set())
            assert skipped == (snapshot == self.previous)
        self.previous, self.edge_write = snapshot, False


DynamicIndexMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=20, deadline=None
)
TestDynamicIndexMachine = DynamicIndexMachine.TestCase
