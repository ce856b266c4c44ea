"""The correctness gate: what counts as an operation, and when it fails.

Every workload counts the operations it attempts (builds, loads,
queries, served requests, mutations) and the ones that fail.  An
operation fails when a built or loaded index is not TOL's, an index
file is not byte-identical to the reference, an answer differs from
the BFS ground truth or from the raw-index answer vector, a request is
shed, dropped or failed, a mutation is rejected or leaves the leader
different from a rebuild, or a shared-memory segment survives an mp
build.

Counts the cost model makes (hit rates, batches, messages, simulated
seconds) go to the *exact-repeat ledger*: they must repeat bit-for-bit
on every repetition and between the engines, and a mismatch is
reported as "behaviour changed", never as a slowdown.
"""

from __future__ import annotations

import random

from repro.graph.traversal import reachable_set

GROUND_TRUTH_SOURCES = 50


class Checker:
    """Operations attempted / failed, named failures, and the ledger."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counts: dict[str, object] = {}

    def require(self, name: str, ok: bool, ops: int = 1) -> None:
        """``ops`` operations stand or fall with the condition ``ok``."""
        self.record(name, ops, 0 if ok else ops)

    def record(self, name: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        if failed:
            self.failed += failed
            if name not in self.failures:
                self.failures.append(name)

    def exact(self, name: str, value) -> None:
        """Ledger entry: the first value is kept, later ones must equal it."""
        if name not in self.counts:
            self.counts[name] = value
        elif self.counts[name] != value:
            self.record(
                f"behaviour changed: {name} was {self.counts[name]!r}, now {value!r}",
                1,
                1,
            )

    @property
    def correct(self) -> bool:
        return self.failed == 0


def answers_of(query, pairs) -> list[bool]:
    """The answer vector of ``query(s, t)`` over a stream."""
    return [query(s, t) for s, t in pairs]


def mismatches(answers, reference) -> int:
    """How many answers differ from the reference vector."""
    if len(answers) != len(reference):
        return max(len(answers), len(reference))
    return sum(1 for got, want in zip(answers, reference) if got != want)


def ground_truth_rows(graph, seed: int) -> list[tuple[int, set[int]]]:
    """BFS reachability rows of seeded sources: ``(s, {t : s → t})``."""
    rng = random.Random(seed)
    sources = rng.sample(range(graph.num_vertices), min(GROUND_TRUTH_SOURCES, graph.num_vertices))
    return [(s, reachable_set(graph, s)) for s in sources]


def check_ground_truth(check: Checker, name: str, query, rows, num_vertices: int) -> None:
    """Every ``(s, t)`` of the ground-truth rows, through ``query``."""
    wrong = 0
    for s, reachable in rows:
        for t in range(num_vertices):
            if query(s, t) != (t in reachable):
                wrong += 1
    check.record(name, len(rows) * num_vertices, wrong)
