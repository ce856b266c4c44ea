"""The vertex-centric programming interface (Section II-C of the paper).

A :class:`VertexProgram` is executed by the cluster engine in
super-steps: in each super-step every *active* vertex receives the
messages addressed to it in the previous super-step, updates its state,
and sends messages for the next super-step.  The computation ends when
no messages are in flight.

BSP discipline, enforced by convention
--------------------------------------
``compute(ctx, v, messages)`` may only touch state *owned by vertex v*
plus data that has been explicitly *published* (broadcast) at an earlier
barrier — exactly what a real vertex-centric system allows.  The engine
cannot stop a simulator program from peeking at other vertices' state,
but every algorithm in :mod:`repro.core` keeps a published/pending split
for shared structures so that remote reads always observe the previous
barrier's snapshot.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.graph.digraph import DiGraph

if TYPE_CHECKING:  # pragma: no cover
    from repro.pregel.engine import ComputeContext, FinalizeContext


def _copy_state(attrs: dict) -> dict:
    """Deep-copy an attribute dict, sharing (not copying) any graphs.

    Input graphs are immutable by convention and can be huge; the memo
    is pre-seeded with every :class:`DiGraph` reachable as a direct
    attribute (including via nested programs, which hold the same graph
    object), so ``deepcopy`` treats them as already-copied.
    """
    memo: dict[int, object] = {}
    stack = [attrs]
    while stack:
        current = stack.pop()
        for value in current.values():
            if isinstance(value, DiGraph):
                memo[id(value)] = value
            elif isinstance(value, VertexProgram):
                stack.append(vars(value))
    return copy.deepcopy(attrs, memo)


class VertexProgram(ABC):
    """User code run by the cluster engine."""

    #: Opt-in message combiner: when True, duplicate ``(destination,
    #: payload)`` messages sent from the same node within one super-step
    #: are dropped before they hit the network (Pregel's combiner).
    #: Only sound for programs whose message handling is idempotent.
    combine_duplicates: bool = False

    #: Opt-in for the multiprocessing engine (:mod:`repro.pregel.mp`).
    #: A program that sets this True promises that ``compute()`` for a
    #: vertex only writes state owned by that vertex's node (so state
    #: partitions cleanly across worker replicas), and implements
    #: :meth:`mp_collect` / :meth:`mp_merge` — plus
    #: :meth:`mp_publish_delta` / :meth:`mp_apply_published` if it keeps
    #: published (barrier-visible) shared structures.  Between two runs
    #: on the same workers it changes only through
    #: :meth:`~repro.pregel.engine.Cluster.rearm`.
    mp_supported: bool = False

    def initial_vertices(self, graph: DiGraph) -> Iterable[int]:
        """The vertices ``compute()`` runs on in super-step 1, ascending
        (default: all).  Naming the few that start anything makes the
        step cost what it touches; it still reports ``n`` active."""
        return graph.vertices()

    @abstractmethod
    def compute(self, ctx: "ComputeContext", vertex: int, messages: Sequence) -> None:
        """Process ``messages`` addressed to ``vertex`` and send new ones.

        In super-step 1 the :meth:`initial_vertices` are invoked with an
        empty message list (this is where sources start their traversals).
        """

    def on_barrier(self, superstep: int) -> None:
        """Called at every super-step barrier (publish shared snapshots)."""

    def snapshot(self) -> dict:
        """Checkpoint: a deep copy of the program's mutable state.

        The default copies every instance attribute except input graphs
        (shared, immutable by convention).  Programs with state that
        must not — or need not — be checkpointed can override this and
        :meth:`restore` as a pair.
        """
        return _copy_state(vars(self))

    def restore(self, state: dict) -> None:
        """Roll back to a :meth:`snapshot`.

        The snapshot is copied again on the way in so that it survives
        further mutation and can be restored more than once (repeated
        crashes between two checkpoints).
        """
        vars(self).clear()
        vars(self).update(_copy_state(state))

    def finalize(self, ctx: "FinalizeContext") -> None:
        """Called once after the message loop (e.g. Alg. 3 lines 19-20).

        The default delegates to :meth:`finalize_vertices` over every
        vertex; programs whose post-pass is per-vertex should override
        that instead so the multiprocessing engine can split the pass
        across workers.  Work must be charged through
        ``ctx.charge(vertex, units)`` so the post-pass appears in the
        cost accounting.
        """
        self.finalize_vertices(ctx, ctx.graph.vertices())

    def finalize_vertices(self, ctx: "FinalizeContext", vertices) -> None:
        """The per-vertex share of :meth:`finalize` (default: no work).

        ``vertices`` is an ascending iterable: all vertices under the
        simulator, one worker's owned vertices under the
        multiprocessing engine.  Must only touch state owned by those
        vertices (plus read-only shared structures)."""

    # -- multiprocessing-engine hooks ----------------------------------
    def mp_publish_delta(self):
        """This super-step's not-yet-published shared-state entries.

        Called on each worker after ``compute()``, before the barrier.
        Return ``None`` when the program keeps no published structures
        or nothing changed; otherwise any picklable value that
        :meth:`mp_apply_published` understands."""
        return None

    def mp_apply_published(self, delta) -> None:
        """Apply another replica's :meth:`mp_publish_delta` value.

        Called on every replica (master included) for *all* workers'
        deltas, in fixed worker order, immediately before
        ``on_barrier()`` — so it must be idempotent for entries the
        replica already holds (the producing worker receives its own
        delta back)."""

    def mp_collect(self, vertices):
        """Package the final state owned by ``vertices`` for the master.

        Called once per worker after :meth:`finalize_vertices`; the
        return value is pickled to the master and fed to
        :meth:`mp_merge` — and, before a next run on the same workers,
        to every worker's replica as well."""
        raise NotImplementedError(
            f"{type(self).__name__} sets mp_supported but does not "
            "implement mp_collect()"
        )

    def mp_merge(self, collected) -> None:
        """Fold one worker's :meth:`mp_collect` value into this replica.

        Called on the master in fixed worker order; afterwards the
        master's program state must equal a simulator run's.  Before a
        next run on the same workers every replica is fed all of them
        in the same order, its own included, and must end equal to the
        master."""
        raise NotImplementedError(
            f"{type(self).__name__} sets mp_supported but does not "
            "implement mp_merge()"
        )
