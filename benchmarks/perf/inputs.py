"""The four workloads and their set-up.

A workload is one set of inputs: a graph, the read streams over it and
a write stream.  Every workload is driven through the whole path a user
walks — edge list → build → save → load → query → serve → mutate — so
every end-to-end metric is reported on every workload; what differs is
the input property each one varies, which decides where its time goes
(see ``WORKLOADS`` and the ``why`` of each in ``BENCHMARK.json``).

Inputs come from ``--seed`` alone, but not everything is redrawn.  What
is *fixed* per workload (drawn once, with :data:`TOPOLOGY_SEED`): the
graph's topology, because label counts swing ±15 % between generator
seeds; the write stream, because single writes differ tenfold in cost
and a few dozen cannot average that out (±50 % between streams); and the
Zipf streams' popularity, because the few hot vertices' label sizes set
the miss cost.  What the run seed draws: the *names* of the vertices —
so hash partitioning, shard placement, file order and every id the
program sees change, while the index stays the same up to the renaming
and its size stays exact — and the uniform stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.labels import ReachabilityIndex
from repro.core.tol import tol_index
from repro.graph.digraph import DiGraph
from repro.graph.generators import citation_graph, web_graph
from repro.graph.io import write_edge_list
from repro.workloads.queries import random_pairs
from repro.workloads.traffic import poisson_arrivals, zipf_pairs
from repro.workloads.updates import mixed_update_stream

from checks import answers_of, ground_truth_rows

#: Generator seed of every topology (the paper's conference year and month).
TOPOLOGY_SEED = 202205
FAMILIES = {"web": web_graph, "cit": citation_graph}

ZIPF_SKEW = 1.4
#: Simulated arrival rates of the mixed run, requests per simulated second.
MIXED_READ_RATE = 200_000.0
MIXED_WRITE_RATE = 20_000.0
READS_PER_WRITE = 100


@dataclass(frozen=True)
class Workload:
    """One set of inputs; stream lengths are per repetition."""

    name: str
    family: str
    vertices: int
    reads: int          # length of the uniform and of the Zipf stream
    #: Writes per repetition, with 100 interleaved Zipf reads per write
    #: in the mixed run.  At least 20, so that 20 x k >= 10 repetitions
    #: leave ten samples beyond the 95th percentile; no more on the
    #: citation graphs, where later writes cost tens of milliseconds.
    writes: int
    insert_ratio: float = 1.0
    node_ratio: float = 0.0
    promote_ratio: float = 0.05

    def scaled(self, scale: float) -> "Workload":
        """The same workload at ``scale`` times the size (the smoke test)."""
        if scale == 1.0:
            return self
        return replace(
            self,
            vertices=max(60, int(self.vertices * scale)),
            reads=max(400, int(self.reads * scale)),
            writes=max(6, int(self.writes * scale)),
        )


#: Writes that only grow reachability are maintained incrementally
#: (about a millisecond each); deletions fall back to a full rebuild.
#: Only ``serve_mixed`` deletes, so the other three bypass that path.
WORKLOADS = {
    w.name: w
    for w in (
        # Copy-model web graph, ~4 label entries per vertex: builds are
        # Pregel per-message and per-superstep overhead, queries short merges.
        Workload(
            name="build_web",
            family="web", vertices=2000, reads=50000, writes=40,
        ),
        # Citation DAG, ~30 label entries per vertex: the same builders,
        # dominated by label merging and index assembly instead of messages.
        Workload(
            name="build_cit",
            family="cit", vertices=1200, reads=15000, writes=20,
        ),
        # Long read streams over a deep-label index: the Zipf stream lives in
        # the cache (cache + pipeline cost), the uniform one never hits
        # (store + labels cost).
        Workload(
            name="serve_read",
            family="cit", vertices=600, reads=80000, writes=20,
        ),
        # Delete-heavy writes beside reads: every delete rebuilds the index on
        # the leader and on each follower, so write cost sets the rate.
        Workload(
            name="serve_mixed",
            family="web", vertices=1000, reads=40000, writes=40,
            insert_ratio=0.5, node_ratio=0.1,
        ),
    )
}


@dataclass
class Inputs:
    """Everything set-up makes; nothing here is timed afterwards."""

    workload: Workload
    seed: int
    graph: DiGraph
    edge_file: Path
    reference: ReachabilityIndex      # TOL's index of `graph`
    reference_file: Path              # its v1 file
    uniform: list[tuple[int, int]]
    uniform_answers: list[bool]       # raw-index answer vector
    zipf: list[tuple[int, int]]
    zipf_answers: list[bool]
    mixed_reads: list[tuple[int, int]]
    mixed_arrivals: list[float]
    mutations: list[tuple[str, int, int]]
    mutation_arrivals: list[float]
    truth_rows: list[tuple[int, set[int]]]


def renaming(graph: DiGraph, seed: int) -> list[int]:
    """A permutation of the vertex ids drawn from ``seed``: old → new.

    ``degree_order`` breaks degree ties by id, so a free permutation
    would reshuffle the order and change the labels.  Within each class
    of equal degree product the new ids are therefore handed out in the
    old id order: the renamed graph has the same order, hence the same
    index up to the renaming and exactly as many label entries.
    """
    n = graph.num_vertices
    names = list(range(n))
    random.Random(seed).shuffle(names)
    classes: dict[int, list[int]] = {}
    for v in range(n):
        key = (graph.in_degree(v) + 1) * (graph.out_degree(v) + 1)
        classes.setdefault(key, []).append(v)
    for members in classes.values():
        for v, name in zip(members, sorted(names[v] for v in members)):
            names[v] = name
    return names


def renamed(graph: DiGraph, names: list[int]) -> DiGraph:
    return DiGraph(graph.num_vertices, [(names[u], names[v]) for u, v in graph.edges()])


def set_up(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Make the inputs of one run: graph, files, streams, ground truth."""
    n = workload.vertices
    base = FAMILIES[workload.family](n, seed=TOPOLOGY_SEED)
    names = renaming(base, seed)

    def named(v: int) -> int:
        return names[v] if v < n else v  # vertices a write adds keep their id

    graph = renamed(base, names)
    edge_file = directory / "graph.txt"
    write_edge_list(graph, edge_file)
    reference = tol_index(graph)
    reference_file = directory / "reference.idx"
    reference.save(reference_file)
    uniform = random_pairs(n, workload.reads, seed=seed)

    def zipf_stream(count: int, stream_seed: int) -> list[tuple[int, int]]:
        pairs = zipf_pairs(n, count, seed=stream_seed, skew=ZIPF_SKEW)
        return [(names[s], names[t]) for s, t in pairs]

    zipf = zipf_stream(workload.reads, TOPOLOGY_SEED)
    mixed_reads = READS_PER_WRITE * workload.writes
    writes = mixed_update_stream(
        base,
        workload.writes,
        insert_ratio=workload.insert_ratio,
        node_ratio=workload.node_ratio,
        promote_ratio=workload.promote_ratio,
        seed=TOPOLOGY_SEED,
    )
    return Inputs(
        workload=workload,
        seed=seed,
        graph=graph,
        edge_file=edge_file,
        reference=reference,
        reference_file=reference_file,
        uniform=uniform,
        uniform_answers=answers_of(reference.query, uniform),
        zipf=zipf,
        zipf_answers=answers_of(reference.query, zipf),
        mixed_reads=zipf_stream(mixed_reads, TOPOLOGY_SEED + 2),
        mixed_arrivals=poisson_arrivals(mixed_reads, MIXED_READ_RATE, seed=seed + 1),
        mutations=[
            (op, named(u), v if op == "promote" else named(v)) for op, u, v in writes
        ],
        mutation_arrivals=poisson_arrivals(workload.writes, MIXED_WRITE_RATE, seed=seed + 2),
        truth_rows=ground_truth_rows(graph, seed + 3),
    )
