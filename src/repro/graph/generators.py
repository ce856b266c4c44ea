"""Seeded synthetic graph generators.

These stand in for the paper's 18 real datasets (Table V).  Each
generator targets one topology class from the table's "Type" column:

- :func:`web_graph` — Web (copy/evolving model with a bow-tie core),
- :func:`social_graph` — Social (directed preferential attachment),
- :func:`citation_graph` — Citation (time-layered, acyclic),
- :func:`knowledge_graph` — Knowledge (typed hub/entity layers),
- :func:`kronecker_graph` — Synthetic (Graph500 R-MAT),
- :func:`gn_graph`, :func:`random_digraph`, :func:`random_dag` — generic.

Every generator is deterministic for a fixed seed.
:func:`paper_example_graph` reproduces Fig. 1 of the paper exactly.
"""

from __future__ import annotations

import random

from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph
from repro.graph.order import VertexOrder

# Edges of the paper's running example (Fig. 1), 0-indexed: the paper's
# vertex v_i is our vertex i-1.  The set is reconstructed from the
# paper's worked examples: N_in/N_out of v2 (Example 1), v3's and v4's
# out-neighbors and BFS_low/BFS_hig(v3) (Example 8), DES/ANC facts
# (Examples 1, 4, 7), and the degree products behind ord(v1) = 12.08 and
# ord(v10) = 2.83 (Example 3).  With these 15 edges every quoted fact
# and both Table II and Table III check out.
_PAPER_EXAMPLE_EDGES_1INDEXED = [
    (6, 2),
    (2, 1),
    (2, 3),
    (2, 4),
    (2, 5),
    (3, 1),
    (3, 4),
    (3, 10),
    (4, 6),
    (4, 11),
    (1, 5),
    (1, 8),
    (5, 7),
    (7, 1),
    (8, 9),
]


def paper_example_graph() -> DiGraph:
    """The 11-vertex, 15-edge graph of Fig. 1 (0-indexed vertices)."""
    edges = [(u - 1, v - 1) for u, v in _PAPER_EXAMPLE_EDGES_1INDEXED]
    return DiGraph(11, edges)


def paper_example_order() -> VertexOrder:
    """The order used throughout the paper's examples: v1 > v2 > ... > v11.

    The running example assumes orders decrease with the subscript (see
    Examples 4, 8 and 12); the degree formula of Example 3 is a separate
    heuristic and does not reproduce that exact ranking on Fig. 1.
    """
    return VertexOrder(list(range(11)))


def random_digraph(n: int, m: int, seed: int = 0) -> DiGraph:
    """Uniform random simple digraph ``G(n, m)`` without self-loops."""
    max_edges = n * (n - 1)
    if m > max_edges:
        raise ValueError(f"cannot place {m} simple edges on {n} vertices")
    rng = random.Random(seed)
    builder = GraphBuilder(num_vertices=n)
    while builder.num_edges < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        builder.add_edge(u, v)
    return builder.build()


def random_dag(n: int, m: int, seed: int = 0) -> DiGraph:
    """Uniform random DAG: edges always point from lower to higher rank
    of a random permutation."""
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise ValueError(f"cannot place {m} DAG edges on {n} vertices")
    rng = random.Random(seed)
    topo = list(range(n))
    rng.shuffle(topo)
    position = [0] * n
    for i, v in enumerate(topo):
        position[v] = i
    builder = GraphBuilder(num_vertices=n)
    while builder.num_edges < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        if position[u] > position[v]:
            u, v = v, u
        builder.add_edge(u, v)
    return builder.build()


def gn_graph(n: int, seed: int = 0, redirect: float = 0.3) -> DiGraph:
    """Growing network: each new vertex links to one earlier vertex,
    chosen uniformly but redirected to that vertex's target with
    probability ``redirect`` (Krapivsky-Redner), yielding power-law
    in-degrees."""
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)
    builder = GraphBuilder(num_vertices=n)
    target_of = [0] * n
    for v in range(1, n):
        t = rng.randrange(v)
        if rng.random() < redirect:
            t = target_of[t]
        builder.add_edge(v, t)
        target_of[v] = t
    return builder.build()


def social_graph(
    n: int, avg_out_degree: float = 4.0, seed: int = 0, reciprocity: float = 0.25
) -> DiGraph:
    """Directed preferential-attachment graph (Twitter/Weibo stand-in).

    New vertices follow existing vertices with probability proportional
    to in-degree + 1; a followed vertex follows back with probability
    ``reciprocity``, creating the cycles typical of social graphs.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    rng = random.Random(seed)
    builder = GraphBuilder(num_vertices=n)
    # Repeated-vertex list implements preferential attachment in O(1).
    attractor_pool = [0]
    builder.add_edge(1, 0)
    attractor_pool.extend((0, 1))
    for v in range(2, n):
        links = max(1, round(rng.gauss(avg_out_degree, avg_out_degree / 3)))
        links = min(links, v)
        chosen: set[int] = set()
        while len(chosen) < links:
            t = attractor_pool[rng.randrange(len(attractor_pool))]
            if t != v:
                chosen.add(t)
        for t in chosen:
            builder.add_edge(v, t)
            attractor_pool.append(t)
            if rng.random() < reciprocity:
                builder.add_edge(t, v)
        attractor_pool.append(v)
    return builder.build()


def web_graph(n: int, seed: int = 0, copy_prob: float = 0.6, out_links: int = 5) -> DiGraph:
    """Evolving copy-model web graph (SK / UK / webbase stand-in).

    Each new page picks a random prototype page, copies each of the
    prototype's out-links with probability ``copy_prob``, links to the
    prototype itself, and adds uniform random links up to ``out_links``.
    A small fraction of back-links creates the bow-tie's strongly
    connected core.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    rng = random.Random(seed)
    builder = GraphBuilder(num_vertices=n)
    out_adj: list[list[int]] = [[] for _ in range(n)]

    def link(u: int, v: int) -> None:
        if u != v and v not in out_adj[u]:
            out_adj[u].append(v)
            builder.add_edge(u, v)

    link(0, 1)
    link(1, 0)
    for v in range(2, n):
        prototype = rng.randrange(v)
        link(v, prototype)
        for t in list(out_adj[prototype]):
            if rng.random() < copy_prob:
                link(v, t)
        while len(out_adj[v]) < out_links and len(out_adj[v]) < v:
            link(v, rng.randrange(v))
        # Occasional back-link from an old page to the new page keeps a
        # strongly connected core growing, as in real web crawls.
        if rng.random() < 0.15:
            link(rng.randrange(v), v)
    return builder.build()


def citation_graph(n: int, avg_refs: float = 4.0, seed: int = 0) -> DiGraph:
    """Time-layered citation DAG (citeseerx / cit-patent stand-in).

    Paper ``v`` cites earlier papers, preferring recent and highly cited
    ones.  The result is acyclic, like (cleaned) citation networks.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    rng = random.Random(seed)
    builder = GraphBuilder(num_vertices=n)
    pool = [0]
    for v in range(1, n):
        refs = max(1, round(rng.gauss(avg_refs, avg_refs / 3)))
        refs = min(refs, v)
        chosen: set[int] = set()
        while len(chosen) < refs:
            if rng.random() < 0.5:
                t = pool[rng.randrange(len(pool))]  # preferential
            else:
                # Recency bias: prefer recent papers.
                t = v - 1 - min(int(rng.expovariate(8.0 / v)), v - 1)
            if t < v:
                chosen.add(t)
        for t in chosen:
            builder.add_edge(v, t)
            pool.append(t)
        pool.append(v)
    return builder.build()


def knowledge_graph(
    n: int,
    seed: int = 0,
    num_categories: int | None = None,
    back_link: float = 0.0,
) -> DiGraph:
    """Typed entity/category graph (DBpedia / Go-uniprot stand-in).

    A small set of category vertices forms a shallow hierarchy; entity
    vertices point at a handful of categories and at a few related
    entities, producing the very flat, hub-dominated reachability
    structure of knowledge bases.  ``back_link`` adds category→entity
    edges with that probability per entity, creating the large cyclic
    cores of encyclopedic knowledge graphs (DBpedia's wiki-links).
    """
    if n < 4:
        raise ValueError("need at least four vertices")
    rng = random.Random(seed)
    if num_categories is None:
        num_categories = max(2, int(n**0.5) // 2)
    builder = GraphBuilder(num_vertices=n)
    # Category hierarchy: category c points to a random parent category.
    for c in range(1, num_categories):
        builder.add_edge(c, rng.randrange(c))
    for v in range(num_categories, n):
        for _ in range(rng.randint(1, 3)):
            builder.add_edge(v, rng.randrange(num_categories))
        if v > num_categories and rng.random() < 0.5:
            builder.add_edge(v, rng.randrange(num_categories, v))
        if back_link and rng.random() < back_link:
            builder.add_edge(rng.randrange(num_categories), v)
    return builder.build()


def lattice_graph(
    rows: int, cols: int, wrap: bool = False, diagonal_prob: float = 0.0, seed: int = 0
) -> DiGraph:
    """Directed grid lattice: edges point right and down.

    Lattices are the adversarial opposite of the power-law families:
    no hubs, maximal label sizes per vertex, and reachability that is
    exactly the "south-east cone" of each cell — a worst case for
    2-hop pruning.  ``wrap=True`` closes both axes into a torus, which
    collapses the graph into one giant SCC; ``diagonal_prob`` adds
    random down-right diagonals to break the regular structure.
    """
    if rows < 1 or cols < 1:
        raise ValueError("lattice needs at least one row and one column")
    rng = random.Random(seed)
    n = rows * cols
    builder = GraphBuilder(num_vertices=n)

    def vid(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                builder.add_edge(vid(r, c), vid(r, c + 1))
            elif wrap and cols > 1:
                builder.add_edge(vid(r, c), vid(r, 0))
            if r + 1 < rows:
                builder.add_edge(vid(r, c), vid(r + 1, c))
            elif wrap and rows > 1:
                builder.add_edge(vid(r, c), vid(0, c))
            if (
                diagonal_prob
                and r + 1 < rows
                and c + 1 < cols
                and rng.random() < diagonal_prob
            ):
                builder.add_edge(vid(r, c), vid(r + 1, c + 1))
    return builder.build()


def scc_heavy_graph(n: int, seed: int = 0) -> DiGraph:
    """Graph dominated by non-trivial SCCs (condensation stress test).

    Vertices are grouped into components of geometric size around 4;
    each component is closed into a directed cycle (so every member
    reaches every other), then 1.5 × #components bridge edges are
    added from earlier components to later ones,
    keeping the component DAG acyclic while the inside stays maximally
    cyclic.  Exercises exactly the paths the paper's direct (no
    condensation) approach must get right on cyclic inputs.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    rng = random.Random(seed)
    builder = GraphBuilder(num_vertices=n)
    components: list[list[int]] = []
    v = 0
    while v < n:
        size = min(n - v, max(1, int(rng.expovariate(1.0 / 4.0)) + 1))
        components.append(list(range(v, v + size)))
        v += size
    for members in components:
        if len(members) > 1:
            for a, b in zip(members, members[1:]):
                builder.add_edge(a, b)
            builder.add_edge(members[-1], members[0])
    bridges = int(1.5 * len(components))
    for _ in range(bridges):
        if len(components) < 2:
            break
        i = rng.randrange(len(components) - 1)
        j = rng.randrange(i + 1, len(components))
        builder.add_edge(
            rng.choice(components[i]), rng.choice(components[j])
        )
    return builder.build()


def kronecker_graph(
    scale: int,
    edge_factor: int = 16,
    seed: int = 0,
    initiator: tuple[float, float, float, float] = (0.57, 0.19, 0.19, 0.05),
) -> DiGraph:
    """R-MAT / Graph500-style Kronecker graph (GRPH stand-in).

    ``2**scale`` vertices and ``edge_factor * 2**scale`` sampled edges;
    duplicates and self-loops are dropped, as Graph500 kernels do before
    building CSR.
    """
    if scale < 1:
        raise ValueError("scale must be at least 1")
    a, b, c, d = initiator
    if abs(a + b + c + d - 1.0) > 1e-9:
        raise ValueError("initiator probabilities must sum to 1")
    rng = random.Random(seed)
    n = 1 << scale
    builder = GraphBuilder(num_vertices=n)
    for _ in range(edge_factor * n):
        u = v = 0
        for _level in range(scale):
            r = rng.random()
            u <<= 1
            v <<= 1
            if r < a:
                pass
            elif r < a + b:
                v |= 1
            elif r < a + b + c:
                u |= 1
            else:
                u |= 1
                v |= 1
        builder.add_edge(u, v)
    return builder.build()


#: Named graph kinds: ``name -> factory(n, seed=...)``.  The single
#: registry behind ``repro generate --kind``, ``repro serve-bench``,
#: and the scenario format's ``graph.kind`` field.
GRAPH_KINDS = {
    "web": web_graph,
    "social": social_graph,
    "citation": citation_graph,
    "knowledge": knowledge_graph,
    "random": lambda n, seed=0: random_digraph(n, 4 * n, seed=seed),
    "dag": lambda n, seed=0: random_dag(n, 3 * n, seed=seed),
}
