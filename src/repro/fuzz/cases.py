"""Fuzz-case generation: graph families × build configurations.

A :class:`FuzzCase` is everything needed to reproduce one differential
check: a graph (either regenerated from ``(family, num_vertices,
seed)`` or pinned as an explicit edge list after shrinking), the
cluster/batch configuration every builder runs under, and an
optional edge-update workload for the dynamic oracle.  Cases serialize
to plain JSON so a failing case becomes a one-file repro.

Generation is fully deterministic: ``generate_cases(seed=s, ...)``
returns the same case list on every machine and run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields, replace
from itertools import count as count_from_zero
from itertools import islice
from pathlib import Path
from typing import Iterator, Sequence

from repro.errors import ReproError
from repro.graph import generators
from repro.graph.digraph import DiGraph
from repro.graph.partition import PARTITIONER_STRATEGIES, Partitioner
from repro.workloads.updates import UpdateOp, mixed_update_stream


class FuzzCaseError(ReproError):
    """A case or repro file that does not describe a :class:`FuzzCase`."""


#: The sampled graph families; each stresses a different index regime.
FAMILIES = ("dag", "cyclic", "scc-heavy", "power-law", "lattice")


def family_graph(family: str, num_vertices: int, seed: int) -> DiGraph:
    """Deterministically generate one graph of ``family``.

    - ``dag`` — layered citation DAG (deep, acyclic),
    - ``cyclic`` — uniform random digraph (small sparse cycles),
    - ``scc-heavy`` — cycle components bridged into a DAG of SCCs,
    - ``power-law`` — directed preferential attachment (hub-dominated),
    - ``lattice`` — directed grid (hub-free, worst case for pruning;
      odd seeds wrap into a torus, i.e. one giant SCC).
    """
    n = max(num_vertices, 4)
    if family == "dag":
        return generators.citation_graph(n, avg_refs=2.5, seed=seed)
    if family == "cyclic":
        m = min(2 * n, n * (n - 1))
        return generators.random_digraph(n, m, seed=seed)
    if family == "scc-heavy":
        return generators.scc_heavy_graph(n, seed=seed)
    if family == "power-law":
        return generators.social_graph(n, avg_out_degree=3.0, seed=seed)
    if family == "lattice":
        rows = max(2, int(n**0.5))
        cols = max(2, -(-n // rows))
        return generators.lattice_graph(
            rows, cols, wrap=bool(seed % 2), diagonal_prob=0.25, seed=seed
        )
    raise ValueError(
        f"unknown graph family {family!r}; choose from {', '.join(FAMILIES)}"
    )


@dataclass(frozen=True)
class FuzzCase:
    """One differential-testing case (immutable; shrinking copies).

    ``edges`` is ``None`` for generated cases (the graph comes from
    ``family_graph(family, num_vertices, seed)``) and an explicit edge
    list once a case has been pinned for shrinking or replay.
    """

    case_id: int
    family: str
    seed: int
    num_vertices: int
    edges: tuple[tuple[int, int], ...] | None = None
    num_nodes: int = 4
    partitioner: str = "hash"
    batch_size: float = 2
    growth_factor: float = 2.0
    updates: tuple[UpdateOp, ...] = ()
    query_sample: int = 150
    #: Execution engine to cross-check: ``"sim"`` runs everything on the
    #: simulator; ``"mp"`` additionally builds each label method on the
    #: multiprocessing engine and diffs the indexes (the
    #: ``engine-mismatch`` oracle).
    engine: str = "sim"

    # ------------------------------------------------------------------
    def graph(self) -> DiGraph:
        """The case's graph (regenerated or from pinned edges)."""
        if self.edges is not None:
            return DiGraph(self.num_vertices, list(self.edges))
        return family_graph(self.family, self.num_vertices, self.seed)

    def concretize(self) -> "FuzzCase":
        """Pin the generated graph as an explicit edge list.

        The shrinker and the repro files both work on concrete cases so
        a reduced case no longer depends on generator internals.
        """
        if self.edges is not None:
            return self
        graph = self.graph()
        return replace(
            self,
            num_vertices=graph.num_vertices,
            edges=tuple(graph.edges()),
        )

    def make_partitioner(self, num_vertices: int) -> Partitioner:
        """Instantiate the configured partitioner for this case."""
        try:
            factory = PARTITIONER_STRATEGIES[self.partitioner]
        except KeyError:
            known = ", ".join(sorted(PARTITIONER_STRATEGIES))
            raise ValueError(
                f"unknown partitioner {self.partitioner!r}; one of: {known}"
            )
        return factory(self.num_nodes, num_vertices)

    def describe(self) -> str:
        """One-line summary for logs and the campaign table."""
        graph = self.graph()
        bits = [
            f"case {self.case_id}",
            f"{self.family}",
            f"n={graph.num_vertices} m={graph.num_edges}",
            f"nodes={self.num_nodes}",
            f"part={self.partitioner}",
            f"b={self.batch_size:g} k={self.growth_factor:g}",
        ]
        if self.updates:
            bits.append(f"updates={len(self.updates)}")
        if self.engine != "sim":
            bits.append(f"engine={self.engine}")
        return " ".join(bits)

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return {
            "case_id": self.case_id,
            "family": self.family,
            "seed": self.seed,
            "num_vertices": self.num_vertices,
            "edges": None if self.edges is None else [list(e) for e in self.edges],
            "num_nodes": self.num_nodes,
            "partitioner": self.partitioner,
            "batch_size": self.batch_size,
            "growth_factor": self.growth_factor,
            "updates": [[op, u, v] for op, u, v in self.updates],
            "query_sample": self.query_sample,
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzCase":
        """Rebuild a case from :meth:`to_dict` output;
        :class:`FuzzCaseError` on anything else."""
        if not isinstance(data, dict):
            raise FuzzCaseError(
                f"a fuzz case is a JSON object, not {type(data).__name__}"
            )
        known = {field.name for field in fields(cls)}
        for key, value in data.items():
            if key not in known and value is not None:
                raise FuzzCaseError(
                    f"the case sets {key!r}, which no fuzz case has (fault "
                    "plans and checkpoint intervals went with the simulated "
                    "build-fault layer); it cannot replay as it ran"
                )
        try:
            edges = data.get("edges")
            return cls(
                case_id=int(data["case_id"]),
                family=data["family"],
                seed=int(data["seed"]),
                num_vertices=int(data["num_vertices"]),
                edges=(
                    None
                    if edges is None
                    else tuple((int(u), int(v)) for u, v in edges)
                ),
                num_nodes=int(data.get("num_nodes", 4)),
                partitioner=data.get("partitioner", "hash"),
                batch_size=float(data.get("batch_size", 2)),
                growth_factor=float(data.get("growth_factor", 2.0)),
                updates=tuple(
                    (op, int(u), int(v)) for op, u, v in data.get("updates", ())
                ),
                query_sample=int(data.get("query_sample", 150)),
                engine=data.get("engine", "sim"),
            )
        except KeyError as exc:
            raise FuzzCaseError(f"the case has no {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise FuzzCaseError(f"bad fuzz case: {exc}") from None

    def save(self, path: str | Path) -> None:
        """Write the case as a standalone JSON file."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "FuzzCase":
        """Read a case written by :meth:`save` (or a repro file's
        ``case`` field — see :func:`repro.fuzz.runner.load_failure`)."""
        data = read_json(path)
        if isinstance(data, dict) and "case" in data:  # a failure repro file
            data = data["case"]
        return cls.from_dict(data)


def read_json(path: str | Path):
    """The JSON value in ``path``; :class:`FuzzCaseError` when the file
    holds no JSON."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise FuzzCaseError(f"{path} is not a JSON file: {exc}") from None


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def _case_iter(
    seed: int = 0,
    families: Sequence[str] | None = None,
    min_vertices: int = 4,
    max_vertices: int = 26,
) -> Iterator[FuzzCase]:
    """The infinite deterministic case stream behind :func:`generate_cases`.

    One RNG drives the whole stream, so a prefix of the stream is the
    same regardless of how many cases are ultimately consumed — a
    time-budgeted campaign and a counted one see identical cases.

    Sizes stay small on purpose: every case runs an all-methods build
    plus exact oracles (transitive closure is quadratic), and small
    graphs shrink to readable repros anyway.
    """
    chosen = tuple(families) if families else FAMILIES
    for family in chosen:
        if family not in FAMILIES:
            raise ValueError(
                f"unknown graph family {family!r}; choose from "
                f"{', '.join(FAMILIES)}"
            )
    if not 1 <= min_vertices <= max_vertices:
        raise ValueError("need 1 <= min_vertices <= max_vertices")
    rng = random.Random(seed)
    for case_id in count_from_zero():
        family = chosen[case_id % len(chosen)]
        n = rng.randint(min_vertices, max_vertices)
        graph_seed = rng.randrange(2**31)
        num_nodes = rng.choice([1, 2, 3, 4, 8])
        partitioner = rng.choice(sorted(PARTITIONER_STRATEGIES))
        batch_size = rng.choice([1, 2, 3])
        growth_factor = rng.choice([1.5, 2.0, 3.0])
        case = FuzzCase(
            case_id=case_id,
            family=family,
            seed=graph_seed,
            num_vertices=n,
            num_nodes=num_nodes,
            partitioner=partitioner,
            batch_size=batch_size,
            growth_factor=growth_factor,
        )
        if rng.random() < 0.6:
            graph = case.graph()
            if graph.num_vertices >= 2:
                # Mostly edge-only streams (the historical shape), with
                # a slice of mixed streams adding node ops and order
                # upgrades so the dynamic oracle covers all five kinds.
                ops = mixed_update_stream(
                    graph,
                    count=rng.randint(1, 8),
                    insert_ratio=rng.choice([0.3, 0.5, 0.7]),
                    node_ratio=rng.choice([0.0, 0.0, 0.25]),
                    promote_ratio=rng.choice([0.0, 0.2]),
                    seed=rng.randrange(2**31),
                )
                case = replace(case, updates=tuple(ops))
        yield case


def generate_cases(
    seed: int = 0,
    count: int = 100,
    families: Sequence[str] | None = None,
    min_vertices: int = 4,
    max_vertices: int = 26,
) -> list[FuzzCase]:
    """Deterministically sample ``count`` cases, round-robin over the
    families, crossing graphs with cluster/batch/update configs.

    Same ``seed`` → same case list, always; a longer list is a strict
    extension of a shorter one.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return list(
        islice(
            _case_iter(
                seed,
                families=families,
                min_vertices=min_vertices,
                max_vertices=max_vertices,
            ),
            count,
        )
    )
