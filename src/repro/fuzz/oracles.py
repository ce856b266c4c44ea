"""The oracle matrix: every equivalence claim the library makes,
checked against one fuzz case.

Each oracle is a function ``(ctx) -> list[str]`` returning violation
messages (empty = pass).  The oracles encode, per the paper:

- ``methods-agree`` — TOL, DRL⁻, DRL, DRL_b and multicore DRL_b build
  the *identical* index under a shared order (Theorems 3, 5, 6);
- ``cover`` / ``soundness`` / ``canonical`` — Definition 3's cover
  constraint, label soundness, and Theorem 1's canonical-index
  characterisation via :mod:`repro.core.validate`;
- ``query-oracle`` — index answers equal online BFS and the exact
  transitive closure on sampled pairs;
- ``condensed`` — the SCC-condensed index answers identically;
- ``fault-equivalence`` — a fault-injected build yields the fault-free
  index (the recovery contract of :mod:`repro.faults`);
- ``dynamic-vs-rebuild`` — incremental updates maintain exactly the
  index a full rebuild produces (§V / TOL's dynamic contract);
- ``engine-mismatch`` — the multiprocessing engine builds the identical
  index to the simulator for every label method (the equivalence
  contract of :mod:`repro.pregel.mp`; ``engine="mp"`` cases only).

Oracle *crashes* (unexpected exceptions) are findings too: they are
reported as failures with a distinct fingerprint instead of aborting
the campaign.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.baselines.online import OnlineSearcher
from repro.baselines.transitive_closure import TransitiveClosure
from repro.core.build import METHOD_NAMES, build_index
from repro.core.condensed import build_condensed_index
from repro.core.dynamic import UPDATE_OPS, DynamicReachabilityIndex
from repro.core.labels import ReachabilityIndex
from repro.core.tol import tol_index
from repro.core.validate import check_canonical, check_cover, check_soundness
from repro.fuzz.cases import FuzzCase
from repro.graph.order import degree_order
from repro.pregel.cost_model import CostModel

#: Oracles never hit the simulated-time cut-off: a slow build is not a
#: correctness divergence.
_NO_LIMIT = CostModel(time_limit_seconds=None)

#: Above this vertex count, pairwise query oracles sample instead of
#: enumerating all n² pairs.
_FULL_PAIR_LIMIT = 18


@dataclass(frozen=True)
class OracleFailure:
    """One oracle's verdict on one case."""

    oracle: str
    message: str
    kind: str = "violation"  # or "exception"

    @property
    def fingerprint(self) -> str:
        """Stable identity of the failure *mode*, used by the shrinker
        to accept only candidates that fail the same way."""
        if self.kind == "exception":
            return f"{self.oracle}!{self.message.split(':', 1)[0]}"
        return self.oracle


@dataclass(frozen=True)
class CaseResult:
    """All oracle outcomes for one case."""

    case: FuzzCase
    oracles_run: tuple[str, ...]
    failures: tuple[OracleFailure, ...]

    @property
    def ok(self) -> bool:
        """True when every applicable oracle passed."""
        return not self.failures

    @property
    def fingerprints(self) -> frozenset[str]:
        """The set of failure-mode fingerprints."""
        return frozenset(f.fingerprint for f in self.failures)


class CaseContext:
    """Lazily-shared per-case artifacts (graph, order, oracle, builds).

    Several oracles need the same expensive objects; computing them
    once per case keeps the matrix affordable.
    """

    def __init__(self, case: FuzzCase):
        self.case = case
        self.graph = case.graph()
        self.order = degree_order(self.graph)
        self._closure: TransitiveClosure | None = None
        self._builds: dict[tuple[str, str], ReachabilityIndex] = {}

    @property
    def closure(self) -> TransitiveClosure:
        """The exact reachability oracle (computed once)."""
        if self._closure is None:
            self._closure = TransitiveClosure(self.graph)
        return self._closure

    def build(self, method: str, engine: str = "sim") -> ReachabilityIndex:
        """Build (and cache) the index with ``method`` under the case's
        configuration — shared order, cluster size, partitioner, and
        batch parameters, but no faults (clean builds).  ``engine="mp"``
        builds on the multiprocessing engine (two workers), used by the
        ``engine-mismatch`` differential oracle."""
        key = (method, engine)
        if key not in self._builds:
            kwargs: dict = {
                "partitioner": self.case.make_partitioner(self.graph.num_vertices)
            }
            if method in ("drl-b", "drl-b-m"):
                kwargs["initial_batch_size"] = self.case.batch_size
                kwargs["growth_factor"] = self.case.growth_factor
            if engine != "sim":
                kwargs["engine"] = engine
                kwargs["workers"] = 2
            self._builds[key] = build_index(
                self.graph,
                method=method,
                order=self.order,
                num_nodes=self.case.num_nodes,
                cost_model=_NO_LIMIT,
                **kwargs,
            ).index
        return self._builds[key]

    def query_pairs(self, salt: int = 0) -> list[tuple[int, int]]:
        """All pairs on small graphs, a seeded sample on larger ones."""
        n = self.graph.num_vertices
        if n <= _FULL_PAIR_LIMIT:
            return [(s, t) for s in range(n) for t in range(n)]
        rng = random.Random((self.case.seed << 4) ^ salt)
        return [
            (rng.randrange(n), rng.randrange(n))
            for _ in range(self.case.query_sample)
        ]


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def _index_diff(built: ReachabilityIndex, reference: ReachabilityIndex) -> str:
    """First differing vertex between two indexes, for messages."""
    if built.num_vertices != reference.num_vertices:
        return (
            f"vertex counts differ: {built.num_vertices} "
            f"vs {reference.num_vertices}"
        )
    for v in range(reference.num_vertices):
        for side, getter in (
            ("L_in", lambda i, w: list(i.in_labels(w))),
            ("L_out", lambda i, w: list(i.out_labels(w))),
        ):
            got, want = getter(built, v), getter(reference, v)
            if got != want:
                return f"{side}({v}) = {got}, expected {want}"
    return "indexes equal"  # pragma: no cover - only called on mismatch


def oracle_methods_agree(ctx: CaseContext) -> list[str]:
    """Every construction method yields the identical index."""
    reference = ctx.build("tol")
    violations: list[str] = []
    for method in METHOD_NAMES:
        if method == "tol":
            continue
        built = ctx.build(method)
        if built != reference:
            violations.append(
                f"method {method!r} diverges from tol: "
                + _index_diff(built, reference)
            )
    return violations


def oracle_cover(ctx: CaseContext) -> list[str]:
    """Cover constraint (Definition 3) of the DRL_b index."""
    n = ctx.graph.num_vertices
    sample = None if n <= _FULL_PAIR_LIMIT else ctx.case.query_sample
    report = check_cover(
        ctx.build("drl-b"), ctx.graph, sample=sample, seed=ctx.case.seed
    )
    return list(report.violations)


def oracle_soundness(ctx: CaseContext) -> list[str]:
    """Every label entry encodes a true reachability relation."""
    return list(check_soundness(ctx.build("drl-b"), ctx.graph).violations)


def oracle_canonical(ctx: CaseContext) -> list[str]:
    """The index is exactly TOL's under the order (Theorem 1)."""
    return list(
        check_canonical(ctx.build("drl-b"), ctx.graph, ctx.order).violations
    )


def oracle_query_vs_online(ctx: CaseContext) -> list[str]:
    """Index answers equal online BFS and the transitive closure."""
    index = ctx.build("drl-b")
    searcher = OnlineSearcher(ctx.graph)
    violations: list[str] = []
    for s, t in ctx.query_pairs(salt=0x51):
        indexed = index.query(s, t)
        online = searcher.query(s, t)
        exact = ctx.closure.query(s, t)
        if online != exact:
            violations.append(
                f"online BFS({s}, {t}) = {online} but closure says {exact}"
            )
        if indexed != exact:
            violations.append(
                f"index.query({s}, {t}) = {indexed} but closure says {exact}"
            )
        if len(violations) >= 20:
            break
    return violations


def oracle_condensed(ctx: CaseContext) -> list[str]:
    """The SCC-condensed index answers identically to the direct one."""
    condensed, _ = build_condensed_index(
        ctx.graph, method="drl-b", cost_model=_NO_LIMIT
    )
    violations: list[str] = []
    for s, t in ctx.query_pairs(salt=0xC0):
        got = condensed.query(s, t)
        want = ctx.closure.query(s, t)
        if got != want:
            violations.append(
                f"condensed.query({s}, {t}) = {got}, expected {want}"
            )
            if len(violations) >= 20:
                break
    return violations


def oracle_fault_equivalence(ctx: CaseContext) -> list[str]:
    """A fault-injected DRL_b build equals the fault-free index."""
    plan = ctx.case.fault_plan()
    if plan is None:  # pragma: no cover - guarded by oracles_for
        return []
    clean = ctx.build("drl-b")
    faulty = build_index(
        ctx.graph,
        method="drl-b",
        order=ctx.order,
        num_nodes=ctx.case.num_nodes,
        cost_model=_NO_LIMIT,
        partitioner=ctx.case.make_partitioner(ctx.graph.num_vertices),
        initial_batch_size=ctx.case.batch_size,
        growth_factor=ctx.case.growth_factor,
        faults=plan,
        checkpoint_interval=ctx.case.checkpoint_interval,
    ).index
    if faulty != clean:
        return [
            f"faulty build ({plan.describe()}) diverges from clean: "
            + _index_diff(faulty, clean)
        ]
    return []


def oracle_dynamic_vs_rebuild(ctx: CaseContext) -> list[str]:
    """Incremental maintenance equals a from-scratch rebuild after
    every update in the case's workload (all five op kinds, plus
    drift-triggered automatic order upgrades on a slice of cases) —
    and an edge write reports no touched rows exactly when the rebuilt
    index did not move: the closure-preserving fast path is taken
    whenever it may be and never otherwise."""
    if not ctx.case.updates:  # pragma: no cover - guarded by oracles_for
        return []
    # Every third case (by seed) also enables automatic drift-triggered
    # promotion, so organic order upgrades — not just the explicit
    # promote ops in the stream — are under the oracle too.
    drift = 2 if ctx.case.seed % 3 == 0 else None
    dynamic = DynamicReachabilityIndex(
        ctx.graph, order=ctx.order, drift_threshold=drift
    )
    violations: list[str] = []
    previous = dynamic.snapshot()  # the rebuilt index one step back
    for step, (op, u, v) in enumerate(ctx.case.updates):
        if op not in UPDATE_OPS:
            violations.append(f"update {step}: unknown op {op!r}")
            continue
        order = dynamic.order
        applied = dynamic.apply(op, u, v)
        # Reread the order each step: node additions and promotions
        # (explicit or drift-triggered) replace it.
        rebuilt = tol_index(dynamic.current_graph(), dynamic.order)
        snapshot = dynamic.snapshot()
        if snapshot != rebuilt:
            violations.append(
                f"after update {step} ({op} {u}->{v}): "
                + _index_diff(snapshot, rebuilt)
            )
            break  # later steps inherit the corruption; one message suffices
        # Same order before and after: no promote rode along, so
        # `touched` is this write's own and the index may move only
        # with the closure.
        if applied and op in ("insert", "delete") and dynamic.order is order:
            skipped = dynamic.touched == (set(), set())
            if skipped != (rebuilt == previous):
                violations.append(
                    f"after update {step} ({op} {u}->{v}): repair "
                    + ("skipped, but the index moved" if skipped
                       else "ran, but the index did not move")
                )
                break
        previous = rebuilt
    return violations


def oracle_engine_mismatch(ctx: CaseContext) -> list[str]:
    """The mp engine builds the identical index to the simulator.

    Differential engine check for every label method with an mp-capable
    program; ``tol`` (serial) and ``drl-b-m`` (same builder as ``drl-b``
    with a shared-memory cost model) add nothing here.
    """
    violations: list[str] = []
    for method in ("drl-", "drl", "drl-b"):
        reference = ctx.build(method)
        built = ctx.build(method, engine="mp")
        if built != reference:
            violations.append(
                f"method {method!r} on the mp engine diverges from sim: "
                + _index_diff(built, reference)
            )
    return violations


#: Name → oracle function; the campaign and the shrinker share this.
ORACLES: dict[str, Callable[[CaseContext], list[str]]] = {
    "methods-agree": oracle_methods_agree,
    "cover": oracle_cover,
    "soundness": oracle_soundness,
    "canonical": oracle_canonical,
    "query-oracle": oracle_query_vs_online,
    "condensed": oracle_condensed,
    "fault-equivalence": oracle_fault_equivalence,
    "dynamic-vs-rebuild": oracle_dynamic_vs_rebuild,
    "engine-mismatch": oracle_engine_mismatch,
}


def oracles_for(case: FuzzCase) -> tuple[str, ...]:
    """The oracle names applicable to ``case``."""
    names = [
        "methods-agree",
        "cover",
        "soundness",
        "canonical",
        "query-oracle",
        "condensed",
    ]
    if case.faults:
        names.append("fault-equivalence")
    if case.updates:
        names.append("dynamic-vs-rebuild")
    if case.engine == "mp":
        names.append("engine-mismatch")
    return tuple(names)


def run_case(
    case: FuzzCase,
    oracles: dict[str, Callable[[CaseContext], list[str]]] | None = None,
) -> CaseResult:
    """Run every applicable oracle against ``case``.

    ``oracles`` overrides the registry (used by tests to inject broken
    stubs).  Exceptions inside an oracle — including a case made
    invalid by shrinking — become ``kind="exception"`` failures.
    """
    registry = ORACLES if oracles is None else oracles
    names = tuple(n for n in oracles_for(case) if n in registry)
    failures: list[OracleFailure] = []
    try:
        ctx = CaseContext(case)
    except Exception as exc:  # noqa: BLE001 - a broken case is a finding
        return CaseResult(
            case=case,
            oracles_run=("setup",),
            failures=(
                OracleFailure(
                    "setup", f"{type(exc).__name__}: {exc}", kind="exception"
                ),
            ),
        )
    for name in names:
        try:
            for message in registry[name](ctx):
                failures.append(OracleFailure(name, message))
        except Exception as exc:  # noqa: BLE001 - crashes are findings
            failures.append(
                OracleFailure(
                    name, f"{type(exc).__name__}: {exc}", kind="exception"
                )
            )
    return CaseResult(case=case, oracles_run=names, failures=tuple(failures))
