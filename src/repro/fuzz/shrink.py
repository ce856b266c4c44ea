"""Greedy delta-debugging of failing fuzz cases.

Given a case that fails some oracle, the shrinker searches for a
smaller case that fails *the same way* (same failure fingerprint):
it drops vertex chunks, then edges, then update operations (a ddmin
sweep over each list), then simplifies the configuration (drop the
updates, shrink the cluster, default the batch parameters), and
repeats until a whole round makes no progress or the evaluation
budget runs out.  The result is a pinned, explicit-edge-list
:class:`~repro.fuzz.cases.FuzzCase` small enough to read — typically
a handful of vertices — that replays the failure with one command.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.fuzz.cases import FuzzCase
from repro.fuzz.oracles import CaseResult, OracleFailure, run_case


@dataclass(frozen=True)
class ShrinkResult:
    """Outcome of a shrink run."""

    case: FuzzCase
    failure: OracleFailure
    fingerprint: str
    rounds: int
    evaluations: int


def _drop_vertices(case: FuzzCase, keep: Sequence[int]) -> FuzzCase | None:
    """The induced sub-case on ``keep`` (ids remapped to 0..k-1)."""
    if not keep:
        return None
    remap = {old: new for new, old in enumerate(sorted(keep))}
    assert case.edges is not None
    edges = tuple(
        (remap[u], remap[v])
        for u, v in case.edges
        if u in remap and v in remap
    )
    updates = tuple(
        (op, remap[u], remap[v])
        for op, u, v in case.updates
        if u in remap and v in remap
    )
    return replace(
        case, num_vertices=len(remap), edges=edges, updates=updates
    )


def _ddmin(
    items: list,
    rebuild: Callable[[list], FuzzCase | None],
    check: Callable[[FuzzCase | None], CaseResult | None],
    min_items: int = 0,
) -> list:
    """Greedy ddmin: remove ever-finer chunks while the failure holds."""
    granularity = 2
    while len(items) > min_items and granularity <= max(len(items), 2):
        chunk = max(1, len(items) // granularity)
        reduced = False
        start = 0
        while start < len(items):
            candidate_items = items[:start] + items[start + chunk:]
            if len(candidate_items) < min_items:
                start += chunk
                continue
            if check(rebuild(candidate_items)) is not None:
                items = candidate_items
                reduced = True
                # Do not advance: the next chunk slid into this position.
            else:
                start += chunk
        if not reduced:
            if granularity >= len(items):
                break
            granularity = min(len(items), granularity * 2)
    return items


#: Config simplifications, tried in order each round.  Each returns a
#: simplified copy or ``None`` when already minimal.
_CONFIG_STEPS: tuple[Callable[[FuzzCase], FuzzCase | None], ...] = (
    lambda c: replace(c, updates=()) if c.updates else None,
    lambda c: replace(c, num_nodes=1) if c.num_nodes > 1 else None,
    lambda c: replace(c, num_nodes=2) if c.num_nodes > 2 else None,
    lambda c: (
        replace(c, partitioner="hash") if c.partitioner != "hash" else None
    ),
    lambda c: (
        replace(c, batch_size=2, growth_factor=2.0)
        if (c.batch_size, c.growth_factor) != (2, 2.0)
        else None
    ),
    # Engine-independent failures simplify back to the simulator; an
    # actual engine-mismatch failure keeps engine="mp" because its
    # oracle only runs on mp-stamped cases.
    lambda c: replace(c, engine="sim") if c.engine != "sim" else None,
)


def shrink_case(
    case: FuzzCase,
    fingerprint: str | None = None,
    oracles: dict | None = None,
    max_evaluations: int = 400,
) -> ShrinkResult:
    """Minimise ``case`` while it keeps failing with ``fingerprint``.

    ``fingerprint`` defaults to the first failure of the initial run;
    raises ``ValueError`` if the case does not fail at all.  ``oracles``
    overrides the registry (tests inject broken stubs).  The evaluation
    budget bounds total oracle runs, so shrinking a pathological case
    degrades to a partial reduction instead of hanging the campaign.
    """
    concrete = case.concretize()
    initial = run_case(concrete, oracles=oracles)
    if initial.ok:
        raise ValueError(f"case {case.case_id} does not fail; nothing to shrink")
    if fingerprint is None:
        fingerprint = initial.failures[0].fingerprint
    elif fingerprint not in initial.fingerprints:
        raise ValueError(
            f"case {case.case_id} does not fail with fingerprint "
            f"{fingerprint!r} (observed: {sorted(initial.fingerprints)})"
        )

    evaluations = 0
    best: dict[str, CaseResult] = {"result": initial}

    def check(candidate: FuzzCase | None) -> CaseResult | None:
        nonlocal evaluations
        if candidate is None or evaluations >= max_evaluations:
            return None
        evaluations += 1
        result = run_case(candidate, oracles=oracles)
        if fingerprint in result.fingerprints:
            best["result"] = result
            return result
        return None

    current = concrete
    rounds = 0
    while evaluations < max_evaluations:
        rounds += 1
        before = current

        # 1. Vertices (ddmin over the id list; edges/updates remapped).
        vertices = _ddmin(
            list(range(current.num_vertices)),
            lambda keep: _drop_vertices(current, keep),
            check,
            min_items=1,
        )
        if len(vertices) < current.num_vertices:
            current = _drop_vertices(current, vertices)

        # 2. Edges.
        assert current.edges is not None
        fixed = current
        edges = _ddmin(
            list(fixed.edges),
            lambda kept: replace(fixed, edges=tuple(kept)),
            check,
        )
        if len(edges) < len(current.edges):
            current = replace(current, edges=tuple(edges))

        # 3. Update operations.
        if current.updates:
            fixed = current
            updates = _ddmin(
                list(fixed.updates),
                lambda kept: replace(fixed, updates=tuple(kept)),
                check,
            )
            if len(updates) < len(current.updates):
                current = replace(current, updates=tuple(updates))

        # 4. Configuration.
        for step in _CONFIG_STEPS:
            candidate = step(current)
            if candidate is not None and check(candidate) is not None:
                current = candidate

        if current == before:
            break

    final = best["result"]
    failure = next(f for f in final.failures if f.fingerprint == fingerprint)
    return ShrinkResult(
        case=final.case,
        failure=failure,
        fingerprint=fingerprint,
        rounds=rounds,
        evaluations=evaluations,
    )
