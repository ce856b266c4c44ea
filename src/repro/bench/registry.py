"""The paper's Section VI as data: every experiment ``repro bench`` runs.

:data:`EXPERIMENTS` is the only place an experiment is named; the CLI,
``benchmarks/bench_paper.py`` and ``examples/reproduce_paper.py``
iterate it, and :func:`repro.bench.harness.sweep` runs an entry.  An
entry is its name, its tables, and the function giving the builds of
one dataset row (see :class:`~repro.bench.harness.Experiment`).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, Callable, Sequence

from repro.bench.harness import Built, Experiment, Statistic, Variant
from repro.errors import ReproError
from repro.graph.order import ORDER_STRATEGIES
from repro.graph.partition import PARTITIONER_STRATEGIES
from repro.workloads.datasets import DATASETS
from repro.workloads.queries import random_pairs

#: Every experiment, by the name ``repro bench`` runs it under.
EXPERIMENTS: dict[str, Experiment] = {}


def _experiment(name: str, *tables: dict, **options):
    def register(variants):
        EXPERIMENTS[name] = Experiment(name, tables, variants, **options)
        return variants

    return register


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def _stat(name: str) -> Statistic:
    return lambda built: getattr(built.stats, name)


_seconds = _stat("simulated_seconds")
_comm = _stat("communication_seconds")
_messages = _stat("total_messages")


def _kib(built: Built) -> float:
    return built.index.size_bytes() / 1024


def _comp(built: Built) -> float:
    return built.stats.computation_seconds + built.stats.barrier_seconds


def _speedup(built: Built) -> float:
    base = built.base or built  # the first node count is its own base
    return base.stats.simulated_seconds / built.stats.simulated_seconds


def _combiner_saving(built: Built) -> float:
    if built.index != built.base.index:
        raise ReproError("the message combiner changed the index")
    plain = built.base.stats.total_messages
    return 100.0 * (plain - built.stats.total_messages) / max(1, plain)


def _query_seconds(num_queries: int, backend: Callable) -> Statistic:
    """Mean simulated seconds of ``num_queries`` random queries, each
    priced by ``backend(index, cost_model)``'s ``query_with_cost``."""

    def statistic(built: Built) -> float:
        serve = backend(built.index, built.cost_model)
        pairs = random_pairs(built.graph.num_vertices, num_queries, seed=0)
        # fsum: a plain sum's rounding drifts by a few ulps, enough to
        # flip a cell that sits on a rounding tie (HOST at 300 pairs).
        total = math.fsum(serve.query_with_cost(s, t)[1] for s, t in pairs)
        return total / max(1, len(pairs))

    return statistic


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
_FIG_METHODS = (("DRL-", "drl-"), ("DRL", "drl"), ("DRL_b", "drl-b"))
_DRL_B = _FIG_METHODS[2:]


def _axis(
    methods,
    statistics: Sequence[Statistic],
    attr: str,
    values: Sequence,
    derive: Callable,
    column: Callable[[Any], str] = str,
    relative: bool = False,
) -> list[Variant]:
    """``methods`` x ``values``: one table per (method, statistic), one
    column per swept value, built with ``derive(value, *row)``;
    ``relative`` measures each build against the method's first."""
    variants = []
    for m, (label, method) in enumerate(methods):
        first = None
        for value in values:
            lands = tuple(
                (m * len(statistics) + s, column(value), statistic)
                for s, statistic in enumerate(statistics)
            )
            apply = lambda *row, value=value: derive(value, *row)
            needs = first if relative else None
            variants.append(
                Variant(label, method, lands, {}, {attr: value}, apply, needs)
            )
            first = first or variants[-1]
    return variants


# Exps 1-3.  TOL, DRL_b and DRL_b^M build one index: equal size and
# query time; "-" where the paper's graph does not fit one machine.
@_experiment(
    "table6",
    dict(title="Table VI — Index Time (simulated s)"),
    dict(title="Table VI — Index Size (KiB)", precision=1),
    dict(title="Table VI — Query Time (simulated s)", scientific=True),
    datasets=tuple(DATASETS),
)
def _table6(num_queries=2000):
    # Imported here: repro.query imports repro.observe, which imports
    # repro.bench.
    from repro.query import IndexBackend, MeteredSearchBackend

    def method(label, method, backend, **how):
        query = _query_seconds(num_queries, backend)
        lands = ((0, label, _seconds), (1, label, _kib), (2, label, query))
        return Variant(label, method, lands, **how)

    # DRL_b^M: the cores of one machine exchange through shared memory.
    shared_memory = lambda graph, num_nodes, cost_model: {
        "cost_model": replace(
            cost_model, t_byte=0.0, t_barrier=cost_model.t_barrier / 10
        )
    }
    # BFL^D's index prices its own queries (a token walk when the
    # labels cannot decide).
    itself = lambda index, cost_model: index
    return [
        method("BFL^C", "bfl-c", MeteredSearchBackend, kwargs={"num_nodes": 1}),
        method("BFL^D", "bfl-d", itself),
        method("TOL", "tol", IndexBackend),
        method("DRL_b", "drl-b", IndexBackend),
        method("DRL_b^M", "drl-b-m", IndexBackend, derive=shared_memory),
    ]


# Exp 4: where the time goes.
@_experiment(
    "fig5",
    dict(title="Fig. 5 — Computation vs Communication Time (simulated s)"),
)
def _fig5():
    return [
        Variant(
            label,
            method,
            ((0, f"{label} comp", _comp), (0, f"{label} comm", _comm)),
        )
        for label, method in _FIG_METHODS
    ]


# Exp 5: speedup = T(first node count) / T(x nodes), per algorithm.
@_experiment(
    "fig6",
    *(
        dict(title=f"Fig. 6 — Speedup of {label} vs node count", precision=2)
        for label, _ in _FIG_METHODS
    ),
)
def _fig6(node_counts=(1, 2, 4, 8, 16, 32)):
    return _axis(
        _FIG_METHODS, [_speedup], "num_nodes", node_counts,
        lambda nodes, *_: {"num_nodes": nodes}, relative=True,
    )


# Exp 6: index time on test graphs with 20%..100% of the edges.
@_experiment(
    "fig7",
    *(
        dict(title=f"Fig. 7 — Index time of {label} vs graph size (simulated s)")
        for label, _ in _FIG_METHODS
    ),
)
def _fig7(fractions=(0.2, 0.4, 0.6, 0.8, 1.0)):
    return _axis(
        _FIG_METHODS, [_seconds], "fraction", fractions,
        lambda fraction, graph, *_: {"graph": graph.edge_fraction(fraction, seed=7)},
        column=lambda fraction: f"{int(100 * fraction)}%",
    )


# Exp 7: the initial batch size b (k = 2).
@_experiment(
    "fig8",
    dict(title="Fig. 8 — Effect of initial batch size b (simulated s)"),
)
def _fig8(b_values=(1, 2, 4, 8, 16, 32, 64, 128)):
    return _axis(
        _DRL_B, [_seconds], "b", b_values,
        lambda b, *_: dict(initial_batch_size=b, growth_factor=2.0),
        column="b={:g}".format,
    )


# Exp 8: the increment factor k (b = 2).
@_experiment(
    "fig9",
    dict(title="Fig. 9 — Effect of increment factor k (simulated s)"),
)
def _fig9(k_values=(1, 1.5, 2, 2.5, 3, 3.5, 4)):
    return _axis(
        _DRL_B, [_seconds], "k", k_values,
        lambda k, *_: dict(initial_batch_size=2, growth_factor=k),
        column="k={:g}".format,
    )


# Ablations (ours, motivated by the paper's design choices).  The paper
# asserts the degree product "works well in practice"; this quantifies
# how much worse the alternatives are.
@_experiment(
    "ablation-orders",
    dict(title="Ablation — DRL_b index time per order strategy (simulated s)"),
    dict(title="Ablation — index size per order strategy (KiB)", precision=1),
)
def _ablation_orders(strategies=("degree", "out-degree", "in-degree", "random")):
    return _axis(
        _DRL_B, [_seconds, _kib], "order", strategies,
        lambda strategy, graph, *_: {"order": ORDER_STRATEGIES[strategy](graph)},
    )


@_experiment(
    "ablation-partitioners",
    dict(title="Ablation — DRL_b communication seconds per partitioner"),
)
def _ablation_partitioners(strategies=("hash", "modulo", "range", "block")):
    return _axis(
        _DRL_B, [_comm], "partitioner", strategies,
        lambda strategy, graph, num_nodes, _: {
            "partitioner": PARTITIONER_STRATEGIES[strategy](
                num_nodes, graph.num_vertices
            )
        },
    )


# Without the in-flight Check prune (Alg. 3 line 14) the final cleanup
# keeps DRL exact, but the flood explores far more of the graph.
@_experiment(
    "ablation-check-pruning",
    dict(
        title="Ablation — DRL compute units with/without Check pruning",
        precision=0,
    ),
)
def _ablation_check_pruning():
    return _axis(
        _FIG_METHODS[1:2], [_stat("compute_units")], "check_pruning", (True, False),
        lambda pruning, *_: {"check_pruning": pruning},
        column={True: "with Check", False: "without Check"}.get,
    )


# A per-node combiner dedups identical messages to one destination
# within a super-step: less traffic, the same index.
@_experiment(
    "ablation-combiner",
    dict(title="Ablation — DRL_b message counts with/without combiner", precision=1),
)
def _ablation_combiner():
    plain = Variant("DRL_b", "drl-b", ((0, "messages", _messages),))
    combined = Variant(
        "DRL_b+combiner",
        "drl-b",
        ((0, "messages+combiner", _messages), (0, "saving %", _combiner_saving)),
        kwargs={"combine_messages": True},
        attrs={"combine_messages": True},
        needs=plain,
    )
    return [plain, combined]
