"""Experiment runners — one per table/figure of the paper's Section VI.

All runners measure **simulated seconds** from the cost model (see
:mod:`repro.pregel.cost_model`), so results are deterministic and
reflect distributed behaviour even though everything executes in one
process.  Failure semantics follow the paper: ``-`` marks a method that
cannot run (single-node memory at paper scale), ``INF`` marks a
simulated cut-off.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.baselines.bfl import build_bfl
from repro.baselines.bfl_distributed import build_bfl_distributed
from repro.bench.results import Cell, ExperimentTable
from repro.core.build import build_index
from repro.core.drl import drl_index
from repro.core.labels import LabelingResult, ReachabilityIndex
from repro.errors import OutOfMemoryError, TimeLimitExceeded
from repro.graph.digraph import DiGraph
from repro.graph.order import ORDER_STRATEGIES, VertexOrder, degree_order
from repro.graph.partition import PARTITIONER_STRATEGIES
from repro.pregel.cost_model import CostModel, paper_scale_model
from repro.pregel.metrics import RunStats
from repro.pregel.serial import SerialMeter
from repro.telemetry import trace_span
from repro.workloads.datasets import DATASETS, MEDIUM_DATASETS, get_dataset
from repro.workloads.queries import random_pairs

#: Table VI's column order.
TABLE6_METHODS = ("bfl-c", "bfl-d", "tol", "drl-b", "drl-b-m")
TABLE6_LABELS = {
    "bfl-c": "BFL^C",
    "bfl-d": "BFL^D",
    "tol": "TOL",
    "drl-b": "DRL_b",
    "drl-b-m": "DRL_b^M",
}
FIG_ALGORITHMS = ("drl-", "drl", "drl-b")
FIG_LABELS = {"drl-": "DRL-", "drl": "DRL", "drl-b": "DRL_b"}


def _medium_specs(dataset_names: Sequence[str] | None):
    names = MEDIUM_DATASETS if dataset_names is None else dataset_names
    return [get_dataset(name) for name in names]


def _cell_stats_attrs(stats: RunStats) -> dict:
    """The comm/comp split every ``bench.cell`` span carries, so the
    experiment's table can be reproduced from the trace alone."""
    return dict(
        computation_seconds=stats.computation_seconds,
        communication_seconds=stats.communication_seconds,
        barrier_seconds=stats.barrier_seconds,
        simulated_seconds=stats.simulated_seconds,
    )


def _labeled_index_time(
    method: str,
    graph: DiGraph,
    order: VertexOrder,
    num_nodes: int,
    cost_model: CostModel,
    *,
    dataset: str = "",
    experiment: str = "",
    label: str | None = None,
    span_attrs: dict | None = None,
    **kwargs,
) -> LabelingResult:
    with trace_span(
        "bench.cell",
        experiment=experiment,
        dataset=dataset,
        method=label if label is not None else method,
        num_nodes=num_nodes,
        **(span_attrs or {}),
    ) as span:
        result = build_index(
            graph,
            method=method,
            order=order,
            num_nodes=num_nodes,
            cost_model=cost_model,
            **kwargs,
        )
        span.set(**_cell_stats_attrs(result.stats))
        span.add_simulated(result.stats.simulated_seconds)
    return result


def _guard(fn: Callable[[], Cell]) -> Cell:
    """Convert failures into the paper's markers."""
    try:
        return fn()
    except TimeLimitExceeded:
        return Cell.timeout()
    except OutOfMemoryError:
        return Cell.unavailable()


def _label_query_seconds(
    index: ReachabilityIndex, pairs: list[tuple[int, int]], t_op: float
) -> float:
    """Mean simulated query time of a 2-hop index: one unit per label
    entry scanned by the sorted-merge, as in the paper's O(|L|+|L|)."""
    units = 0
    out_sizes, in_sizes = index.out_sizes, index.in_sizes
    for s, t in pairs:
        units += out_sizes[s] + in_sizes[t] + 1
    return units * t_op / max(1, len(pairs))


# ----------------------------------------------------------------------
# Exps 1-3: Table VI
# ----------------------------------------------------------------------
def run_table6(
    dataset_names: Sequence[str] | None = None,
    num_nodes: int = 32,
    num_queries: int = 2000,
    seed: int = 0,
    cost_model: CostModel | None = None,
) -> tuple[ExperimentTable, ExperimentTable, ExperimentTable]:
    """Exps 1-3: index time, index size, and query time for BFL^C,
    BFL^D, TOL, DRL_b, and DRL_b^M on every dataset.

    Returns ``(time_table, size_table, query_table)``.
    """
    if cost_model is None:
        cost_model = paper_scale_model()
    names = list(DATASETS) if dataset_names is None else list(dataset_names)
    columns = [TABLE6_LABELS[m] for m in TABLE6_METHODS]
    time_table = ExperimentTable("Table VI — Index Time (simulated s)", columns)
    size_table = ExperimentTable(
        "Table VI — Index Size (KiB)", columns, precision=1
    )
    query_table = ExperimentTable(
        "Table VI — Query Time (simulated s)", columns, scientific=True
    )

    for name in names:
        spec = get_dataset(name)
        graph = spec.load()
        order = degree_order(graph)
        pairs = random_pairs(graph.num_vertices, num_queries, seed=seed)
        for method in TABLE6_METHODS:
            label = TABLE6_LABELS[method]
            if not spec.available(method):
                for table in (time_table, size_table, query_table):
                    table.set(name, label, Cell.unavailable())
                continue
            cells = _guard(
                lambda: _run_table6_method(
                    method, graph, order, num_nodes, cost_model, pairs, name
                )
            )
            if isinstance(cells, Cell):  # failure marker
                for table in (time_table, size_table, query_table):
                    table.set(name, label, cells)
                continue
            t_cell, s_cell, q_cell = cells
            time_table.set(name, label, t_cell)
            size_table.set(name, label, s_cell)
            query_table.set(name, label, q_cell)
    return time_table, size_table, query_table


def _run_table6_method(
    method, graph, order, num_nodes, cost_model, pairs, dataset=""
):
    t_op = cost_model.t_op
    label = TABLE6_LABELS[method]
    if method == "bfl-c":
        with trace_span(
            "bench.cell",
            experiment="table6",
            dataset=dataset,
            method=label,
            num_nodes=1,
        ) as span:
            meter = SerialMeter(cost_model)
            bfl = build_bfl(graph, meter=meter)
            stats = meter.stats()
            build = stats.simulated_seconds
            span.set(**_cell_stats_attrs(stats))
            span.add_simulated(build)
        query_meter = SerialMeter(cost_model.with_time_limit(None))
        for s, t in pairs:
            bfl.query(s, t, meter=query_meter)
        per_query = query_meter.simulated_seconds / max(1, len(pairs))
        return build, bfl.size_bytes() / 1024, per_query
    if method == "bfl-d":
        with trace_span(
            "bench.cell",
            experiment="table6",
            dataset=dataset,
            method=label,
            num_nodes=num_nodes,
        ) as span:
            index, stats = build_bfl_distributed(
                graph, num_nodes=num_nodes, cost_model=cost_model
            )
            span.set(**_cell_stats_attrs(stats))
            span.add_simulated(stats.simulated_seconds)
        total = 0.0
        for s, t in pairs:
            _answer, seconds = index.query_with_cost(s, t)
            total += seconds
        return (
            stats.simulated_seconds,
            index.size_bytes() / 1024,
            total / max(1, len(pairs)),
        )
    shared = (
        cost_model
        if method != "drl-b-m"
        else CostModel(
            t_op=cost_model.t_op,
            t_byte=0.0,
            t_barrier=cost_model.t_barrier / 10,
            time_limit_seconds=cost_model.time_limit_seconds,
            node_memory_bytes=cost_model.node_memory_bytes,
        )
    )
    result = _labeled_index_time(
        method,
        graph,
        order,
        num_nodes,
        shared,
        dataset=dataset,
        experiment="table6",
        label=label,
    )
    return (
        result.stats.simulated_seconds,
        result.index.size_bytes() / 1024,
        _label_query_seconds(result.index, pairs, t_op),
    )


# ----------------------------------------------------------------------
# Exp 4: Fig. 5 — communication vs computation time
# ----------------------------------------------------------------------
def run_fig5_comm_comp(
    dataset_names: Sequence[str] | None = None,
    num_nodes: int = 32,
    cost_model: CostModel | None = None,
) -> ExperimentTable:
    """Exp 4: computation/communication split of DRL⁻, DRL, DRL_b."""
    if cost_model is None:
        cost_model = paper_scale_model()
    columns = []
    for alg in FIG_ALGORITHMS:
        columns += [f"{FIG_LABELS[alg]} comp", f"{FIG_LABELS[alg]} comm"]
    table = ExperimentTable(
        "Fig. 5 — Computation vs Communication Time (simulated s)", columns
    )
    for spec in _medium_specs(dataset_names):
        graph = spec.load()
        order = degree_order(graph)
        for alg in FIG_ALGORITHMS:
            label = FIG_LABELS[alg]

            def run(alg=alg, label=label):
                result = _labeled_index_time(
                    alg,
                    graph,
                    order,
                    num_nodes,
                    cost_model,
                    dataset=spec.name,
                    experiment="fig5",
                    label=label,
                )
                return result

            try:
                result = run()
            except TimeLimitExceeded:
                table.set(spec.name, f"{label} comp", Cell.timeout())
                table.set(spec.name, f"{label} comm", Cell.timeout())
                continue
            stats = result.stats
            table.set(
                spec.name,
                f"{label} comp",
                stats.computation_seconds + stats.barrier_seconds,
            )
            table.set(spec.name, f"{label} comm", stats.communication_seconds)
    return table


# ----------------------------------------------------------------------
# Exp 5: Fig. 6 — speedup vs number of nodes
# ----------------------------------------------------------------------
def run_fig6_speedup(
    dataset_names: Sequence[str] | None = None,
    node_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
    algorithms: Sequence[str] = FIG_ALGORITHMS,
    cost_model: CostModel | None = None,
) -> dict[str, ExperimentTable]:
    """Exp 5: speedup = T(1 node) / T(x nodes), per algorithm."""
    if cost_model is None:
        cost_model = paper_scale_model()
    columns = [str(x) for x in node_counts]
    tables = {
        alg: ExperimentTable(
            f"Fig. 6 — Speedup of {FIG_LABELS[alg]} vs node count",
            columns,
            precision=2,
        )
        for alg in algorithms
    }
    for spec in _medium_specs(dataset_names):
        graph = spec.load()
        order = degree_order(graph)
        for alg in algorithms:
            times: list[Cell] = []
            for nodes in node_counts:
                cell = _guard(
                    lambda nodes=nodes, alg=alg: Cell(
                        _labeled_index_time(
                            alg,
                            graph,
                            order,
                            nodes,
                            cost_model,
                            dataset=spec.name,
                            experiment="fig6",
                            label=FIG_LABELS.get(alg, alg),
                        ).stats.simulated_seconds
                    )
                )
                times.append(cell)
            base = times[node_counts.index(1)] if 1 in node_counts else times[0]
            for nodes, cell in zip(node_counts, times):
                if not base.ok:
                    tables[alg].set(spec.name, str(nodes), Cell.timeout())
                elif not cell.ok:
                    tables[alg].set(spec.name, str(nodes), cell)
                else:
                    tables[alg].set(
                        spec.name, str(nodes), base.value / cell.value
                    )
    return tables


# ----------------------------------------------------------------------
# Exp 6: Fig. 7 — scalability in graph size
# ----------------------------------------------------------------------
def run_fig7_scalability(
    dataset_names: Sequence[str] | None = None,
    fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    algorithms: Sequence[str] = FIG_ALGORITHMS,
    num_nodes: int = 32,
    cost_model: CostModel | None = None,
) -> dict[str, ExperimentTable]:
    """Exp 6: index time on test graphs with 20%..100% of the edges."""
    if cost_model is None:
        cost_model = paper_scale_model()
    columns = [f"{int(100 * f)}%" for f in fractions]
    tables = {
        alg: ExperimentTable(
            f"Fig. 7 — Index time of {FIG_LABELS[alg]} vs graph size "
            "(simulated s)",
            columns,
        )
        for alg in algorithms
    }
    for spec in _medium_specs(dataset_names):
        full = spec.load()
        for fraction, column in zip(fractions, columns):
            graph = full.edge_fraction(fraction, seed=7)
            order = degree_order(graph)
            for alg in algorithms:
                cell = _guard(
                    lambda alg=alg, column=column: Cell(
                        _labeled_index_time(
                            alg,
                            graph,
                            order,
                            num_nodes,
                            cost_model,
                            dataset=spec.name,
                            experiment="fig7",
                            label=FIG_LABELS.get(alg, alg),
                            span_attrs={"fraction": column},
                        ).stats.simulated_seconds
                    )
                )
                tables[alg].set(spec.name, column, cell)
    return tables


# ----------------------------------------------------------------------
# Exps 7-8: Figs. 8-9 — batch parameters b and k
# ----------------------------------------------------------------------
def run_fig8_batch_size(
    dataset_names: Sequence[str] | None = None,
    b_values: Sequence[float] = (1, 2, 4, 8, 16, 32, 64, 128),
    growth_factor: float = 2.0,
    num_nodes: int = 32,
    cost_model: CostModel | None = None,
) -> ExperimentTable:
    """Exp 7: DRL_b index time as the initial batch size b varies."""
    if cost_model is None:
        cost_model = paper_scale_model()
    columns = [f"b={b:g}" for b in b_values]
    table = ExperimentTable(
        "Fig. 8 — Effect of initial batch size b (simulated s)", columns
    )
    for spec in _medium_specs(dataset_names):
        graph = spec.load()
        order = degree_order(graph)
        for b, column in zip(b_values, columns):
            cell = _guard(
                lambda b=b: Cell(
                    _labeled_index_time(
                        "drl-b",
                        graph,
                        order,
                        num_nodes,
                        cost_model,
                        dataset=spec.name,
                        experiment="fig8",
                        label="DRL_b",
                        span_attrs={"b": b},
                        initial_batch_size=b,
                        growth_factor=growth_factor,
                    ).stats.simulated_seconds
                )
            )
            table.set(spec.name, column, cell)
    return table


def run_fig9_factor_k(
    dataset_names: Sequence[str] | None = None,
    k_values: Sequence[float] = (1, 1.5, 2, 2.5, 3, 3.5, 4),
    initial_batch_size: float = 2,
    num_nodes: int = 32,
    cost_model: CostModel | None = None,
) -> ExperimentTable:
    """Exp 8: DRL_b index time as the increment factor k varies."""
    if cost_model is None:
        cost_model = paper_scale_model()
    columns = [f"k={k:g}" for k in k_values]
    table = ExperimentTable(
        "Fig. 9 — Effect of increment factor k (simulated s)", columns
    )
    for spec in _medium_specs(dataset_names):
        graph = spec.load()
        order = degree_order(graph)
        for k, column in zip(k_values, columns):
            cell = _guard(
                lambda k=k: Cell(
                    _labeled_index_time(
                        "drl-b",
                        graph,
                        order,
                        num_nodes,
                        cost_model,
                        dataset=spec.name,
                        experiment="fig9",
                        label="DRL_b",
                        span_attrs={"k": k},
                        initial_batch_size=initial_batch_size,
                        growth_factor=k,
                    ).stats.simulated_seconds
                )
            )
            table.set(spec.name, column, cell)
    return table


# ----------------------------------------------------------------------
# Ablations (ours, motivated by the paper's design choices)
# ----------------------------------------------------------------------
def run_ablation_orders(
    dataset_names: Sequence[str] | None = None,
    strategies: Sequence[str] = ("degree", "out-degree", "in-degree", "random"),
    num_nodes: int = 32,
    cost_model: CostModel | None = None,
) -> tuple[ExperimentTable, ExperimentTable]:
    """DRL_b index time and size under different vertex orders.

    The paper asserts the degree product "works well in practice";
    this quantifies how much worse the alternatives are.
    """
    if cost_model is None:
        cost_model = paper_scale_model()
    columns = list(strategies)
    time_table = ExperimentTable(
        "Ablation — DRL_b index time per order strategy (simulated s)", columns
    )
    size_table = ExperimentTable(
        "Ablation — index size per order strategy (KiB)", columns, precision=1
    )
    for spec in _medium_specs(dataset_names):
        graph = spec.load()
        for strategy in strategies:
            order = ORDER_STRATEGIES[strategy](graph)
            try:
                result = _labeled_index_time(
                    "drl-b",
                    graph,
                    order,
                    num_nodes,
                    cost_model,
                    dataset=spec.name,
                    experiment="ablation-orders",
                    label="DRL_b",
                    span_attrs={"order": strategy},
                )
            except TimeLimitExceeded:
                time_table.set(spec.name, strategy, Cell.timeout())
                size_table.set(spec.name, strategy, Cell.timeout())
                continue
            time_table.set(spec.name, strategy, result.stats.simulated_seconds)
            size_table.set(spec.name, strategy, result.index.size_bytes() / 1024)
    return time_table, size_table


def run_ablation_partitioners(
    dataset_names: Sequence[str] | None = None,
    strategies: Sequence[str] = ("hash", "modulo", "range", "block"),
    num_nodes: int = 32,
    cost_model: CostModel | None = None,
) -> ExperimentTable:
    """DRL_b communication time under different vertex partitioners."""
    if cost_model is None:
        cost_model = paper_scale_model()
    columns = list(strategies)
    table = ExperimentTable(
        "Ablation — DRL_b communication seconds per partitioner", columns
    )
    for spec in _medium_specs(dataset_names):
        graph = spec.load()
        order = degree_order(graph)
        for strategy in strategies:
            partitioner = PARTITIONER_STRATEGIES[strategy](
                num_nodes, graph.num_vertices
            )
            cell = _guard(
                lambda partitioner=partitioner, strategy=strategy: Cell(
                    _labeled_index_time(
                        "drl-b",
                        graph,
                        order,
                        num_nodes,
                        cost_model,
                        dataset=spec.name,
                        experiment="ablation-partitioners",
                        label="DRL_b",
                        span_attrs={"partitioner": strategy},
                        partitioner=partitioner,
                    ).stats.communication_seconds
                )
            )
            table.set(spec.name, strategy, cell)
    return table


def run_ablation_check_pruning(
    dataset_names: Sequence[str] | None = None,
    num_nodes: int = 32,
    cost_model: CostModel | None = None,
) -> ExperimentTable:
    """DRL with and without the in-flight Check prune (Alg. 3 line 14).

    Without it, correctness is preserved by the final cleanup but the
    flood explores far more of the graph — quantifying how much work
    the inverted lists save.
    """
    if cost_model is None:
        cost_model = paper_scale_model()
    columns = ["with Check", "without Check"]
    table = ExperimentTable(
        "Ablation — DRL compute units with/without Check pruning", columns,
        precision=0,
    )
    for spec in _medium_specs(dataset_names):
        graph = spec.load()
        order = degree_order(graph)
        for pruning, column in ((True, columns[0]), (False, columns[1])):
            cell = _guard(
                lambda pruning=pruning: Cell(
                    drl_index(
                        graph,
                        order,
                        num_nodes=num_nodes,
                        cost_model=cost_model,
                        check_pruning=pruning,
                    ).stats.compute_units
                )
            )
            table.set(spec.name, column, cell)
    return table


# ----------------------------------------------------------------------
# Robustness: fault injection and recovery overhead
# ----------------------------------------------------------------------
#: The default scenario of ``run_fault_recovery``: one node dies a few
#: super-steps in, another runs 4x slow, and 1% of remote messages need
#: retransmission.  Deterministic via the embedded seed.
DEFAULT_FAULT_SPEC = "crash=1@3,straggler=2x4.0,loss=0.01,seed=42"


def run_fault_recovery(
    dataset_names: Sequence[str] | None = None,
    num_nodes: int = 32,
    cost_model: CostModel | None = None,
    fault_spec: str = DEFAULT_FAULT_SPEC,
    checkpoint_interval: int = 2,
) -> ExperimentTable:
    """Build DRL_b fault-free and under a fault plan, side by side.

    Columns: clean and faulty build times, the recovery and checkpoint
    components of the faulty build, and whether the two indexes are
    identical (they must be — 1 = identical, 0 would be a bug).
    """
    from repro.faults import FaultPlan

    if cost_model is None:
        cost_model = paper_scale_model()
    plan = FaultPlan.parse(fault_spec)
    columns = [
        "clean s", "faulty s", "recovery s", "checkpoint s", "identical"
    ]
    table = ExperimentTable(
        f"Robustness — DRL_b under faults ({plan.describe()}; "
        f"checkpoint every {checkpoint_interval})",
        columns,
        precision=6,
    )
    for spec in _medium_specs(dataset_names):
        graph = spec.load()
        order = degree_order(graph)
        clean = _guard(
            lambda: _labeled_index_time(
                "drl-b", graph, order, num_nodes, cost_model,
                dataset=spec.name, experiment="faults", label="clean",
            )
        )
        if isinstance(clean, Cell):  # failure marker
            for column in columns:
                table.set(spec.name, column, clean)
            continue
        table.set(spec.name, "clean s", clean.stats.simulated_seconds)
        clean_index = clean.index

        def _faulty() -> LabelingResult:
            return _labeled_index_time(
                "drl-b", graph, order, num_nodes, cost_model,
                dataset=spec.name, experiment="faults", label="faulty",
                faults=plan, checkpoint_interval=checkpoint_interval,
            )

        faulty = _guard(_faulty)
        if isinstance(faulty, Cell):  # failure marker
            for column in columns[1:]:
                table.set(spec.name, column, faulty)
            continue
        stats = faulty.stats
        table.set(spec.name, "faulty s", stats.simulated_seconds)
        table.set(spec.name, "recovery s", stats.recovery_seconds)
        table.set(spec.name, "checkpoint s", stats.checkpoint_seconds)
        table.set(
            spec.name, "identical", float(faulty.index == clean_index)
        )
    return table
