"""Extension benchmark (ours): the related-work landscape in one table.

Compares every query-answering approach in the library on the medium
graphs — index-only (TOL index via DRL_b, condensed variant),
index-assisted (BFL, GRAIL), and index-free (online BFS) — on
build cost, index size, and mean query cost, all in the same simulated
units.  This is the quantitative version of the paper's Related Work
section.
"""

from __future__ import annotations

from conftest import FIG_DATASETS, save_and_print

from repro.baselines.bfl import build_bfl
from repro.baselines.grail import build_grail
from repro.baselines.online import OnlineSearcher
from repro.bench.results import ExperimentTable
from repro.core.build import build_index
from repro.core.condensed import build_condensed_index
from repro.pregel.cost_model import paper_scale_model
from repro.query import IndexBackend, MeteredSearchBackend
from repro.workloads.datasets import MEDIUM_DATASETS, get_dataset
from repro.workloads.queries import random_pairs

APPROACHES = ("DRL_b", "condensed", "BFL", "GRAIL", "online")


def _run():
    names = MEDIUM_DATASETS if FIG_DATASETS is None else FIG_DATASETS
    cost_model = paper_scale_model(time_limit_seconds=None)
    size_table = ExperimentTable(
        "Baselines — index size (KiB)", list(APPROACHES), precision=1
    )
    query_table = ExperimentTable(
        "Baselines — mean query cost (simulated s)",
        list(APPROACHES),
        scientific=True,
    )
    for name in names:
        graph = get_dataset(name).load()
        pairs = random_pairs(graph.num_vertices, 400, seed=11)
        index = build_index(graph, cost_model=cost_model).index
        condensed, _ = build_condensed_index(graph, cost_model=cost_model)
        metered = {
            "BFL": build_bfl(graph),
            "GRAIL": build_grail(graph),
        }
        sized = {"DRL_b": index, "condensed": condensed, **metered}
        for label, built in sized.items():
            size_table.set(name, label, built.size_bytes() / 1024)
        size_table.set(name, "online", 0.0)

        backends = {
            "DRL_b": IndexBackend(index, cost_model),
            **{
                label: MeteredSearchBackend(built, cost_model)
                for label, built in metered.items()
            },
            "online": OnlineSearcher(graph, cost_model),
        }
        for label, backend in backends.items():
            total = sum(backend.query_with_cost(s, t)[1] for s, t in pairs)
            query_table.set(name, label, total / len(pairs))
        # Inline because label_sizes does not read a condensed index:
        # two component lookups plus the merge on the DAG's labels.
        dag_index = condensed.dag_index
        units = sum(
            len(dag_index.out_labels(condensed.component_of(s)))
            + len(dag_index.in_labels(condensed.component_of(t)))
            + 2
            for s, t in pairs
        )
        query_table.set(name, "condensed", units * cost_model.t_op / len(pairs))
    return size_table, query_table


def test_baselines_overview(benchmark):
    size_table, query_table = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_and_print(
        "baselines_overview",
        size_table.render() + "\n\n" + query_table.render(),
    )
    for row in query_table.rows:
        drlb = query_table.get(row, "DRL_b").value
        online = query_table.get(row, "online").value
        # The index-only approach must dominate index-free search.
        assert drlb < online
        # Index-assisted methods sit in between or near the index side.
        assert query_table.get(row, "BFL").value < online
        assert query_table.get(row, "GRAIL").value < online


if __name__ == "__main__":
    for table in _run():
        print(table.render())
        print()
