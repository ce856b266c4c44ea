"""The paper's evaluation (Table VI, Figs. 5-9), our ablations and the
fault-recovery run: every entry of ``repro.bench.EXPERIMENTS`` is swept
once, written to ``benchmarks/results/<name>.txt`` and held to the
shape the paper reports (``SHAPES`` below).  ``repro bench <name>``
prints the same tables without the assertions.
"""

from __future__ import annotations

import pytest
from conftest import FIG_DATASETS, save_and_print

from repro.bench import EXPERIMENTS, sweep


def _table6(time_table, size_table, _query_table):
    """DRL_b beats TOL (up to ~9x in the paper) and indexes every graph;
    TOL / BFL^C / DRL_b^M are "-" on graphs that do not fit one machine;
    BFL^D indexes everything but is slower than DRL_b; TOL, DRL_b and
    DRL_b^M share one index."""
    for row in time_table.rows:
        tol = time_table.get(row, "TOL")
        drlb = time_table.get(row, "DRL_b")
        assert drlb.ok, f"DRL_b must index every graph ({row})"
        if tol.ok:
            assert drlb.value <= tol.value, f"DRL_b slower than TOL on {row}"
        bfd = time_table.get(row, "BFL^D")
        assert bfd.ok and bfd.value > drlb.value
        # Same index => same size and query time as TOL.
        if size_table.get(row, "TOL").ok:
            assert (
                size_table.get(row, "TOL").value
                == size_table.get(row, "DRL_b").value
            )


def _fig5(table):
    """DRL is far faster than DRL- (which may hit the cut-off); DRL_b
    improves on DRL (~3.5x) and reduces communication."""
    for row in table.rows:
        drl = table.get(row, "DRL comp")
        drlb = table.get(row, "DRL_b comp")
        basic = table.get(row, "DRL- comp")
        assert drl.ok and drlb.ok, f"DRL/DRL_b must finish on {row}"
        if basic.ok:
            total_basic = basic.value + table.get(row, "DRL- comm").value
            total_drl = drl.value + table.get(row, "DRL comm").value
            assert total_basic >= total_drl, f"DRL- faster than DRL on {row}"


def _fig6(_basic, _drl, drlb):
    """DRL_b's speedup grows with the node count (max ~18x at 32 nodes);
    DRL- often cannot finish on one node within the cut-off."""
    # As in the paper, a dataset whose 1-node run exceeds the cut-off
    # has no speedup series (its "failure is marked at the title").
    complete = 0
    for row in drlb.rows:
        series = [drlb.get(row, column) for column in drlb.columns]
        if not all(cell.ok for cell in series):
            continue
        complete += 1
        assert abs(series[0].value - 1.0) < 1e-9
        # Speedup at 32 nodes must clearly exceed 1 and the 2-node one.
        assert series[-1].value > 1.5, f"no 32-node speedup on {row}"
        assert series[-1].value > series[1].value
    assert complete >= min(4, len(drlb.rows)), (
        "DRL_b should report a speedup on most graphs"
    )


def _fig7(_basic, _drl, drlb):
    """Index time grows smoothly (not explosively) with graph size."""
    for row in drlb.rows:
        series = [drlb.get(row, c) for c in drlb.columns]
        assert all(cell.ok for cell in series), f"DRL_b failed on {row}"
        # The full graph costs more than the smallest slice but by a
        # bounded factor (the paper reports 4.8x on TW).
        assert series[-1].value >= series[0].value * 0.8
        assert series[-1].value <= series[0].value * 60


def _fig8(table):
    """b has little effect, so the default b = 2 is sound."""
    for row in table.rows:
        values = [
            table.get(row, c).value for c in table.columns if table.get(row, c).ok
        ]
        assert len(values) == len(table.columns), f"DRL_b failed on {row}"
        # The paper reports max/min <= 1.5 on billion-edge graphs; on
        # our ~10^3x smaller stand-ins a batch of 128 is a visible
        # fraction of the whole graph, so the ratio is larger (see
        # EXPERIMENTS.md).  The shape claim that survives scaling is
        # that b is a bounded, non-explosive knob.
        assert max(values) / min(values) < 8.0, f"b too influential on {row}"


def _fig9(table):
    """k = 1 (constant-size batches, hence ~n/2 of them) is drastically
    slower, up to 812x; for k > 1 the index time is flat."""
    for row in table.rows:
        k1 = table.get(row, "k=1")
        others = [
            table.get(row, c)
            for c in table.columns
            if c != "k=1" and table.get(row, c).ok
        ]
        assert others, f"DRL_b failed for k>1 on {row}"
        fastest = min(cell.value for cell in others)
        slowest = max(cell.value for cell in others)
        # Flat for k > 1 (paper: ratio <= 1.4; we allow simulator slack).
        assert slowest / fastest < 3.0, f"k>1 not flat on {row}"
        # k = 1 is drastically slower (or hits the cut-off outright).
        if k1.ok:
            assert k1.value > 2.0 * fastest, f"k=1 not penalised on {row}"


def _ablation_orders(_time_table, size_table):
    """The degree order never loses, and on reachability-dense graphs
    (the citation datasets) it wins by a wide margin."""
    inflations = []
    for row in size_table.rows:
        degree = size_table.get(row, "degree")
        rand = size_table.get(row, "random")
        if degree.ok and rand.ok:
            inflations.append(rand.value / degree.value)
    assert inflations, "no dataset produced comparable sizes"
    assert sum(inflations) / len(inflations) > 1.0
    assert max(inflations) > 1.25


def _ablation_partitioners(table):
    """Communication exists (nonzero) under every partitioning."""
    for row in table.rows:
        cells = [table.get(row, c) for c in table.columns]
        assert all(cell.ok for cell in cells), f"a partitioner failed on {row}"
        assert all(cell.value > 0 for cell in cells)


def _ablation_check_pruning(table):
    """The prune must help (or at least not hurt) on most graphs."""
    wins = 0
    comparable = 0
    for row in table.rows:
        with_check = table.get(row, "with Check")
        without = table.get(row, "without Check")
        if with_check.ok and without.ok:
            comparable += 1
            if without.value >= with_check.value:
                wins += 1
    assert comparable, "no dataset finished both variants"
    assert wins >= comparable / 2


def _ablation_combiner(table):
    """A combiner can only reduce traffic (the sweep itself refuses a
    combined build whose index differs from the plain one)."""
    for row in table.rows:
        assert (
            table.get(row, "messages+combiner").value
            <= table.get(row, "messages").value
        )


def _faults(table):
    """Every faulty build completes with the clean index and is strictly
    slower; the slowdown has a nonzero recovery component."""
    assert table.rows, "no datasets ran"
    for row in table.rows:
        identical = table.get(row, "identical")
        assert identical.ok and identical.value == 1.0, (
            f"faulty build diverged from clean index on {row}"
        )
        clean = table.get(row, "clean s")
        faulty = table.get(row, "faulty s")
        recovery = table.get(row, "recovery s")
        assert clean.ok and faulty.ok and recovery.ok
        assert faulty.value > clean.value, f"faults were free on {row}"
        assert recovery.value > 0.0, f"no recovery cost recorded on {row}"


SHAPES = {
    "table6": _table6,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "ablation-orders": _ablation_orders,
    "ablation-partitioners": _ablation_partitioners,
    "ablation-check-pruning": _ablation_check_pruning,
    "ablation-combiner": _ablation_combiner,
    "faults": _faults,
}


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_paper_shape(name, benchmark):
    if name == "table6":
        # All 18 datasets even under REPRO_BENCH_FAST; 300 query pairs.
        arguments = dict(axis=300)
    else:
        arguments = dict(datasets=FIG_DATASETS)
    tables = benchmark.pedantic(
        sweep, (EXPERIMENTS[name],), arguments, rounds=1, iterations=1
    )
    save_and_print(name, "\n\n".join(table.render() for table in tables))
    SHAPES[name](*tables)
