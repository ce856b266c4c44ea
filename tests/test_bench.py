"""Tests for the experiment harness and result tables."""

import pytest

from repro.bench import EXPERIMENTS, sweep
from repro.bench.results import Cell, ExperimentTable
from repro.pregel.cost_model import paper_scale_model


# ----------------------------------------------------------------------
# Result containers
# ----------------------------------------------------------------------
def test_cell_markers():
    assert Cell.unavailable().format() == "-"
    assert Cell.timeout().format() == "INF"
    assert not Cell.unavailable().ok
    assert Cell(1.5).ok


def test_cell_formatting():
    assert Cell(1.23456).format(precision=2) == "1.23"
    assert Cell(0.00012).format(scientific=True) == "1.20e-04"
    assert Cell().format() == ""


def test_table_set_get_render():
    table = ExperimentTable("T", ["a", "b"])
    table.set("row1", "a", 1.0)
    table.set("row1", "b", Cell.timeout())
    table.set("row2", "a", Cell.unavailable())
    assert table.get("row1", "a").value == 1.0
    assert table.get("row2", "b").marker is None  # missing -> empty cell
    text = table.render()
    assert "T" in text and "row1" in text and "INF" in text and "-" in text


def test_table_rejects_unknown_column():
    table = ExperimentTable("T", ["a"])
    with pytest.raises(KeyError):
        table.set("r", "nope", 1.0)


def test_table_to_markdown():
    table = ExperimentTable("T", ["a", "b"])
    table.set("r1", "a", 1.5)
    table.set("r1", "b", Cell.unavailable())
    md = table.to_markdown()
    lines = md.splitlines()
    assert lines[0] == "| Name | a | b |"
    assert lines[1].startswith("|---")
    assert "| r1 | 1.5000 | - |" in md


def test_table_to_csv():
    table = ExperimentTable("T", ["a"])
    table.set("r1", "a", 0.25)
    table.set("r2", "a", Cell.timeout())
    csv_text = table.to_csv()
    assert "name,a" in csv_text
    assert "r1,0.25" in csv_text
    assert "r2,INF" in csv_text


def test_table_column_values_skip_markers():
    table = ExperimentTable("T", ["a"])
    table.set("r1", "a", 2.0)
    table.set("r2", "a", Cell.timeout())
    table.set("r3", "a", 3.0)
    assert table.column_values("a") == [2.0, 3.0]


# ----------------------------------------------------------------------
# Harness smoke runs (single small dataset to keep tests fast)
# ----------------------------------------------------------------------
def test_table6_single_dataset_shape():
    time_t, size_t, query_t = sweep(EXPERIMENTS["table6"], ["TW"], axis=50)
    assert time_t.rows == ["TW"]
    for table in (time_t, size_t, query_t):
        assert table.columns == ["BFL^C", "BFL^D", "TOL", "DRL_b", "DRL_b^M"]
        assert all(table.get("TW", c).ok for c in table.columns)
    # Same index as TOL: identical size and query time columns.
    assert size_t.get("TW", "TOL").value == size_t.get("TW", "DRL_b").value
    assert query_t.get("TW", "TOL").value == query_t.get("TW", "DRL_b").value


def test_table6_respects_paper_unavailability():
    time_t, _size_t, _query_t = sweep(EXPERIMENTS["table6"], ["SINA"], axis=20)
    assert time_t.get("SINA", "TOL").marker == "-"
    assert time_t.get("SINA", "DRL_b^M").marker == "-"
    assert time_t.get("SINA", "BFL^C").ok
    assert time_t.get("SINA", "DRL_b").ok


def test_fig5_single_dataset():
    (table,) = sweep(EXPERIMENTS["fig5"], ["GO"])
    assert table.rows == ["GO"]
    assert table.get("GO", "DRL comp").ok
    assert table.get("GO", "DRL_b comm").ok


def test_fig8_and_fig9_small_sweeps():
    (fig8,) = sweep(EXPERIMENTS["fig8"], ["GO"], axis=(1, 4))
    assert fig8.columns == ["b=1", "b=4"]
    assert all(fig8.get("GO", c).ok for c in fig8.columns)
    (fig9,) = sweep(EXPERIMENTS["fig9"], ["GO"], axis=(2, 4))
    assert all(fig9.get("GO", c).ok for c in fig9.columns)


def test_fig9_k1_much_slower():
    (table,) = sweep(EXPERIMENTS["fig9"], ["GO"], axis=(1, 2))
    k1 = table.get("GO", "k=1")
    k2 = table.get("GO", "k=2")
    assert k2.ok
    assert (not k1.ok) or k1.value > 2 * k2.value


def test_ablation_check_pruning_helps_on_social():
    (table,) = sweep(EXPERIMENTS["ablation-check-pruning"], ["TW"])
    with_check = table.get("TW", "with Check")
    without = table.get("TW", "without Check")
    assert with_check.ok
    assert (not without.ok) or without.value > with_check.value


def test_timeout_markers_appear_under_tight_cutoff():
    model = paper_scale_model(time_limit_seconds=1e-9)
    (table,) = sweep(EXPERIMENTS["fig5"], ["GO"], cost_model=model)
    assert table.get("GO", "DRL comp").marker == "INF"


def test_atomic_write_text(tmp_path):
    from repro.bench.results import atomic_write_text

    path = tmp_path / "out.txt"
    atomic_write_text(path, "first\n")
    assert path.read_text() == "first\n"
    atomic_write_text(path, "second\n")  # overwrite is atomic too
    assert path.read_text() == "second\n"
    # No temp droppings left behind.
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_capture_tables_collects_created_tables():
    from repro.bench.results import ExperimentTable, capture_tables

    with capture_tables() as captured:
        table = ExperimentTable("T", ["c"])
        table.set("r", "c", 1.0)
    assert captured == [table]
    # Outside the block, new tables are no longer captured.
    ExperimentTable("other", ["c"])
    assert len(captured) == 1


def test_run_fault_recovery_table():
    (table,) = sweep(EXPERIMENTS["faults"], ("GO",))
    assert table.rows == ["GO"]
    assert table.get("GO", "identical").value == 1.0
    assert table.get("GO", "recovery s").value > 0.0
    assert (
        table.get("GO", "faulty s").value > table.get("GO", "clean s").value
    )


# ----------------------------------------------------------------------
# The registry: every experiment through the one sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", EXPERIMENTS)
def test_registered_experiment_end_to_end(name, monkeypatch, capsys):
    """Columns as registered, one ``bench.cell`` span per build, and
    the CLI prints the tables' rendering — one sweep, run through
    ``repro bench``."""
    from repro import telemetry
    from repro.bench import harness
    from repro.bench.results import capture_tables
    from repro.cli import main

    experiment = EXPERIMENTS[name]
    dataset = "TW" if name == "table6" else "GO"
    builds = []
    for target in ("build_index", "build_bfl", "build_bfl_distributed"):
        builder = getattr(harness, target)

        def counted(*args, builder=builder, **kwargs):
            builds.append(builder.__name__)
            return builder(*args, **kwargs)

        monkeypatch.setattr(harness, target, counted)

    spans = []

    class CellSpans:  # a sink that keeps nothing else: k = 1 emits a lot
        def on_span(self, span):
            if span.name == "bench.cell":
                spans.append(span.attrs)

        def on_event(self, event):
            pass

        def on_metrics(self, registry):
            pass

        def close(self):
            pass

    with telemetry.session([CellSpans()]), capture_tables() as tables:
        assert main(["bench", name, "--datasets", dataset]) == 0

    variants = experiment.variants()
    assert len(tables) == len(experiment.tables)
    for index, (table, spec) in enumerate(zip(tables, experiment.tables)):
        assert table.title == spec["title"]
        assert table.rows == [dataset]
        landed = [c for v in variants for t, c, _ in v.lands if t == index]
        assert table.columns == list(dict.fromkeys(landed))
        assert all(table.get(dataset, c).format() for c in table.columns)
    # Nothing fails on these datasets, so every variant was built once.
    assert len(spans) == len(builds) == len(variants)
    for attrs in spans:
        assert attrs["experiment"] == name and attrs["dataset"] == dataset
        assert "method" in attrs and "num_nodes" in attrs

    rendered = "".join(table.render() + "\n\n" for table in tables)
    assert capsys.readouterr().out == rendered


@pytest.mark.parametrize("name", ["fig5", "ablation-orders"])
def test_out_of_memory_is_a_marker_in_every_experiment(name, monkeypatch):
    from repro.bench import harness
    from repro.errors import OutOfMemoryError

    def too_big(*args, **kwargs):
        raise OutOfMemoryError(2, 1, "build")

    monkeypatch.setattr(harness, "build_index", too_big)
    for table in sweep(EXPERIMENTS[name], ["GO"]):
        assert [table.get("GO", c).marker for c in table.columns] == (
            ["-"] * len(table.columns)
        )
