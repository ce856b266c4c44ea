"""Tests for the command-line interface."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core.labels import ReachabilityIndex
from repro.graph.io import read_edge_list


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    assert main(["generate", str(path), "--kind", "social",
                 "--vertices", "200", "--seed", "1"]) == 0
    return path


@pytest.fixture
def index_file(tmp_path, graph_file):
    path = tmp_path / "graph.idx"
    assert main(["build", str(graph_file), "-o", str(path)]) == 0
    return path


def test_datasets_listing(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "WEBW" in out and "WEBS" in out
    assert out.count("yes") == 6  # the six medium graphs


def test_generate_writes_edge_list(graph_file):
    graph = read_edge_list(graph_file)
    assert graph.num_vertices == 200
    assert graph.num_edges > 100


def test_generate_all_kinds(tmp_path):
    for kind in ("web", "citation", "knowledge", "random", "dag"):
        path = tmp_path / f"{kind}.txt"
        assert main(["generate", str(path), "--kind", kind,
                     "--vertices", "50", "--seed", "2"]) == 0
        assert read_edge_list(path).num_vertices <= 50 or True


def test_build_and_info(graph_file, index_file, capsys):
    index = ReachabilityIndex.load(index_file)
    assert index.num_vertices == 200
    assert main(["info", str(index_file)]) == 0
    out = capsys.readouterr().out
    assert "vertices:      200" in out
    assert "label entries" in out


def test_build_methods(tmp_path, graph_file):
    indexes = []
    for method in ("tol", "drl", "drl-b"):
        out = tmp_path / f"{method}.idx"
        assert main(["build", str(graph_file), "-o", str(out),
                     "--method", method, "--nodes", "4"]) == 0
        indexes.append(ReachabilityIndex.load(out))
    assert indexes[0] == indexes[1] == indexes[2]


@pytest.mark.parametrize("method", ["drl-b", "drl-b-m"])
def test_build_batch_flags_reach_both_batch_methods(
    tmp_path, graph_file, capsys, method
):
    import re

    supersteps = {}
    for batch_size in ("2", "64"):
        assert main(["build", str(graph_file), "-o", str(tmp_path / "g.idx"),
                     "--method", method, "--nodes", "4",
                     "--batch-size", batch_size, "--growth-factor", "4"]) == 0
        out = capsys.readouterr().out
        supersteps[batch_size] = int(re.search(r"over (\d+) supersteps", out)[1])
    assert supersteps["64"] < supersteps["2"]


def test_build_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert main(["build", str(missing), "-o", str(tmp_path / "x.idx")]) == 2
    assert "no such file" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["1 x", "1", "1 -2"])
@pytest.mark.parametrize("verb", ["build", "analyze"])
def test_malformed_edge_list_is_one_error_line(tmp_path, capsys, verb, row):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"0 1\n{row}\n")
    argv = [verb, str(bad)] + (["-o", str(tmp_path / "x.idx")] if verb == "build" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:2: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_an_old_binary_graph_is_one_error_line(tmp_path, capsys):
    # The binary format the package once wrote: RPRO, a header, then
    # little-endian 64-bit ids; small ids make it valid UTF-8.
    old = tmp_path / "graph.bin"
    old.write_bytes(b"RPRO" + struct.pack("<IQQQQ", 1, 3, 1, 0, 1))
    out = tmp_path / "x.idx"
    assert main(["build", str(old), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {old}:1: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_query_single_pair(index_file, capsys):
    assert main(["query", str(index_file), "0", "0"]) == 0
    assert "0 0 reachable" in capsys.readouterr().out


def test_query_pairs_file(tmp_path, index_file, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 0\n0 199\n500 0\n")
    assert main(["query", str(index_file), "--pairs", str(pairs)]) == 0
    out = capsys.readouterr().out
    assert "0 0 reachable" in out
    assert "500 0 out-of-range" in out


def test_query_pairs_skips_malformed_lines(tmp_path, index_file, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 0\nnot numbers\n7\n1 2\n3 x\n\n")
    assert main(["query", str(index_file), "--pairs", str(pairs)]) == 1
    captured = capsys.readouterr()
    assert "0 0 reachable" in captured.out  # valid lines still answered
    assert "1 2" in captured.out
    assert captured.err.count("skipped") == 4  # 3 line warnings + summary
    assert "expected two columns" in captured.err
    assert "non-integer pair" in captured.err
    assert "skipped 3 malformed line(s)" in captured.err


def test_query_requires_arguments(index_file, capsys):
    assert main(["query", str(index_file)]) == 2
    assert "SOURCE TARGET" in capsys.readouterr().err


def test_query_missing_index(tmp_path, capsys):
    assert main(["query", str(tmp_path / "missing.idx"), "0", "1"]) == 2


def test_info_missing_index(tmp_path):
    assert main(["info", str(tmp_path / "missing.idx")]) == 2


def test_analyze(graph_file, capsys):
    assert main(["analyze", str(graph_file)]) == 0
    out = capsys.readouterr().out
    assert "vertices: 200" in out
    assert "bow-tie" in out
    assert "SCCs" in out


def test_analyze_missing_file(tmp_path):
    assert main(["analyze", str(tmp_path / "none.txt")]) == 2


def test_validate_good_index(graph_file, index_file, capsys):
    assert main(["validate", str(graph_file), str(index_file),
                 "--sample", "500"]) == 0
    out = capsys.readouterr().out
    assert "cover:     OK (500 checked)" in out
    assert "soundness:" in out


def test_validate_detects_wrong_index(tmp_path, graph_file, capsys):
    # An index built for a DIFFERENT graph fails validation.
    other = tmp_path / "other.txt"
    main(["generate", str(other), "--kind", "social",
          "--vertices", "200", "--seed", "99"])
    wrong_index = tmp_path / "wrong.idx"
    main(["build", str(other), "-o", str(wrong_index)])
    code = main(["validate", str(graph_file), str(wrong_index)])
    assert code == 1
    assert "FAILED" in capsys.readouterr().out


def test_validate_missing_files(tmp_path, index_file):
    assert main(["validate", str(tmp_path / "no.txt"), str(index_file)]) == 2


def test_bench_fig8_single_dataset(capsys):
    assert main(["bench", "fig8", "--datasets", "GO"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 8" in out and "GO" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# ----------------------------------------------------------------------
# Telemetry flags and the trace subcommand
# ----------------------------------------------------------------------
def test_build_trace_out_then_trace_summary(tmp_path, graph_file, capsys):
    import json

    trace_file = tmp_path / "build.jsonl"
    assert main(["build", str(graph_file), "-o", str(tmp_path / "g.idx"),
                 "--nodes", "4", "--trace-out", str(trace_file)]) == 0
    captured = capsys.readouterr()
    assert f"trace written to {trace_file}" in captured.err
    records = [json.loads(line)
               for line in trace_file.read_text().splitlines()]
    kinds = {r["kind"] for r in records}
    assert kinds == {"span", "event"}
    names = {r["name"] for r in records if r["kind"] == "span"}
    assert "cli.build" in names and "pregel.run" in names
    assert "drl_b.batch" in names

    assert main(["trace", str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert "Top spans by simulated time" in out
    assert "Super-steps of the longest run" in out


def test_query_verbose_logs_telemetry(index_file, capsys):
    assert main(["query", str(index_file), "0", "0", "--verbose"]) == 0
    captured = capsys.readouterr()
    assert "0 0 reachable" in captured.out
    assert "span cli.query" in captured.err


def test_bench_fig5_trace_out_reproduces_table(tmp_path, capsys):
    trace_file = tmp_path / "fig5.jsonl"
    assert main(["bench", "fig5", "--datasets", "GO",
                 "--trace-out", str(trace_file)]) == 0
    bench_out = capsys.readouterr().out
    assert main(["trace", str(trace_file)]) == 0
    trace_out = capsys.readouterr().out
    assert "Experiment fig5" in trace_out
    # The cell values the harness printed reappear from the spans alone.
    bench_row = next(l for l in bench_out.splitlines() if l.startswith("GO"))
    trace_row = next(
        l for l in trace_out.splitlines()
        if l.startswith("GO") and "comp" not in l
    )
    for value in bench_row.split("|")[1:]:
        assert value.strip() in trace_row


def test_trace_out_unwritable_path(tmp_path, graph_file, capsys):
    bad = tmp_path / "no-such-dir" / "t.jsonl"
    assert main(["build", str(graph_file), "-o", str(tmp_path / "g.idx"),
                 "--trace-out", str(bad)]) == 2
    assert "cannot write trace" in capsys.readouterr().err


def test_trace_missing_file(tmp_path, capsys):
    assert main(["trace", str(tmp_path / "none.jsonl")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_trace_rejects_non_jsonl(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n")
    assert main(["trace", str(bad)]) == 2
    assert "not JSON" in capsys.readouterr().err


def test_trace_tolerates_truncated_export(tmp_path, graph_file, capsys):
    """A trace cut off mid-write still summarizes; exit 1 + warning."""
    trace_file = tmp_path / "build.jsonl"
    assert main(["build", str(graph_file), "-o", str(tmp_path / "g.idx"),
                 "--nodes", "4", "--trace-out", str(trace_file)]) == 0
    capsys.readouterr()
    data = trace_file.read_bytes()
    truncated = tmp_path / "truncated.jsonl"
    truncated.write_bytes(data[: len(data) - 30])
    assert main(["trace", str(truncated)]) == 1
    captured = capsys.readouterr()
    assert "Top spans by simulated time" in captured.out
    assert "skipped 1 malformed line(s)" in captured.err


#: Valid JSON that is not a usable record; each used to crash a reader.
_MALFORMED_RECORDS = [
    '{"kind":"span"}',
    '{"kind":"event","attrs":{}}',
    '{"kind":"span","name":"a","id":1}',
    '{"kind":"event","name":"serve.request",'
    '"attrs":{"trace_id":"t-9","stages":["not an object"]}}',
]

_GOOD_TRACE = (
    '{"kind":"span","name":"serve.run","id":1,"parent":null,"start":0.0,'
    '"wall_seconds":0.1,"simulated_seconds":0.5,"status":"ok","attrs":{}}\n'
    '{"kind":"event","name":"serve.request","span":1,"wall":0.05,"attrs":'
    '{"trace_id":"t-1","source":0,"target":1,"arrival":0.0,"outcome":"served",'
    '"latency_seconds":1e-6,"stages":[{"stage":"admission","seconds":1e-7}]}}\n'
    '{"kind":"event","name":"pregel.superstep","span":1,"wall":0.06,'
    '"attrs":{"superstep":1}}\n'
)


def _trace_readers(tmp_path):
    return [
        ["trace"],
        ["top", "--once"],
        ["profile", "--chrome-trace", str(tmp_path / "chrome.json")],
    ]


@pytest.mark.parametrize("line", _MALFORMED_RECORDS)
def test_trace_readers_warn_about_a_malformed_record(tmp_path, capsys, line):
    """Mixed into a good trace: a counted warning, exit 1, the view
    still printed — from every command that reads a trace."""
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text(_GOOD_TRACE + line + "\n")
    for command in _trace_readers(tmp_path):
        assert main([command[0], str(mixed), *command[1:]]) == 1, command
        captured = capsys.readouterr()
        assert captured.out.strip(), command
        assert f"warning: {mixed}:4: " in captured.err
        assert "; skipped" in captured.err
        assert "skipped 1 malformed line(s)" in captured.err
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("line", _MALFORMED_RECORDS)
def test_trace_readers_reject_a_file_of_malformed_records(tmp_path, capsys, line):
    """On its own: a typed error and exit 2, never a traceback."""
    bad = tmp_path / "bad.jsonl"
    bad.write_text(line + "\n")
    for command in _trace_readers(tmp_path):
        assert main([command[0], str(bad), *command[1:]]) == 2, command
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: no valid trace records")
        assert captured.out == ""
    assert not (tmp_path / "chrome.json").exists()


#: The ``metric`` records a session flushed at its end while telemetry
#: kept a metrics registry: a counter, a gauge and a histogram with
#: trace-id exemplars, as such traces hold them.
_OLD_METRIC_RECORDS = (
    '{"kind":"metric","metric":"counter","name":"serve.served","value":1}\n'
    '{"kind":"metric","metric":"gauge","name":"serve.queue_peak","value":1}\n'
    '{"kind":"metric","metric":"histogram","name":"serve.latency_seconds",'
    '"count":1,"sum":1e-6,"min":1e-6,"max":1e-6,"buckets":[1e-7,1e-6],'
    '"counts":[0,1,0],"exemplars":{"1":[{"exemplar":"t-1","value":1e-6}]}}\n'
)


def test_trace_readers_pass_over_the_metric_records_of_an_old_trace(tmp_path, capsys):
    """An old trace reads with no warning and exit 0, and every view of
    it is the view of its spans and events alone."""
    old = tmp_path / "old.jsonl"
    old.write_text(_GOOD_TRACE + _OLD_METRIC_RECORDS)
    bare = tmp_path / "bare.jsonl"
    bare.write_text(_GOOD_TRACE)
    for command in _trace_readers(tmp_path):
        outputs = []
        for path in (old, bare):
            assert main([command[0], str(path), *command[1:]]) == 0, command
            captured = capsys.readouterr()
            assert captured.err in (
                "", f"chrome trace written to {tmp_path / 'chrome.json'}\n"
            ), captured.err
            outputs.append(captured.out)
        assert outputs[0] == outputs[1], command


# ----------------------------------------------------------------------
# The profile subcommand
# ----------------------------------------------------------------------
@pytest.fixture
def straggler_trace(tmp_path, graph_file):
    """A DRL_b build trace with node 2 slowed 4x."""
    trace_file = tmp_path / "straggler.jsonl"
    assert main(["build", str(graph_file), "-o", str(tmp_path / "s.idx"),
                 "--method", "drl-b", "--nodes", "4",
                 "--faults", "straggler=2x4.0",
                 "--trace-out", str(trace_file)]) == 0
    return trace_file


def test_profile_names_straggler_and_wait_share(straggler_trace, capsys):
    """The issue's acceptance check: node 2 is the dominant straggler
    and the healthy nodes report non-zero barrier-wait share."""
    assert main(["profile", str(straggler_trace)]) == 0
    out = capsys.readouterr().out
    assert "Skew report" in out
    assert "stragglers: node 2 (4.0x)" in out
    rows = {
        int(line.split("|")[0]): line
        for line in out.splitlines()
        if line.strip().startswith(("0 ", "1 ", "2 ", "3 "))
        and line.count("|") >= 7
    }
    for node in (0, 1, 3):
        wait_share = float(rows[node].split("|")[6].strip().rstrip("%"))
        assert wait_share > 0
    assert "Critical path" in out
    assert "Top spans by simulated time" in out


def test_profile_clean_run_is_near_balanced(tmp_path, graph_file, capsys):
    trace_file = tmp_path / "clean.jsonl"
    assert main(["build", str(graph_file), "-o", str(tmp_path / "c.idx"),
                 "--method", "drl-b", "--nodes", "4",
                 "--trace-out", str(trace_file)]) == 0
    capsys.readouterr()
    assert main(["profile", str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert "near-balanced" in out
    assert "stragglers:" not in out


def test_profile_exports_chrome_trace_and_flamegraph(
    straggler_trace, tmp_path, capsys
):
    import json

    chrome = tmp_path / "chrome.json"
    folded = tmp_path / "stacks.folded"
    assert main(["profile", str(straggler_trace),
                 "--chrome-trace", str(chrome),
                 "--flamegraph", str(folded)]) == 0
    capsys.readouterr()
    doc = json.loads(chrome.read_text())
    process_names = {
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    for node in range(4):
        assert f"node {node} (simulated)" in process_names
    stacks = folded.read_text().splitlines()
    assert stacks
    for line in stacks:
        path, value = line.rsplit(" ", 1)
        assert ";" in path and int(value) > 0


def test_profile_missing_file(tmp_path, capsys):
    assert main(["profile", str(tmp_path / "none.jsonl")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_profile_trace_without_node_events(tmp_path, capsys):
    trace = tmp_path / "spanonly.jsonl"
    trace.write_text(
        '{"kind":"span","name":"a","id":1,"parent":null,"start":0.0,'
        '"wall_seconds":0.1,"simulated_seconds":0.5,"status":"ok","attrs":{}}\n'
    )
    assert main(["profile", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "no pregel.node events" in out
    assert "Top spans by simulated time" in out


# ----------------------------------------------------------------------
# The bench baseline gate
# ----------------------------------------------------------------------
def test_bench_save_then_check_baseline_roundtrip(tmp_path, capsys):
    import json

    baseline = tmp_path / "fig8.json"
    assert main(["bench", "fig8", "--datasets", "GO",
                 "--save-baseline", str(baseline)]) == 0
    assert "baseline saved" in capsys.readouterr().err
    doc = json.loads(baseline.read_text())
    assert doc["experiment"] == "fig8" and doc["metrics"]
    # Unchanged tree: the deterministic simulator reproduces exactly.
    assert main(["bench", "fig8", "--datasets", "GO",
                 "--check-baseline", str(baseline)]) == 0
    assert "0 failure(s)" in capsys.readouterr().out


def test_bench_check_baseline_fails_on_perturbation(tmp_path, capsys):
    import json

    baseline = tmp_path / "fig8.json"
    assert main(["bench", "fig8", "--datasets", "GO",
                 "--save-baseline", str(baseline)]) == 0
    capsys.readouterr()
    doc = json.loads(baseline.read_text())
    key = sorted(k for k, v in doc["metrics"].items()
                 if isinstance(v, float))[0]
    doc["metrics"][key] *= 2.0
    baseline.write_text(json.dumps(doc))
    assert main(["bench", "fig8", "--datasets", "GO",
                 "--check-baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert f"FAIL {key}" in out
    assert "improved" in out  # halved relative to the doubled baseline


def test_bench_check_baseline_threshold_flag(tmp_path, capsys):
    import json

    baseline = tmp_path / "fig8.json"
    assert main(["bench", "fig8", "--datasets", "GO",
                 "--save-baseline", str(baseline)]) == 0
    doc = json.loads(baseline.read_text())
    key = sorted(k for k, v in doc["metrics"].items()
                 if isinstance(v, float))[0]
    doc["metrics"][key] *= 1.05  # 5% off: fails at 1%, passes at 10%
    baseline.write_text(json.dumps(doc))
    assert main(["bench", "fig8", "--datasets", "GO",
                 "--check-baseline", str(baseline),
                 "--baseline-threshold", "0.01"]) == 1
    capsys.readouterr()
    assert main(["bench", "fig8", "--datasets", "GO",
                 "--check-baseline", str(baseline),
                 "--baseline-threshold", "0.10"]) == 0


def test_bench_check_missing_baseline_exits_2(tmp_path, capsys):
    assert main(["bench", "fig8", "--datasets", "GO",
                 "--check-baseline", str(tmp_path / "none.json")]) == 2
    assert "--save-baseline" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Fault injection flags and ReproError exit codes
# ----------------------------------------------------------------------
def test_build_with_faults_identical_index(tmp_path, graph_file):
    clean = tmp_path / "clean.idx"
    faulty = tmp_path / "faulty.idx"
    assert main(["build", str(graph_file), "-o", str(clean),
                 "--method", "drl-b", "--nodes", "8"]) == 0
    assert main(["build", str(graph_file), "-o", str(faulty),
                 "--method", "drl-b", "--nodes", "8",
                 "--faults", "crash=1@3,straggler=2x2.0,loss=0.01,seed=42",
                 "--checkpoint-interval", "2"]) == 0
    # The save format is deterministic, so identical indexes mean
    # byte-identical files.
    assert clean.read_bytes() == faulty.read_bytes()


def test_build_reports_fault_summary(tmp_path, graph_file, capsys):
    out = tmp_path / "f.idx"
    assert main(["build", str(graph_file), "-o", str(out), "--nodes", "8",
                 "--faults", "crash=1@3", "--checkpoint-interval", "2"]) == 0
    assert "crash(es)" in capsys.readouterr().out


def test_build_bad_fault_spec_exits_2(tmp_path, graph_file, capsys):
    assert main(["build", str(graph_file), "-o", str(tmp_path / "x.idx"),
                 "--faults", "crash=nope"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_build_fault_plan_out_of_range_exits_2(tmp_path, graph_file, capsys):
    assert main(["build", str(graph_file), "-o", str(tmp_path / "x.idx"),
                 "--nodes", "4", "--faults", "crash=9@2"]) == 2
    assert "only 4 nodes" in capsys.readouterr().err


def test_build_faults_rejected_for_serial_tol(tmp_path, graph_file, capsys):
    assert main(["build", str(graph_file), "-o", str(tmp_path / "x.idx"),
                 "--method", "tol", "--faults", "crash=1@2"]) == 2
    assert "serial" in capsys.readouterr().err


def test_build_bad_checkpoint_interval_exits_2(tmp_path, graph_file, capsys):
    assert main(["build", str(graph_file), "-o", str(tmp_path / "x.idx"),
                 "--checkpoint-interval", "0"]) == 2
    assert "must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,library_says",
    [
        # Each rule below used to be re-checked by ``_cmd_build``; the
        # library's own refusal is now the message.  The counts
        # (--checkpoint-interval, --workers, --nodes) never reach the
        # library: their argparse type refuses them, naming the flag.
        (["--engine", "mp", "--faults", "crash=1@2"],
         "the 'mp' engine does not support fault injection or checkpointing"),
        (["--engine", "mp", "--checkpoint-interval", "2"],
         "the 'mp' engine does not support fault injection or checkpointing"),
        (["--checkpoint-interval", "0"],
         "--checkpoint-interval must be an integer >= 1, got 0"),
        (["--engine", "mp", "--workers", "0"],
         "workers must be an integer >= 1, got 0"),
        (["--nodes", "4", "--faults", "straggler=9x2"],
         "fault plan names node 9 but the cluster has only 4 nodes"),
        (["--nodes", "2", "--faults", "crash=0@1,crash=1@2"], "survivor"),
        (["--nodes", "0"], "--nodes must be an integer >= 1, got 0"),
    ],
)
def test_build_reports_the_librarys_own_refusal(
    tmp_path, graph_file, capsys, flags, library_says
):
    out = tmp_path / "x.idx"
    assert main(["build", str(graph_file), "-o", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert library_says in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,says",
    [
        (["--workers", "2"], "only applies to --engine mp"),
        (["--method", "tol", "--workers", "2"], "only applies to --engine mp"),
        (["--method", "tol", "--engine", "mp"], "serial 'tol' baseline"),
        (["--method", "tol", "--checkpoint-interval", "2"], "serial 'tol' baseline"),
    ],
)
def test_build_keeps_the_rules_only_the_cli_has(
    tmp_path, graph_file, capsys, flags, says
):
    assert main(["build", str(graph_file), "-o", str(tmp_path / "x.idx"),
                 *flags]) == 2
    assert says in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec", ["straggler=1xnan", "straggler=1xinf", "loss=nan", "crash=3"]
)
def test_build_bad_fault_clause_names_its_shape(tmp_path, graph_file, capsys, spec):
    assert main(["build", str(graph_file), "-o", str(tmp_path / "x.idx"),
                 "--faults", spec]) == 2
    err = capsys.readouterr().err
    key = spec.partition("=")[0]
    assert err.startswith(f"error: bad fault clause {spec!r}: expected {key}=")


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "MISSING", "-o", "x.idx"],
        ["query", "MISSING", "0", "1"],
        ["info", "MISSING"],
        ["analyze", "MISSING"],
        ["validate", "MISSING", "MISSING"],
        ["serve-bench", "MISSING"],
        ["fuzz", "--replay", "MISSING"],
        ["trace", "MISSING"],
        ["top", "MISSING", "--once"],
        ["profile", "MISSING"],
    ],
)
def test_missing_input_file_is_one_error_line(tmp_path, capsys, argv):
    missing = str(tmp_path / "nope")
    argv = [missing if arg == "MISSING" else arg for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: no such file: {missing}\n"


_INT, _POSITIVE = "must be an integer", "must be a finite number > 0, got"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["trace", "FILE", "--supersteps", "-3"], f"--supersteps {_INT} >= 0, got -3"),
        (["trace", "FILE", "--top", "-1"], f"--top {_INT} >= 0, got -1"),
        (["trace", "FILE", "--slowest", "-1"], f"--slowest {_INT} >= 0, got -1"),
        (["profile", "FILE", "--top", "-2"], f"--top {_INT} >= 0, got -2"),
        (["validate", "FILE", "FILE", "--sample", "0"], f"--sample {_INT} >= 1, got 0"),
        (["fuzz", "--cases", "-2"], f"--cases {_INT} >= 1, got -2"),
        (["generate", "FILE", "-n", "-5"], "need at least two vertices"),
        (["top", "FILE", "--refresh", "-1"], f"--refresh {_POSITIVE} -1.0"),
        (["top", "FILE", "--once", "--window", "0"], f"--window {_POSITIVE} 0.0"),
        (["top", "FILE", "--once", "--slowest", "x"], f"--slowest {_INT} >= 0, got 'x'"),
        (["fuzz", "--time-budget", "nan"], f"--time-budget {_POSITIVE} nan"),
        (["fuzz", "--time-budget", "0"], f"--time-budget {_POSITIVE} 0.0"),
        (["build", "FILE", "-o", "FILE", "--time-limit", "nan"], f"--time-limit {_POSITIVE} nan"),
        (["build", "FILE", "-o", "FILE", "--time-limit", "-1"], f"--time-limit {_POSITIVE} -1.0"),
        (["serve-bench", "--deadline", "nan"], f"--deadline {_POSITIVE} nan"),
        (["serve-bench", "--rate", "0"], f"--rate {_POSITIVE} 0.0"),
        (["serve-bench", "--write-rate", "-1"], f"--write-rate {_POSITIVE} -1.0"),
        (["serve-bench", "--replication-delay", "nan"],
         "--replication-delay must be a finite number >= 0, got nan"),
        (["serve-bench", "--requests", "0"], f"--requests {_INT} >= 1, got 0"),
        (["serve-bench", "--mode", "mixed", "--writes", "-5"], f"--writes {_INT} >= 0, got -5"),
        (["serve-bench", "--max-lag", "0"], f"--max-lag {_INT} >= 1, got 0"),
        (["serve-bench", "--vertices", "1"], f"--vertices {_INT} >= 2, got 1"),
        (["serve-bench", "--shards", "0"], f"--shards {_INT} >= 1, got 0"),
        (["serve-bench", "--replicas", "0"], f"--replicas {_INT} >= 1, got 0"),
        (["serve-bench", "--queue-depth", "0"], f"--queue-depth {_INT} >= 1, got 0"),
        (["serve-bench", "--batch-size", "-4"], f"--batch-size {_INT} >= 1, got -4"),
        (["serve-bench", "--cache-size", "0"], f"--cache-size {_INT} >= 1, got 0"),
        (["serve-bench", "--clients", "0"], f"--clients {_INT} >= 1, got 0"),
        (["serve-bench", "--drift-threshold", "-1"],
         f"--drift-threshold {_INT} >= 1, got -1"),
        (["serve-bench", "--zipf", "nan"],
         "--zipf must be a finite number >= 0, got nan"),
        (["serve-bench", "--insert-ratio", "nan"],
         "--insert-ratio must be a finite number in [0, 1], got 'nan'"),
        (["serve-bench", "--node-ratio", "1.5"],
         "--node-ratio must be a finite number in [0, 1], got '1.5'"),
        (["serve-bench", "--promote-ratio", "-0.1"],
         "--promote-ratio must be a finite number in [0, 1], got '-0.1'"),
        (["build", "FILE", "-o", "FILE", "--batch-size", "inf"],
         "--batch-size must be a finite number >= 1, got 'inf'"),
        (["build", "FILE", "-o", "FILE", "--batch-size", "nan"],
         "--batch-size must be a finite number >= 1, got 'nan'"),
        (["build", "FILE", "-o", "FILE", "--growth-factor", "inf"],
         "--growth-factor must be a finite number >= 1, got 'inf'"),
        (["build", "FILE", "-o", "FILE", "--growth-factor", "0.5"],
         "--growth-factor must be a finite number >= 1, got '0.5'"),
        (["build", "FILE", "-o", "FILE", "--workers", "x"], f"--workers {_INT} >= 1, got 'x'"),
    ],
)
def test_bad_count_or_seconds_flag_is_one_error_line(tmp_path, capsys, argv, err):
    path = tmp_path / "file"
    path.touch()
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


def test_build_time_limit_exceeded_exits_2(tmp_path, graph_file, capsys):
    assert main(["build", str(graph_file), "-o", str(tmp_path / "x.idx"),
                 "--time-limit", "1e-12"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cut-off" in err


def test_build_out_of_memory_exits_2(tmp_path, graph_file, capsys, monkeypatch):
    from repro.errors import OutOfMemoryError

    def exploding(*args, **kwargs):
        raise OutOfMemoryError(2**40, 2**30, "test build")

    monkeypatch.setattr("repro.cli.build_index", exploding)
    assert main(["build", str(graph_file),
                 "-o", str(tmp_path / "x.idx")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_build_superstep_limit_exits_2(tmp_path, graph_file, capsys, monkeypatch):
    from repro.pregel.engine import SuperstepLimitExceeded

    def looping(*args, **kwargs):
        raise SuperstepLimitExceeded("no termination after 7 supersteps")

    monkeypatch.setattr("repro.cli.build_index", looping)
    assert main(["build", str(graph_file),
                 "-o", str(tmp_path / "x.idx")]) == 2
    assert "supersteps" in capsys.readouterr().err


def test_bench_interrupt_flushes_partial_results(capsys, monkeypatch):
    from repro.bench.results import ExperimentTable

    def interrupted(experiment, datasets=None):
        table = ExperimentTable("Partial fig8", ["b=2"])
        table.set("GO", "b=2", 0.125)
        raise KeyboardInterrupt

    monkeypatch.setattr("repro.bench.harness.sweep", interrupted)
    assert main(["bench", "fig8"]) == 130
    captured = capsys.readouterr()
    assert "partial results" in captured.err
    assert "Partial fig8" in captured.out
    assert "0.1250" in captured.out


# ----------------------------------------------------------------------
# Scenarios and serve-bench reports
# ----------------------------------------------------------------------

_TINY_SCENARIO = """{
  "name": "cli-tiny",
  "graph": {"kind": "dag", "vertices": 60, "seed": 1},
  "traffic": {
    "pairs": {"count": 200, "seed": 2},
    "arrivals": {"shape": "poisson", "rate": 300000.0, "seed": 3}
  },
  "serving": {"shards": 2, "replicas": 2},
  "expect": {"incorrect_answers_max": 0, "availability_min": 0.99}
}
"""


def test_scenario_list(capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    assert "shard_loss_write_burst" in out
    assert "flash_crowd" in out


def test_scenario_run_file_with_report(tmp_path, capsys):
    scenario = tmp_path / "tiny.json"
    scenario.write_text(_TINY_SCENARIO)
    report = tmp_path / "report.json"
    assert main([
        "scenario", "run", str(scenario),
        "--fail-on-assert", "--report", str(report),
    ]) == 0
    out = capsys.readouterr().out
    assert "cli-tiny" in out
    assert "1/1 scenario(s) passed" in out
    import json as _json
    payload = _json.loads(report.read_text())
    assert payload["ok"] is True


def test_scenario_run_failure_sets_exit_code(tmp_path, capsys, monkeypatch):
    # chdir: a scenario run writes nothing it was not asked for.
    monkeypatch.chdir(tmp_path)
    scenario = tmp_path / "doomed.json"
    scenario.write_text(_TINY_SCENARIO.replace(
        '"availability_min": 0.99', '"availability_min": 2.0'
    ))
    # Without --fail-on-assert the run reports but exits 0.
    assert main(["scenario", "run", str(scenario)]) == 0
    assert main(["scenario", "run", str(scenario), "--fail-on-assert"]) == 1
    out = capsys.readouterr().out
    assert "0/1 scenario(s) passed" in out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doomed.json"]


@pytest.mark.parametrize("batch_size", ["NaN", "0"])
def test_scenario_run_refuses_a_bad_batch_size(tmp_path, batch_size):
    # A NaN batch size used to spin the serving loop forever, and 0
    # ended in a traceback; both are one error line and exit 2.
    scenario = tmp_path / "bad_batch.json"
    scenario.write_text(
        '{"name": "bad_batch", "serving": {"batch_size": %s}}' % batch_size
    )
    done = subprocess.run(
        [sys.executable, "-m", "repro", "scenario", "run", str(scenario)],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
    )
    assert done.returncode == 2
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: batch_size must be an integer >= 1")


def test_scenario_run_refuses_a_nan_skew(tmp_path, capsys):
    # A NaN skew made every Zipf weight NaN: the scenario served one
    # pair 200 times and reported on it.
    scenario = tmp_path / "nan_skew.json"
    scenario.write_text(
        _TINY_SCENARIO.replace('"count": 200,', '"count": 200, "skew": NaN,')
    )
    assert main(["scenario", "run", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == "error: skew must be a finite number >= 0, got nan"


@pytest.mark.parametrize(
    "setting, message",
    [
        ('"count": NaN', "updates.count must be an integer >= 1, got nan"),
        ('"count": 2.5', "updates.count must be an integer >= 1, got 2.5"),
        ('"start_seconds": NaN', "start_seconds must be a finite number >= 0, got nan"),
        ('"interval_seconds": NaN', "interval_seconds must be a finite number >= 0, got nan"),
    ],
)
def test_scenario_run_refuses_bad_update_settings(tmp_path, capsys, setting, message):
    scenario = tmp_path / "bad_updates.json"
    scenario.write_text(
        _TINY_SCENARIO.replace('"expect"', '"updates": {%s},\n  "expect"' % setting)
    )
    assert main(["scenario", "run", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == f"error: {message}"


def test_serve_bench_refuses_a_nan_zipf(capsys):
    argv = ["serve-bench", "--vertices", "60", "--requests", "50", "--zipf", "nan"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --zipf must be a finite number >= 0, got nan\n"


def test_scenario_run_unknown_name(capsys):
    assert main(["scenario", "run", "no-such-scenario"]) == 2
    assert "no-such-scenario" in capsys.readouterr().err


def test_serve_bench_report_written_atomically(tmp_path, capsys):
    report = tmp_path / "bench.json"
    assert main([
        "serve-bench", "--vertices", "80", "--requests", "200",
        "--report", str(report),
    ]) == 0
    import json as _json
    payload = _json.loads(report.read_text())
    assert payload["caching_speedup"] > 0
    assert set(payload["rows"]) == {"cached", "uncached"}
    assert all(
        row["served"] <= row["offered"] for row in payload["rows"].values()
    )


def test_serve_bench_mixed_mode_reports_write_columns(capsys):
    assert main([
        "serve-bench", "--vertices", "120", "--requests", "400",
        "--mode", "mixed", "--writes", "40", "--shards", "2",
        "--seed", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "update u/s" in out
    assert "stale reads" in out
    assert "applied" in out


def test_serve_bench_mixed_bad_ratio_exits_2(capsys):
    assert main([
        "serve-bench", "--vertices", "60", "--requests", "10",
        "--mode", "mixed", "--writes", "5", "--node-ratio", "1.5",
    ]) == 2
    assert "--node-ratio" in capsys.readouterr().err
