"""Tests for tools/check_docs.py — the docs-example executor."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import check_docs  # noqa: E402  (path bootstrap above)


def _write(tmp_path, text):
    path = tmp_path / "doc.md"
    path.write_text(text, encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# Block parsing
# ----------------------------------------------------------------------
def test_parse_blocks_languages_and_lines(tmp_path):
    path = _write(
        tmp_path,
        "# Title\n"
        "```python\nx = 1\n```\n"
        "text\n"
        "```bash\necho hi\n```\n"
        "```\nplain\n```\n",
    )
    blocks, _ = check_docs.parse_blocks(path)
    assert [(b.lang, b.line) for b in blocks] == [
        ("python", 2), ("bash", 6), ("", 9)
    ]
    assert blocks[0].body == ["x = 1"]


def test_parse_blocks_marker_directly_above(tmp_path):
    path = _write(
        tmp_path,
        "<!-- docs-check: skip -->\n```bash\nrepro bench fig5\n```\n",
    )
    blocks, _ = check_docs.parse_blocks(path)
    assert blocks[0].marker == "skip"


def test_parse_blocks_marker_two_lines_above(tmp_path):
    path = _write(
        tmp_path,
        "<!-- docs-check: run -->\n\n```python\nprint(1)\n```\n",
    )
    blocks, _ = check_docs.parse_blocks(path)
    assert blocks[0].marker == "run"


def test_parse_blocks_marker_blocked_by_prose(tmp_path):
    # Prose between the marker and the fence detaches the marker.
    path = _write(
        tmp_path,
        "<!-- docs-check: skip -->\nSome prose.\n```bash\nrepro x\n```\n",
    )
    blocks, _ = check_docs.parse_blocks(path)
    assert blocks[0].marker is None


def test_parse_blocks_tilde_fences_and_nesting(tmp_path):
    # A ``` line inside a ~~~ fence is content, not a closer.
    path = _write(tmp_path, "~~~\n```bash\nnot a block\n```\n~~~\n")
    blocks, _ = check_docs.parse_blocks(path)
    assert len(blocks) == 1
    assert blocks[0].body == ["```bash", "not a block", "```"]


# ----------------------------------------------------------------------
# Command extraction
# ----------------------------------------------------------------------
def _block(lang, body):
    return check_docs.CodeBlock(Path("x.md"), 1, lang, body)


def test_console_blocks_take_only_dollar_lines():
    block = _block("console", [
        "$ repro trace fig5.jsonl",
        "285 records: 74 spans",
        "$ repro datasets",
    ])
    assert check_docs.shell_commands(block) == [
        "repro trace fig5.jsonl", "repro datasets",
    ]


def test_bash_blocks_skip_comments_and_blanks():
    block = _block("bash", ["# setup", "", "python -m repro datasets"])
    assert check_docs.shell_commands(block) == ["python -m repro datasets"]


def test_backslash_continuations_are_joined():
    block = _block("bash", ["repro build g.txt \\", "    -o g.idx"])
    assert check_docs.shell_commands(block) == ["repro build g.txt -o g.idx"]


def test_console_continuation():
    block = _block("console", ["$ repro build g.txt \\", "      --nodes 4"])
    assert check_docs.shell_commands(block) == ["repro build g.txt --nodes 4"]


@pytest.mark.parametrize("command,expected", [
    ("repro datasets", "python -m repro datasets"),
    ("python -m repro bench fig5", "python -m repro bench fig5"),
    ("pip install -e .", None),
    ("pytest tests/", None),
    ("reproduce.sh", None),  # prefix match must not catch this
])
def test_runnable_form(command, expected):
    assert check_docs.runnable_form(command) == expected


# ----------------------------------------------------------------------
# check_file end to end
# ----------------------------------------------------------------------
def test_python_syntax_error_is_a_failure(tmp_path):
    path = _write(tmp_path, "```python\ndef broken(:\n```\n")
    report = check_docs.check_file(path)
    assert len(report.failures) == 1
    assert "does not compile" in report.failures[0].what


def test_python_block_compiles_but_does_not_execute_by_default(tmp_path):
    path = _write(tmp_path, "```python\nraise RuntimeError('boom')\n```\n")
    report = check_docs.check_file(path)
    assert report.blocks_compiled == 1
    assert report.blocks_executed == 0
    assert not report.failures


def test_run_marker_executes_python_block(tmp_path):
    path = _write(
        tmp_path,
        "<!-- docs-check: run -->\n"
        "```python\nimport repro  # needs the PYTHONPATH the checker sets\n```\n",
    )
    report = check_docs.check_file(path)
    assert report.blocks_executed == 1
    assert not report.failures


def test_run_marker_reports_execution_failure(tmp_path):
    path = _write(
        tmp_path,
        "<!-- docs-check: run -->\n```python\nraise RuntimeError('boom')\n```\n",
    )
    report = check_docs.check_file(path)
    assert report.failures and "python block" in report.failures[0].what


def test_skip_marker_suppresses_commands(tmp_path):
    path = _write(
        tmp_path,
        "<!-- docs-check: skip -->\n```bash\nrepro replay nope.json\n```\n",
    )
    report = check_docs.check_file(path)
    assert report.commands_run == 0 and not report.failures


def test_non_repro_commands_are_skipped_not_run(tmp_path):
    path = _write(tmp_path, "```bash\npip install -e .\nfalse\n```\n")
    report = check_docs.check_file(path)
    assert report.commands_skipped == 2
    assert report.commands_run == 0 and not report.failures


def test_failing_repro_command_is_reported(tmp_path):
    path = _write(tmp_path, "```bash\nrepro no-such-subcommand\n```\n")
    report = check_docs.check_file(path)
    assert report.commands_run == 1
    assert report.failures and "command exited" in report.failures[0].what


def test_commands_share_a_workdir_in_order(tmp_path):
    path = _write(
        tmp_path,
        "```bash\n"
        "repro generate g.txt --kind social -n 50 --seed 1\n"
        "```\n"
        "later...\n"
        "```bash\n"
        "repro analyze g.txt\n"
        "```\n",
    )
    report = check_docs.check_file(path)
    assert report.commands_run == 2
    assert not report.failures


# ----------------------------------------------------------------------
# Links
# ----------------------------------------------------------------------
def test_relative_links_resolved_and_broken_ones_fail(tmp_path):
    (tmp_path / "other.md").write_text("x")
    path = _write(
        tmp_path,
        "[ok](other.md) [anchored](other.md#section) [web](https://x.test)\n"
        "[broken](missing.md)\n",
    )
    report = check_docs.check_file(path)
    assert report.links_checked == 3  # web link not counted
    assert len(report.failures) == 1
    assert "missing.md" in report.failures[0].what


def test_links_inside_code_fences_ignored(tmp_path):
    path = _write(tmp_path, "```\n[not a link](nowhere.md)\n```\n")
    report = check_docs.check_file(path)
    assert report.links_checked == 0 and not report.failures


# ----------------------------------------------------------------------
# main()
# ----------------------------------------------------------------------
def test_main_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, "fine\n")
    assert check_docs.main([str(good)]) == 0
    bad = tmp_path / "bad.md"
    bad.write_text("[broken](gone.md)\n")
    assert check_docs.main([str(good), str(bad)]) == 1
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" in out


def test_main_missing_file(tmp_path, capsys):
    assert check_docs.main([str(tmp_path / "ghost.md")]) == 1
    assert "no such file" in capsys.readouterr().err


def test_main_list_mode_runs_nothing(tmp_path, capsys):
    path = _write(tmp_path, "```bash\nrepro datasets\n```\n")
    assert check_docs.main(["--list", str(path)]) == 0
    assert "would run" in capsys.readouterr().out


def test_cli_table_coverage_passes_on_real_docs():
    failures = check_docs.check_cli_table(
        check_docs.REPO_ROOT / "docs" / "api.md"
    )
    assert failures == []


def test_cli_table_coverage_flags_missing_subcommand(tmp_path):
    api = tmp_path / "api.md"
    api.write_text("| Command | Purpose |\n|---|---|\n| `build` | x |\n")
    failures = check_docs.check_cli_table(api)
    missing = {f.what.split("`")[1] for f in failures}
    assert "query" in missing and "serve-bench" in missing
    assert "build" not in missing


def test_bench_names_must_be_registered_experiments(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Run `repro bench fig5`, then `python -m repro bench fig55 --datasets GO`;\n"
        "`repro bench --help` lists them and `repro bench <name>` runs one.\n"
    )
    failures = check_docs.check_bench_names(doc)
    assert [(f.line, f.what) for f in failures] == [
        (1, "`repro bench fig55` is not a registered experiment")
    ]
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/paper_mapping.md"):
        assert check_docs.check_bench_names(check_docs.REPO_ROOT / name) == []


def test_code_names_must_resolve_by_import_and_getattr(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "| Alg. 3 | `repro.core.drl.DrlFloodProgram` (`_process` = lines 9-18) |\n"
        "| Def. 2 | `repro.core.labels.ReachabilityIndex.in_labels/no_labels` |\n"
        "| Def. 6 | `DrlFloodProgram._rev_list`, `NoSuchClass.attr` |\n"
        "| fine | `repro.core.multicore` (`_WORKING_BYTES_PER_VERTEX`, `prose`),"
        " `TrimmedBfsResult.edges_scanned`, `ctx.charge`, `repro bench fig5` |\n"
    )
    failures = check_docs.check_code_names(doc)
    assert [(f.line, f.what.split("`")[1]) for f in failures] == [
        (1, "_process"),
        (2, "repro.core.labels.ReachabilityIndex.no_labels"),
        (3, "DrlFloodProgram._rev_list"),
        (3, "NoSuchClass.attr"),
    ]
    assert "`DrlFloodProgram` has no `_process`" in failures[0].detail


def test_paper_mapping_names_only_live_code(capsys):
    mapping = check_docs.REPO_ROOT / "docs" / "paper_mapping.md"
    assert check_docs.check_code_names(mapping) == []
    assert check_docs.main([str(mapping)]) == 0  # main() runs the check
