#!/usr/bin/env python
"""Execute the code examples in the documentation.

Docs rot when nobody runs them.  This checker parses fenced code
blocks out of markdown files and:

- **runs** every ``repro`` CLI command found in ``bash``/``console``/
  ``sh`` blocks (``repro ...`` is rewritten to ``python -m repro ...``).
  Commands within one file share a scratch working directory, in
  order, so an example that generates ``graph.txt`` can be consumed by
  the next block — exactly how a reader would run them.  Non-repro
  commands (``pip``, ``pytest``, ``cmp`` …) are skipped;
- **compiles** every ``python`` block (syntax check); blocks preceded
  by an ``<!-- docs-check: run -->`` marker are also executed;
- **resolves** every relative markdown link to an existing file;
- **looks up** every ``repro bench <name>``, in prose or code, in the
  experiment registry (also in ``DESIGN.md`` and ``EXPERIMENTS.md``,
  whose commands are otherwise not run);
- **imports** every backticked ``repro.<dotted.path>`` and ``Class.attr``
  of ``docs/paper_mapping.md`` — a row that names code names code that
  exists.

Opt a block out with ``<!-- docs-check: skip -->`` on the line (or up
to two lines) above the fence — for commands that need artifacts only
a failure produces, or that are deliberately long-running.

Usage::

    python tools/check_docs.py                 # README.md + docs/*.md
    python tools/check_docs.py docs/serving.md # specific files
    python tools/check_docs.py --list          # show what would run
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMAND_TIMEOUT_SECONDS = 300

_FENCE_RE = re.compile(r"^(```+|~~~+)\s*([A-Za-z0-9_+-]*)\s*$")
_MARKER_RE = re.compile(r"<!--\s*docs-check:\s*(skip|run)\s*-->")
_LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
_SHELL_LANGS = {"bash", "console", "sh", "shell"}


@dataclass
class CodeBlock:
    path: Path
    line: int          # 1-based line of the opening fence
    lang: str
    body: list[str]
    marker: str | None = None  # "skip" | "run" | None


@dataclass
class Failure:
    path: Path
    line: int
    what: str
    detail: str

    def __str__(self) -> str:
        head = f"{self.path}:{self.line}: {self.what}"
        detail = self.detail.strip()
        if detail:
            indented = "\n".join("    " + l for l in detail.splitlines()[-15:])
            return f"{head}\n{indented}"
        return head


@dataclass
class FileReport:
    path: Path
    commands_run: int = 0
    commands_skipped: int = 0
    blocks_compiled: int = 0
    blocks_executed: int = 0
    links_checked: int = 0
    failures: list[Failure] = field(default_factory=list)


def parse_blocks(path: Path) -> tuple[list[CodeBlock], list[str]]:
    """All fenced code blocks in ``path`` plus the raw lines."""
    lines = path.read_text(encoding="utf-8").splitlines()
    blocks: list[CodeBlock] = []
    fence = None  # (fence string, CodeBlock) while inside a block
    for i, line in enumerate(lines):
        match = _FENCE_RE.match(line.strip())
        if fence is not None:
            if match and match.group(1)[0] == fence[0][0] and not match.group(2):
                blocks.append(fence[1])
                fence = None
            else:
                fence[1].body.append(line)
            continue
        if match:
            marker = None
            for back in (1, 2):
                if i - back >= 0:
                    marker_match = _MARKER_RE.search(lines[i - back])
                    if marker_match:
                        marker = marker_match.group(1)
                        break
                    if lines[i - back].strip():
                        break
            fence = (
                match.group(1),
                CodeBlock(path, i + 1, match.group(2).lower(), [], marker),
            )
    return blocks, lines


def shell_commands(block: CodeBlock) -> list[str]:
    """The commands a reader would type from a shell block.

    ``console`` blocks contribute the ``$ ``-prefixed lines (output
    lines are ignored); ``bash`` blocks contribute every non-comment
    line.  Trailing-backslash continuations are joined either way.
    """
    commands: list[str] = []
    pending: str | None = None
    for raw in block.body:
        line = raw.rstrip()
        if pending is not None:
            pending += " " + line.strip().rstrip("\\").strip()
            if not line.endswith("\\"):
                commands.append(pending)
                pending = None
            continue
        stripped = line.strip()
        if block.lang == "console":
            if not stripped.startswith("$ "):
                continue
            stripped = stripped[2:].strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.endswith("\\"):
            pending = stripped.rstrip("\\").strip()
        else:
            commands.append(stripped)
    if pending is not None:
        commands.append(pending)
    return commands


def runnable_form(command: str) -> str | None:
    """The executable form of a doc command, or None to skip it."""
    if command.startswith("repro "):
        command = "python -m " + command
    if command.startswith("python -m repro"):
        return command
    return None


def check_file(path: Path, list_only: bool = False) -> FileReport:
    report = FileReport(path)
    blocks, lines = parse_blocks(path)
    workdir = Path(tempfile.mkdtemp(prefix=f"docs-check-{path.stem}-"))
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")

    def run(command: str, line: int, what: str) -> None:
        if list_only:
            print(f"  would run [{path.name}:{line}] {command}")
            return
        try:
            proc = subprocess.run(
                command,
                shell=True,
                cwd=workdir,
                env=env,
                capture_output=True,
                text=True,
                timeout=COMMAND_TIMEOUT_SECONDS,
            )
        except subprocess.TimeoutExpired:
            report.failures.append(
                Failure(path, line, f"{what} timed out", command)
            )
            return
        if proc.returncode != 0:
            report.failures.append(
                Failure(
                    path,
                    line,
                    f"{what} exited {proc.returncode}: {command}",
                    proc.stderr or proc.stdout,
                )
            )

    for block in blocks:
        if block.marker == "skip":
            continue
        if block.lang in _SHELL_LANGS:
            for command in shell_commands(block):
                form = runnable_form(command)
                if form is None:
                    report.commands_skipped += 1
                    continue
                report.commands_run += 1
                run(form, block.line, "command")
        elif block.lang == "python":
            source = "\n".join(block.body)
            try:
                compile(source, f"{path}:{block.line}", "exec")
            except SyntaxError as exc:
                report.failures.append(
                    Failure(path, block.line, "python block does not compile",
                            str(exc))
                )
                continue
            report.blocks_compiled += 1
            if block.marker == "run":
                script = workdir / f"_block_{block.line}.py"
                if not list_only:
                    script.write_text(source, encoding="utf-8")
                report.blocks_executed += 1
                run(f"python {script.name}", block.line, "python block")

    # Relative links must point at real files.
    in_fence = False
    for i, line in enumerate(lines):
        if _FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for target in _LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            report.links_checked += 1
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                report.failures.append(
                    Failure(path, i + 1, f"broken link: {target}", "")
                )
    return report


_ADD_PARSER_RE = re.compile(r"\bsub\.add_parser\(\s*\"([a-z0-9-]+)\"", re.S)
_CLI_TABLE_ROW_RE = re.compile(r"^\|\s*`([a-z0-9-]+)`\s*\|", re.M)


def check_cli_table(api_md: Path) -> list[Failure]:
    """Every top-level CLI subcommand must have a row in api.md's table.

    The table in the "Command line" section is the canonical CLI
    surface listing; this guard catches the recurring drift where a PR
    adds a subcommand but not its row.
    """
    cli_source = (REPO_ROOT / "src" / "repro" / "cli.py").read_text(
        encoding="utf-8"
    )
    subcommands = set(_ADD_PARSER_RE.findall(cli_source))
    documented = set(_CLI_TABLE_ROW_RE.findall(api_md.read_text(encoding="utf-8")))
    failures = []
    for name in sorted(subcommands - documented):
        failures.append(
            Failure(
                api_md, 0,
                f"CLI subcommand `{name}` missing from the command table",
                "add a row to the 'Command line' table in docs/api.md",
            )
        )
    return failures


_BENCH_NAME_RE = re.compile(r"\brepro bench ([a-z0-9][a-z0-9-]*)")


def check_bench_names(path: Path) -> list[Failure]:
    """Every ``repro bench <name>`` in a doc must be a registry key."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.bench import EXPERIMENTS

    failures = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines, 1):
        for name in _BENCH_NAME_RE.findall(line):
            if name not in EXPERIMENTS:
                failures.append(
                    Failure(
                        path, i,
                        f"`repro bench {name}` is not a registered experiment",
                        "known: " + ", ".join(EXPERIMENTS),
                    )
                )
    return failures


_CODE_NAME_RE = re.compile(
    r"`((?:repro(?:\.\w+)+|[A-Z]\w*\.\w+)(?:/\w+)*|_\w+)`"
)


@functools.cache
def _repro_modules() -> list:
    """Every ``repro`` module, imported, in name order."""
    import importlib
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    return [
        module for name, module in sorted(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


def _resolve_code_name(name: str, scope=None):
    """Import + ``getattr`` down ``name``; returns the innermost class
    or module on the way (the scope a later bare ``_private`` on the
    same line is looked up in).  ``LookupError`` names the missing
    component.  ``repro.a.b.C.d`` imports the longest module prefix; a
    bare ``Class.attr`` finds ``Class`` in any ``repro`` module.  An
    annotated field (a dataclass attribute without a default) counts
    as present."""
    import importlib
    import inspect

    import repro

    parts = name.split(".")
    if parts[0] == "repro":
        obj, rest = repro, parts[1:]
        while rest:
            try:
                obj = importlib.import_module(f"{obj.__name__}.{rest[0]}")
            except ImportError:
                break
            rest = rest[1:]
    elif name.startswith("_"):
        if scope is None:
            raise LookupError("no class or module named before it on the line")
        obj, rest = scope, parts
    else:
        owners = [m for m in _repro_modules() if hasattr(m, parts[0])]
        if not owners:
            raise LookupError(f"no repro module defines `{parts[0]}`")
        obj, rest = owners[0], parts
    scope = obj
    for attr in rest:
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        elif attr in getattr(obj, "__annotations__", ()):
            break
        else:
            raise LookupError(f"`{getattr(obj, '__name__', obj)}` has no `{attr}`")
        if inspect.isclass(obj) or inspect.ismodule(obj):
            scope = obj
    return scope


def check_code_names(path: Path) -> list[Failure]:
    """Every backticked ``repro.<dotted.path>``, ``Class.attr`` and bare
    ``_private`` (an attribute of the class or module named before it
    on its line) in ``path`` must resolve; ``a.b/c`` names ``a.b`` and
    ``a.c``."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    failures = []
    for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        scope = None
        for match in _CODE_NAME_RE.findall(line):
            first, *alternates = match.split("/")
            stem = first.rsplit(".", 1)[0]
            for name in [first, *(f"{stem}.{alt}" for alt in alternates)]:
                try:
                    scope = _resolve_code_name(name, scope)
                except LookupError as exc:
                    failures.append(
                        Failure(path, i, f"dead code name `{name}`", str(exc))
                    )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files", nargs="*", type=Path,
        help="markdown files (default: README.md and docs/*.md)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list the commands without executing anything",
    )
    args = parser.parse_args(argv)
    files = args.files or [
        REPO_ROOT / "README.md",
        *sorted((REPO_ROOT / "docs").glob("*.md")),
    ]

    exit_code = 0
    for path in files:
        if not path.exists():
            print(f"{path}: no such file", file=sys.stderr)
            exit_code = 1
            continue
        report = check_file(path, list_only=args.list)
        if path.name == "api.md" and not args.list:
            report.failures.extend(check_cli_table(path))
        report.failures.extend(check_bench_names(path))
        if path.name == "paper_mapping.md":
            report.failures.extend(check_code_names(path))
        status = "FAIL" if report.failures else "ok"
        print(
            f"{status:4} {path}: {report.commands_run} command(s) run, "
            f"{report.commands_skipped} non-repro skipped, "
            f"{report.blocks_compiled} python block(s) compiled "
            f"({report.blocks_executed} executed), "
            f"{report.links_checked} link(s)"
        )
        for failure in report.failures:
            print(failure, file=sys.stderr)
            exit_code = 1
    if not args.files:
        for name in ("DESIGN.md", "EXPERIMENTS.md"):
            for failure in check_bench_names(REPO_ROOT / name):
                print(failure, file=sys.stderr)
                exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
