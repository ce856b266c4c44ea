"""Edge-list I/O.

Reachability datasets (SNAP, KONECT, ...) ship as whitespace-separated
edge lists; this module reads and writes that format (optionally
gzipped).

:func:`read_edge_list` parses a whole file at once, into a source and a
target column.  :func:`iter_edge_list`, the streaming reader, is the
reference for what a file means: the bulk parse hands it the files it
rejects (rows of uneven width, or a malformed row), and it names the
line of a malformed one.  The bulk parse holds strings and ints only,
no object per row or per edge that the garbage collector tracks.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import IO, Iterator

from repro.errors import GraphFormatError
from repro.graph.builder import distinct_edges
from repro.graph.digraph import DiGraph

#: What a comment line starts with, after any blanks.
_COMMENT_MARKS = ("#", "%")


def _open_text(path: Path, mode: str) -> IO[str]:
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _rows(path: Path) -> Iterator[tuple[int, int, int]]:
    """``(line number, u, v)`` of every edge row of a text edge list."""
    try:
        with _open_text(path, "r") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line[0] in _COMMENT_MARKS:
                    continue
                parts = line.split()
                if len(parts) < 2:
                    raise GraphFormatError(f"{path}:{line_no}: expected at least two columns")
                try:
                    u, v = int(parts[0]), int(parts[1])
                except ValueError as exc:
                    raise GraphFormatError(f"{path}:{line_no}: non-integer vertex id") from exc
                if u < 0 or v < 0:
                    raise GraphFormatError(f"{path}:{line_no}: negative vertex id")
                yield line_no, u, v
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not UTF-8 text") from exc


def iter_edge_list(path: str | Path) -> Iterator[tuple[int, int]]:
    """Yield ``(u, v)`` pairs from a text edge list.

    Lines starting with ``#`` or ``%`` are comments; blank lines are
    skipped.  Extra columns (weights, timestamps) are ignored.  A row
    with fewer than two columns or a non-integer or negative id raises
    :class:`~repro.errors.GraphFormatError` naming ``path:line``.
    """
    for _, u, v in _rows(Path(path)):
        yield u, v


def _parse_columns(text: str) -> tuple[list[int], list[int]]:
    """The source and target columns of an edge list's ``text``, read
    through the same text layer as :func:`iter_edge_list` (so with the
    same line ends).

    Skips the blank and comment lines the line reader skips and converts
    the same fields with the same ``int``, but splits the whole text at
    once and converts a column at a time.  Raises ``ValueError``, naming
    no line, unless every row has the same number of fields, at least
    two, and every id is a non-negative integer.
    """
    lines = text.split("\n")
    head = 0  # the comment lines a file starts with, as write_edge_list's header
    while head < len(lines) and lines[head].lstrip()[:1] in _COMMENT_MARKS:
        head += 1
    del lines[:head]
    body = "\n".join(lines)
    if "#" in body or "%" in body:
        lines = [line for line in lines if line.lstrip()[:1] not in _COMMENT_MARKS]
        body = "\n".join(lines)
    # Each row's list of fields is dropped as soon as it is counted.
    widths = set(map(len, map(str.split, lines))) - {0}
    if not widths:
        return [], []
    if len(widths) > 1 or min(widths) < 2:
        raise ValueError("rows of uneven width")
    (width,) = widths
    fields = body.split()
    sources = list(map(int, fields[0::width]))
    targets = list(map(int, fields[1::width]))
    if min(sources) < 0 or min(targets) < 0:
        raise ValueError("negative vertex id")
    return sources, targets


def read_edge_list(
    path: str | Path,
    num_vertices: int | None = None,
    dedup: bool = True,
) -> DiGraph:
    """Load a text edge list into a :class:`DiGraph`.

    Self-loops are dropped, and duplicate edges unless ``dedup`` is
    false; each vertex's neighbours keep their order in the file.  The
    vertex count is ``num_vertices``, or the largest id plus one.  A
    malformed row, or an id ``>= num_vertices``, raises
    :class:`~repro.errors.GraphFormatError` naming ``path:line``.
    """
    path = Path(path)
    try:
        with _open_text(path, "r") as handle:
            sources, targets = _parse_columns(handle.read())
    except ValueError:
        # Rows of uneven width, or a malformed one: the line reader reads
        # the file, or names the line it cannot read.
        rows = [(u, v) for _, u, v in _rows(path)]
        sources, targets = [u for u, _ in rows], [v for _, v in rows]
    sources, targets = distinct_edges(sources, targets, dedup)
    top = max(max(sources, default=-1), max(targets, default=-1))
    if num_vertices is None:
        num_vertices = top + 1
    elif 0 <= num_vertices <= top:
        # The first row of a kept edge past the count: self-loops were dropped.
        line_no, vertex = next(
            (line_no, max(u, v))
            for line_no, u, v in _rows(path)
            if u != v and max(u, v) >= num_vertices
        )
        raise GraphFormatError(f"{path}:{line_no}: vertex {vertex} >= num_vertices {num_vertices}")
    return DiGraph.from_columns(num_vertices, sources, targets)


def write_edge_list(graph: DiGraph, path: str | Path, header: bool = True) -> None:
    """Write ``graph`` as a text edge list (gzip if the path ends in .gz)."""
    path = Path(path)
    with _open_text(path, "w") as handle:
        if header:
            handle.write(f"# repro edge list: n={graph.num_vertices} m={graph.num_edges}\n")
        handle.write("".join(map("%d\t%d\n".__mod__, graph.edges())))

