"""Tests for edge-list I/O."""

import gzip
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import io as graph_io
from repro.graph.digraph import DiGraph
from repro.graph.generators import citation_graph, random_digraph, social_graph, web_graph
from repro.graph.io import (
    iter_edge_list,
    read_edge_list,
    write_edge_list,
)


# ----------------------------------------------------------------------
# The reference: tuple ingest as it was before the columns
# ----------------------------------------------------------------------
def reference_csr(n, edges, reverse=False):
    """One direction's ``(offsets, targets)``, built by the two loops over
    a list of pairs that ``DiGraph`` ran before it took columns."""
    src, dst = (1, 0) if reverse else (0, 1)
    offsets = [0] * (n + 1)
    for edge in edges:
        offsets[edge[src] + 1] += 1
    for v in range(1, n + 1):
        offsets[v] += offsets[v - 1]
    targets = [0] * len(edges)
    cursor = offsets[:-1]
    for edge in edges:
        targets[cursor[edge[src]]] = edge[dst]
        cursor[edge[src]] += 1
    return offsets, targets


def reference_read(path, num_vertices=None, dedup=True):
    """``(n, fwd offsets, fwd targets, rev offsets, rev targets)`` the way
    a file was read before the columns: ``iter_edge_list``, then one
    dedup and self-loop test per edge, then :func:`reference_csr`."""
    edges, seen = [], set()
    for u, v in iter_edge_list(path):
        if u == v or (dedup and (u, v) in seen):
            continue
        seen.add((u, v))
        edges.append((u, v))
    top = max((max(edge) for edge in edges), default=-1)
    n = top + 1 if num_vertices is None else num_vertices
    assert top < n
    return (n, *reference_csr(n, edges), *reference_csr(n, edges, reverse=True))


def csr(graph):
    """The same five fields of a built :class:`DiGraph`."""
    arrays = graph._fwd_offsets, graph._fwd_targets, graph._rev_offsets, graph._rev_targets
    return (graph.num_vertices, *(list(a) for a in arrays))


_BLANKS = ["", " ", "\t", " \t "]
_SEPARATORS = [" ", "\t", "  ", " \t"]
_MALFORMED = ["x y", "1", "1 -2", "-1 0", "0 1.5", "1e3 2", "7\xa0"]


@st.composite
def edge_list_files(draw):
    """An edge-list text as ``(lines, n, newline)``, every id below
    ``n``: rows (duplicates, self-loops, sources in any order, extra
    columns of one width or ragged), ``#`` / ``%`` comments at the head
    and mid-file, blank and indented lines, in one of the three line-end
    styles."""
    n = draw(st.integers(1, 12))
    ragged = draw(st.booleans())
    width = draw(st.integers(0, 2))

    def edge_row(u, v, extras, lead, sep):
        return lead + sep.join([str(u), str(v), *extras])

    extra = st.sampled_from(["7", "2021", "-1", "0.5", "#x"])
    edge = st.builds(
        edge_row,
        st.integers(0, n - 1),
        st.integers(0, n - 1),
        st.lists(extra, max_size=2) if ragged else st.lists(extra, min_size=width, max_size=width),
        st.sampled_from(_BLANKS),
        st.sampled_from(_SEPARATORS),
    )
    comment = st.builds(
        lambda lead, mark, body: lead + mark + body,
        st.sampled_from(_BLANKS),
        st.sampled_from("#%"),
        st.sampled_from(["", " comment", " 1 2", "%#"]),
    )
    head = draw(st.lists(comment, max_size=2))
    body = draw(
        st.lists(st.one_of(edge, edge, edge, comment, st.sampled_from(_BLANKS)), max_size=40)
    )
    return head + body, n, draw(st.sampled_from(["\n", "\r\n", "\r"]))


def _write(directory, lines, newline, gz, trailing=True):
    text = newline.join(lines) + (newline if trailing and lines else "")
    if gz:
        path = directory / "edges.txt.gz"
        path.write_bytes(gzip.compress(text.encode()))
    else:
        path = directory / "edges.txt"
        path.write_bytes(text.encode())
    return path


@settings(max_examples=300, deadline=None)
@given(
    edge_list_files(),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 3)),
)
def test_read_edge_list_matches_the_tuple_reference(
    tmp_path_factory, drawn, gz, trailing, dedup, extra_vertices
):
    lines, n, newline = drawn
    path = _write(tmp_path_factory.mktemp("edges"), lines, newline, gz, trailing)
    num_vertices = None if extra_vertices is None else n + extra_vertices
    graph = read_edge_list(path, num_vertices=num_vertices, dedup=dedup)
    assert csr(graph) == reference_read(path, num_vertices=num_vertices, dedup=dedup)


@settings(max_examples=200, deadline=None)
@given(edge_list_files(), st.booleans(), st.data())
def test_a_malformed_row_is_named_as_the_line_reader_names_it(
    tmp_path_factory, drawn, gz, data
):
    lines, _, newline = drawn
    at = data.draw(st.integers(0, len(lines)))
    lines.insert(at, data.draw(st.sampled_from(_MALFORMED)))
    path = _write(tmp_path_factory.mktemp("bad"), lines, newline, gz)
    with pytest.raises(GraphFormatError) as bulk:
        read_edge_list(path)
    with pytest.raises(GraphFormatError) as streamed:
        list(iter_edge_list(path))
    assert str(bulk.value) == str(streamed.value)
    assert str(bulk.value).startswith(f"{path}:{at + 1}: ")


def test_a_valid_file_never_reaches_the_line_reader(tmp_path, monkeypatch):
    path = tmp_path / "ok.txt"
    path.write_text("% head\r\n 2\t1 0.5\r\n\r\n# mid\r\n1 2 x\r2 0 y\n  \n1 2 z")
    expected = reference_read(path)
    monkeypatch.setattr(graph_io, "_rows", None)
    assert csr(read_edge_list(path)) == expected == (3, [0, 0, 1, 3], [2, 1, 0], [0, 1, 2, 3], [2, 2, 1])


@pytest.mark.parametrize("text", ["", "\n\n", "# header only\n", "% a\n#b", "  \r\n\t"])
def test_empty_and_header_only_files(tmp_path, text):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    assert csr(read_edge_list(path)) == (0, [0], [], [0], [])
    assert csr(read_edge_list(path, num_vertices=3)) == (3, [0] * 4, [], [0] * 4, [])


@pytest.mark.parametrize(
    "graph",
    [web_graph(300, seed=1), citation_graph(200, seed=2), social_graph(250, seed=3)],
    ids=["web", "cit", "social"],
)
def test_digraph_from_shuffled_edges_equals_the_reference_csr(graph):
    edges = list(graph.edges())
    random.Random(7).shuffle(edges)
    edges += edges[:50] + [(5, 5), (9, 9)]  # parallel edges and self-loops are kept
    n = graph.num_vertices
    expected = (n, *reference_csr(n, edges), *reference_csr(n, edges, reverse=True))
    assert csr(DiGraph(n, edges)) == expected
    assert csr(DiGraph.from_columns(n, *map(list, zip(*edges)))) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
))
def test_digraph_equals_the_reference_csr(drawn):
    n, edges = drawn
    graph = DiGraph(n, edges)
    assert csr(graph) == (n, *reference_csr(n, edges), *reference_csr(n, edges, reverse=True))
    assert list(graph.edges()) == sorted(edges, key=lambda edge: edge[0])


def test_adjacency_lists_are_the_csr_rows():
    graph = DiGraph(5, [(3, 1), (0, 4), (3, 0), (0, 1), (4, 3), (1, 1)])
    out, into = graph.adjacency_lists()
    assert out == [graph.out_neighbors(v).tolist() for v in range(5)]
    assert into == [graph.in_neighbors(v).tolist() for v in range(5)]
    assert out == [[4, 1], [1], [], [1, 0], [3]]
    assert into == [[3], [3, 0, 1], [], [4], [0]]
    assert DiGraph(0, []).adjacency_lists() == ([], [])


def test_text_round_trip(tmp_path):
    g = random_digraph(40, 120, seed=1)
    path = tmp_path / "graph.txt"
    write_edge_list(g, path)
    assert read_edge_list(path, num_vertices=40) == g


def test_gzip_round_trip(tmp_path):
    g = random_digraph(30, 80, seed=2)
    path = tmp_path / "graph.txt.gz"
    write_edge_list(g, path)
    with gzip.open(path, "rt") as handle:  # really gzipped
        assert handle.readline().startswith("#")
    assert read_edge_list(path, num_vertices=30) == g


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# comment\n% other comment\n\n0 1\n1 2 999\n")
    assert list(iter_edge_list(path)) == [(0, 1), (1, 2)]


def test_extra_columns_ignored(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("0\t1\t0.5\t2021\n")
    assert list(iter_edge_list(path)) == [(0, 1)]


def test_header_optional(tmp_path):
    g = DiGraph(2, [(0, 1)])
    path = tmp_path / "graph.txt"
    write_edge_list(g, path, header=False)
    assert not path.read_text().startswith("#")
    assert read_edge_list(path) == g


def test_malformed_rows_raise(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0\n")
    with pytest.raises(ValueError, match="two columns"):
        list(iter_edge_list(path))
    path.write_text("a b\n")
    with pytest.raises(ValueError, match="non-integer"):
        list(iter_edge_list(path))


@pytest.mark.parametrize(
    "row, message",
    [
        ("1 x", "non-integer vertex id"),
        ("1", "expected at least two columns"),
        ("1 -2", "negative vertex id"),
    ],
)
def test_a_malformed_row_is_a_graph_format_error_naming_its_line(tmp_path, row, message):
    path = tmp_path / "bad.txt"
    path.write_text(f"# header\n0 1\n{row}\n2 3\n")
    for read in (read_edge_list, lambda p: list(iter_edge_list(p))):
        with pytest.raises(GraphFormatError, match=f"^{path}:3: {message}$"):
            read(path)


def test_an_id_past_num_vertices_is_named_by_line(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("0 1\n7 7\n1 2\n\n2 5\n3 9\n")  # the self-loop is dropped
    with pytest.raises(GraphFormatError, match=f"^{path}:5: vertex 5 >= num_vertices 4$"):
        read_edge_list(path, num_vertices=4)
    assert read_edge_list(path, num_vertices=10).num_edges == 4


def test_text_that_is_not_utf8_is_a_graph_format_error(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# caf\xe9\n0 1\n")
    with pytest.raises(GraphFormatError, match="not UTF-8"):
        read_edge_list(path)


def old_binary_graph(path, n, edges):
    """A graph in the binary format the package no longer reads or
    writes: ``RPRO``, a little-endian version, vertex count and edge
    count, then each edge as two little-endian 64-bit ids."""
    path.write_bytes(
        b"RPRO"
        + struct.pack("<IQQ", 1, n, len(edges))
        + b"".join(struct.pack("<QQ", u, v) for u, v in edges)
    )
    return path


# Ids 9, 10 and 32 pack to a tab, a newline and a blank, so the text
# parser sees more than one row and rows of two fields.
@pytest.mark.parametrize("edges", [[(0, 1), (1, 2)], [(9, 10), (32, 1), (1, 9)], []])
def test_an_old_binary_graph_is_never_read_as_an_edge_list(tmp_path, edges):
    path = old_binary_graph(tmp_path / "graph.bin", 40, edges)
    path.read_bytes().decode("utf-8")  # small ids are valid UTF-8 text
    with pytest.raises(GraphFormatError, match=f"^{path}:1: "):
        read_edge_list(path)
    with pytest.raises(GraphFormatError, match=f"^{path}:1: "):
        list(iter_edge_list(path))


def test_read_edge_list_dedup_flag(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("0 1\n0 1\n")
    assert read_edge_list(path).num_edges == 1
    assert read_edge_list(path, dedup=False).num_edges == 2


def test_edge_list_errors_carry_path_and_line(tmp_path):
    path = tmp_path / "ctx.txt"
    path.write_text("0 1\n# comment\nbroken\n")
    with pytest.raises(ValueError, match=f"{path}:3:"):
        list(iter_edge_list(path))
    path.write_text("0 1\n1 2\n\nx y\n")
    with pytest.raises(ValueError, match=f"{path}:4:.*non-integer"):
        list(iter_edge_list(path))
