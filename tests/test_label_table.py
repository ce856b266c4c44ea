"""The packed hub-space label table behind ``ReachabilityIndex``.

The oracle is the representation it replaced: sorted id rows and the
two-pointer merge, kept here.  Every property runs with the mask width
``_K`` forced to 0 (tail-only rows), 1, 8 (mixed rows) and the default
(prefix-only rows at these sizes).  The format-1 writer also lives on
only here, so files written by earlier versions keep loading.
"""

import struct
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.labels as labels_module
from repro.core.labels import ReachabilityIndex, index_file_version
from repro.core.tol import tol_index
from repro.errors import IndexFormatError, ReproError
from repro.graph.generators import citation_graph, web_graph
from repro.serve import (
    CachingBackend,
    QueryCache,
    ShardedIndexBackend,
    ShardedLabelStore,
)
from tests.conftest import family_graphs

DEFAULT_K = labels_module._K
WIDTHS = (0, 1, 8, DEFAULT_K)


every_width = pytest.mark.parametrize("k", WIDTHS)


def width(k: int):
    """Force the mask width for the enclosed block."""
    return patch.object(labels_module, "_K", k)


# ----------------------------------------------------------------------
# The oracle: sorted rows, sorted merge, and the format-1 writer
# ----------------------------------------------------------------------
def merge_hop(a, b):
    """Smallest common value of two sorted rows, or ``None``."""
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return a[i]
        if a[i] < b[j]:
            i += 1
        else:
            j += 1
    return None


def v1_bytes(ins, outs) -> bytes:
    out = b"RLIX" + struct.pack("<IQ", 1, len(ins))
    for row in [*ins, *outs]:
        out += struct.pack(f"<Q{len(row)}q", len(row), *sorted(row))
    return out


def varint(value: int) -> bytes:
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def v2_bytes(ins, outs) -> bytes:
    out = b"RLIX" + struct.pack("<IQ", 2, len(ins))
    for row in [*ins, *outs]:
        row = sorted(row)
        out += varint(len(row))
        for previous, value in zip([0, *row], row):
            out += varint(value - previous)
    return out


def check_against_oracle(ins, outs, tmp_path):
    """Every public read of the table, against sorted rows + merge."""
    index = ReachabilityIndex.from_label_lists(ins, outs)
    n = len(ins)
    ins, outs = [sorted(set(r)) for r in ins], [sorted(set(r)) for r in outs]
    assert index.num_vertices == n
    for v in range(n):
        assert list(index.in_labels(v)) == ins[v]
        assert list(index.out_labels(v)) == outs[v]
        assert index.in_sizes[v] == len(ins[v])
        assert index.out_sizes[v] == len(outs[v])
    for s in range(n):
        for t in range(n):
            hop = merge_hop(outs[s], ins[t])
            assert index.hop_vertex(s, t) == hop
            assert index.query(s, t) is (hop is not None)
    assert index.num_entries == sum(map(len, ins + outs))
    assert index.largest_label == max(map(len, ins + outs), default=0)
    assert index.size_bytes() == 8 * index.num_entries
    # Equal labels, however they arrive: equal tables, hashes and files.
    twin = ReachabilityIndex.from_label_lists(
        [reversed(r) for r in ins], [frozenset(r) for r in outs]
    )
    assert twin == index and hash(twin) == hash(index)
    first, second, packed = (tmp_path / name for name in ("a.idx", "b.idx", "c.idx"))
    index.save(first)
    loaded = ReachabilityIndex.load(first)
    assert loaded == index and hash(loaded) == hash(index)
    loaded.save(second)
    twin.save(packed)
    assert first.read_bytes() == second.read_bytes() == packed.read_bytes()
    index.save(packed, compress=True)
    assert packed.read_bytes() == v2_bytes(ins, outs)
    assert ReachabilityIndex.load(packed) == index
    first.write_bytes(v1_bytes(ins, outs))
    assert ReachabilityIndex.load(first) == index
    return index


id_rows = st.lists(
    st.tuples(
        st.sets(st.one_of(st.integers(0, 12), st.integers(2**32, 2**32 + 3)), max_size=6),
        st.sets(st.one_of(st.integers(0, 12), st.integers(2**50, 2**50 + 3)), max_size=6),
    ),
    max_size=9,
)


@every_width
@settings(max_examples=40, deadline=None)
@given(rows=id_rows)
def test_arbitrary_label_lists_match_the_merge(k, tmp_path_factory, rows):
    # Rows without their own vertex, ids >= n and >= 2**32, empty rows,
    # the empty index and a single vertex all come out of this strategy.
    with width(k):
        check_against_oracle(
            [a for a, _ in rows], [b for _, b in rows], tmp_path_factory.mktemp("t")
        )


@every_width
@settings(max_examples=25, deadline=None)
@given(graph=family_graphs())
def test_tol_indexes_match_the_merge(k, tmp_path_factory, graph):
    with width(k):
        index = tol_index(graph)
        n = graph.num_vertices
        check_against_oracle(
            [list(index.in_labels(v)) for v in range(n)],
            [list(index.out_labels(v)) for v in range(n)],
            tmp_path_factory.mktemp("t"),
        )


@every_width
def test_edge_shapes(k, tmp_path):
    with width(k):
        check_against_oracle([], [], tmp_path)
        check_against_oracle([[]], [[]], tmp_path)
        check_against_oracle([[0]], [[0]], tmp_path)  # reflexive and nothing else
        check_against_oracle([[0], [0]], [[0], []], tmp_path)  # 0 is a hub, not reflexive
        check_against_oracle([[1], [0]], [[1], [0]], tmp_path)  # self-less rows
        check_against_oracle([[3, 3, 1]], [[1, 1]], tmp_path)  # duplicates collapse


def test_rows_take_every_shape_across_widths():
    # The property above is only as good as the shapes it reaches: on
    # one deep index the four widths give tail-only, mixed and
    # prefix-only rows.
    shapes = {}
    for k in WIDTHS:
        with width(k):
            index = tol_index(citation_graph(120, seed=3))
        hub_bits = sum(m > 1 for m in index._in_mask + index._out_mask)
        shapes[k] = (hub_bits > 0, len(index._in_tail) + len(index._out_tail) > 0)
    assert shapes == {
        0: (False, True), 1: (True, True), 8: (True, True), DEFAULT_K: (True, False)
    }


def test_non_hubs_stay_out_of_hub_space():
    # A vertex no other vertex holds answers q(v, v) through its flag
    # (or, on a cycle through a higher hub, through that hub), so it
    # costs neither a hub position nor a tail entry.
    index = tol_index(web_graph(300, seed=5))
    n = index.num_vertices
    rows = [(set(index.in_labels(v)), set(index.out_labels(v))) for v in range(n)]
    held_elsewhere = set().union(
        *((a | b) - {v} if v in a and v in b else a | b for v, (a, b) in enumerate(rows))
    )
    non_hubs = set(range(n)) - held_elsewhere
    assert len(non_hubs) > n // 4
    assert {v for v in range(n) if index._reflexive[v]} == {
        v for v in non_hubs if v in rows[v][0]
    }
    assert sorted(index._hubs) == sorted(held_elsewhere)
    assert all(index.query(v, v) for v in range(n))


def test_statistics_do_not_walk_rows():
    index = tol_index(citation_graph(200, seed=1))
    entries = sum(len(index.in_labels(v)) + len(index.out_labels(v)) for v in range(200))
    # Poison what a row walk would have to read: the statistics still answer.
    index._in_mask = index._out_mask = index._hubs = None
    assert index.num_entries == entries and hash(index) == hash((200, entries))
    assert index.average_label == entries / 400
    assert index.largest_label == max(max(index.in_sizes), max(index.out_sizes))
    assert index.size_bytes() == 8 * entries


# ----------------------------------------------------------------------
# Files: corruption is a typed error, old formats keep loading
# ----------------------------------------------------------------------
def _files(tmp_path):
    index = tol_index(citation_graph(60, seed=2))
    n = index.num_vertices
    ins = [list(index.in_labels(v)) for v in range(n)]
    outs = [list(index.out_labels(v)) for v in range(n)]
    table, packed = tmp_path / "v3.idx", tmp_path / "v2.idx"
    index.save(table)
    index.save(packed, compress=True)
    return index, {1: v1_bytes(ins, outs), 2: packed.read_bytes(), 3: table.read_bytes()}


def _boundaries(index, version: int, size: int) -> list[int]:
    """Byte offsets where a section of the format starts or ends."""
    n, header = index.num_vertices, 16
    if version == 3:
        cuts = [0, 4, 8, header, header + 4, header + 12, header + 16]
        cuts.append(cuts[-1] + 8 * len(index._hubs))
        cuts.append(cuts[-1] + n)  # reflexive flags
        for masks, tail in ((index._in_mask, index._in_tail), (index._out_mask, index._out_tail)):
            for section in (4 * n, 4 * (n + 1), 4 * len(tail), n):
                cuts.append(cuts[-1] + section)
            cuts.append(cuts[-1] + sum((m.bit_length() + 7) // 8 for m in masks))
        assert cuts[-1] == size
        return cuts
    return [0, 4, 8, header, header + (8 if version == 1 else 1), size // 2, size]


@pytest.mark.parametrize("version", [1, 2, 3])
def test_truncation_and_trailing_bytes_are_typed(tmp_path, version):
    index, files = _files(tmp_path)
    data = files[version]
    path = tmp_path / "damaged.idx"
    for cut in _boundaries(index, version, len(data))[:-1]:
        for length in {cut, max(0, cut - 1), cut + 1}:
            path.write_bytes(data[:length])
            with pytest.raises(IndexFormatError):
                ReachabilityIndex.load(path)
    for extra in (b"\x00", b"\x00" * 8, data[-16:]):
        path.write_bytes(data + extra)
        with pytest.raises(IndexFormatError):
            ReachabilityIndex.load(path)
    path.write_bytes(data)
    assert ReachabilityIndex.load(path) == index
    assert index_file_version(path) == version


def test_every_bit_flip_at_a_section_boundary_is_typed(tmp_path):
    # Format 3 is checksummed end to end: whichever byte flips — header
    # field, a count, the first or last byte of any section — load
    # refuses the file rather than build a table that answers wrongly.
    index, files = _files(tmp_path)
    data = files[3]
    path = tmp_path / "flipped.idx"
    for cut in _boundaries(index, 3, len(data)):
        for at in {min(cut, len(data) - 1), max(0, cut - 1)}:
            for bit in (0, 7):
                flipped = bytearray(data)
                flipped[at] ^= 1 << bit
                path.write_bytes(flipped)
                with pytest.raises(IndexFormatError):
                    ReachabilityIndex.load(path)


@pytest.mark.parametrize("version", [1, 2])
def test_header_and_count_flips_in_the_row_formats_are_typed(tmp_path, version):
    # Formats 1 and 2 carry no checksum, so a flipped id is just another
    # id (and a flipped varint count can re-synchronise); what must not
    # happen is a flipped magic, version or vertex count — or, with
    # fixed-width rows, row count — loading as if nothing were wrong.
    index, files = _files(tmp_path)
    data = files[version]
    path = tmp_path / "flipped.idx"
    flips = [(0, 0), (3, 6), (4, 2), (4, 7), (8, 0), (9, 3), (15, 7)]
    for at, bit in flips + [(16, 1)] * (version == 1):
        flipped = bytearray(data)
        flipped[at] ^= 1 << bit
        path.write_bytes(flipped)
        with pytest.raises(IndexFormatError):
            ReachabilityIndex.load(path)


def test_short_and_foreign_files(tmp_path):
    path = tmp_path / "short.idx"
    for content in (b"", b"RL", b"RLIX", b"RLIX\x01\x00\x00", b"RLIX" + struct.pack("<IQ", 3, 0)):
        path.write_bytes(content)
        with pytest.raises(IndexFormatError) as raised:
            ReachabilityIndex.load(path)
        assert isinstance(raised.value, ReproError) and isinstance(raised.value, ValueError)
    assert index_file_version(path) == 3
    path.write_bytes(b"RLIX\x03\x00")
    with pytest.raises(IndexFormatError):
        index_file_version(path)


def test_a_file_written_under_another_width_is_repacked(tmp_path):
    graph = citation_graph(80, seed=4)
    path = tmp_path / "narrow.idx"
    with width(8):
        tol_index(graph).save(path)
    index = tol_index(graph)
    assert ReachabilityIndex.load(path) == index
    again = tmp_path / "default.idx"
    ReachabilityIndex.load(path).save(again)
    index.save(path)
    assert again.read_bytes() == path.read_bytes()


def test_corrupt_file_is_one_line_and_exit_2_on_the_cli(tmp_path, capsys):
    from repro.cli import main
    from repro.graph.io import write_edge_list

    graph = web_graph(50, seed=1)
    graph_file, index_file = tmp_path / "g.txt", tmp_path / "g.idx"
    write_edge_list(graph, graph_file)
    tol_index(graph).save(index_file)
    assert main(["info", str(index_file)]) == 0
    out = capsys.readouterr().out
    assert "format:        version 3" in out and "B/entry" in out
    index_file.write_bytes(index_file.read_bytes()[:-5])
    for argv in (
        ["info", str(index_file)],
        ["query", str(index_file), "0", "1"],
        ["validate", str(graph_file), str(index_file)],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


# ----------------------------------------------------------------------
# The range check in front of the index: the store's, reached here
# through the cache that sits ahead of it (the size protocol's flavour
# matrix is tests/test_query_service.py's)
# ----------------------------------------------------------------------
def test_query_service_rejects_ids_outside_the_index():
    index = tol_index(web_graph(40, seed=2))
    cache = QueryCache(8)
    backend = CachingBackend(
        ShardedIndexBackend(ShardedLabelStore(index, num_shards=4)), cache
    )
    last, _seconds = backend.query_with_cost(39, 39)
    assert last is True
    for s, t in ((-1, 39), (39, -1), (-40, 0), (40, 0), (0, 40)):
        for _ in range(2):  # the refusal is not cached as an answer
            with pytest.raises(ReproError, match="outside the index"):
                backend.query_with_cost(s, t)
    assert len(cache) == 1
    assert backend.query_with_cost(39, 39)[0] is True
