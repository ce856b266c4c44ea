"""The reachability index: per-vertex in/out label sets (Definition 2).

An index ``L`` assigns every vertex ``v`` an in-label set
``L_in(v) ⊆ ANC(v)`` and an out-label set ``L_out(v) ⊆ DES(v)``; a query
``q(s, t)`` is true iff ``L_out(s) ∩ L_in(t) ≠ ∅`` (the cover
constraint, Definition 3).

The sets are held in one packed table per direction, in *hub space*:
distinct label values renumbered by how many rows hold them (ties by
value), which follows from the labels alone — equal indexes have equal
tables and byte-identical files.  A row is a Python ``int`` mask (bit
``p + 1`` for hub position ``p`` below :data:`_K`, bit 0 for "this row
has a tail") plus a sorted tail of the remaining positions in a flat
``values`` + ``offsets`` CSR.  A vertex whose own id is held by its two
rows and by no other — every non-hub of a TOL index — can only answer
``q(v, v)``: that entry stays out of hub space behind a per-vertex
*reflexive* flag, which leaves most rows without a tail.  ``q(s, t)``
is one ``&`` of two masks: above 1 they share a hub, 0 says a tail is
empty, and only exactly 1 asks for a merge of two short tails.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, compress, islice, pairwise, repeat
from operator import sub
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from repro.errors import IndexFormatError

if TYPE_CHECKING:  # pragma: no cover
    from repro.pregel.metrics import RunStats

_INDEX_MAGIC = b"RLIX"
_INDEX_VERSION_COMPRESSED = 2  # delta-varint rows (``compress=True``)
_INDEX_VERSION = 3  # the packed table, verbatim
_HEADER = struct.Struct("<4sIQ")  # magic, version, vertices
_TABLE_HEADER = struct.Struct("<IQ")  # format 3 adds: mask width, hubs,
_CHECKSUM = struct.Struct("<I")  # and the CRC-32 of every other byte

#: Hub positions a row's mask covers.  A mask is at most ``_K / 8``
#: bytes however large the graph, so memory stays linear in entries; it
#: must stay <= 2040 (a saved row's mask length is one byte).
_K = 256

#: Slot names of the parts that are the table.
_TABLE = (
    "_hubs", "_reflexive", "_in_mask", "_in_offsets", "_in_tail", "in_sizes",
    "_out_mask", "_out_offsets", "_out_tail", "out_sizes",
)


def _write_varints(out: bytearray, values: Iterable[int]) -> None:
    """Append each value as a LEB128 unsigned varint."""
    for value in values:
        while value > 0x7F:
            out.append(value & 0x7F | 0x80)
            value >>= 7
        out.append(value)


def _varints(data: bytes, pos: int, path) -> Iterator[int]:
    """Every LEB128 varint of ``data[pos:]``."""
    value = shift = 0
    for byte in memoryview(data)[pos:]:
        value |= (byte & 0x7F) << shift
        shift = shift + 7 if byte & 0x80 else 0
        if not shift:
            yield value
            value = 0
    if shift:
        raise IndexFormatError(f"{path}: truncated label payload")


def _rows(values: Iterator[int], count: int, limit: int, path) -> list[list[int]]:
    """``count`` rows off a stream of "row size, then that many values"
    (``limit``: more than any row can hold)."""
    rows = []
    for _row in range(count):
        size = next(values, -1)
        rows.append(list(islice(values, size if 0 <= size < limit else 0)))
        if len(rows[-1]) != size:
            raise IndexFormatError(f"{path}: truncated label payload")
    if next(values, None) is not None:
        raise IndexFormatError(f"{path}: trailing bytes after the label payload")
    return rows


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pack(rows, reflexive, bit_of, late):
    """One direction's ``(masks, offsets, tail, sizes)`` from id rows:
    ``bit_of`` maps a value to its mask bit (0 when it has none),
    ``late`` the values past the mask to their hub positions."""
    masks = [sum(map(bit_of, row)) for row in rows]
    sizes = array("I", map(len, rows))
    # A row's tail is what neither its mask nor the reflexive flag holds.
    tail_sizes = list(map(sub, map(sub, sizes, reflexive), map(int.bit_count, masks)))
    tail = array("I")
    late_values, spot_of = late.keys(), late.__getitem__
    for v in compress(range(len(rows)), tail_sizes):
        tail.extend(sorted(map(spot_of, late_values & rows[v])))
        masks[v] |= 1
    return masks, array("I", accumulate(tail_sizes, initial=0)), tail, sizes


class ReachabilityIndex:
    """A 2-hop reachability index over vertices ``0 .. n-1``.

    Construct via :meth:`from_label_lists` or
    :meth:`from_backward_sets`; instances are immutable.  Rows are sets
    of arbitrary non-negative ids (a row need not hold its own vertex,
    ids need not be vertices); at most 2³² − 1 entries per direction.
    ``in_sizes[v]`` / ``out_sizes[v]`` are ``|L_in(v)|`` / ``|L_out(v)|``.
    """

    __slots__ = _TABLE + ("_entries",)

    def __init__(
        self, in_labels: Iterable[Iterable[int]], out_labels: Iterable[Iterable[int]]
    ):
        # Rows are only read, and none is kept: a set serves as it is.
        in_rows, out_rows = (
            [row if isinstance(row, (set, frozenset)) else frozenset(row) for row in rows]
            for rows in (in_labels, out_labels)
        )
        if len(in_rows) != len(out_rows):
            raise ValueError("in/out label lists must cover the same vertices")
        held = Counter(chain.from_iterable(in_rows))
        held.update(chain.from_iterable(out_rows))
        reflexive = bytearray(len(in_rows))
        for v, (in_row, out_row) in enumerate(zip(in_rows, out_rows)):
            if v in in_row and v in out_row and held[v] == 2:
                reflexive[v] = 1
                del held[v]
        # Most-held first; the stable reverse sort keeps ties by value.
        hubs = sorted(sorted(held), key=held.__getitem__, reverse=True)
        late = dict(zip(hubs[_K:], range(_K, len(hubs))))
        bit_of = dict.fromkeys(late, 0)
        bit_of.update((v, 0) for v, flag in enumerate(reflexive) if flag)
        bit_of.update((hub, 2 << p) for p, hub in enumerate(hubs[:_K]))
        self._hubs = array("q", hubs)
        self._reflexive = bytes(reflexive)
        self._in_mask, self._in_offsets, self._in_tail, self.in_sizes = _pack(
            in_rows, reflexive, bit_of.__getitem__, late
        )
        self._out_mask, self._out_offsets, self._out_tail, self.out_sizes = _pack(
            out_rows, reflexive, bit_of.__getitem__, late
        )
        self._entries = sum(self.in_sizes) + sum(self.out_sizes)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_label_lists(cls, in_labels, out_labels) -> "ReachabilityIndex":
        """Build from per-vertex label collections (packed internally)."""
        return cls(in_labels, out_labels)

    @classmethod
    def from_backward_sets(
        cls,
        num_vertices: int,
        backward_in: Mapping[int, Iterable[int]],
        backward_out: Mapping[int, Iterable[int]],
    ) -> "ReachabilityIndex":
        """Invert backward label sets (Definition 4) into an index.

        ``w ∈ L⁻_in(v)`` means ``v ∈ L_in(w)``, and symmetrically for
        the out direction.
        """
        ins: list[list[int]] = [[] for _ in range(num_vertices)]
        outs: list[list[int]] = [[] for _ in range(num_vertices)]
        for rows, backward in ((ins, backward_in), (outs, backward_out)):
            for v, members in backward.items():
                for w in members:
                    rows[w].append(v)
        return cls(ins, outs)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of indexed vertices."""
        return len(self._reflexive)

    def _row(self, v: int, masks, offsets, tail) -> array:
        hubs = self._hubs
        ids = [hubs[p] for p in tail[offsets[v] : offsets[v + 1]]]
        ids.extend(hubs[p] for p in _bits(masks[v] >> 1))
        if self._reflexive[v]:
            ids.append(v)
        ids.sort()
        return array("q", ids)

    def in_labels(self, v: int) -> array:
        """``L_in(v)`` as a sorted array of ids (decoded per call; read
        :attr:`in_sizes` when only the size is wanted)."""
        return self._row(v, self._in_mask, self._in_offsets, self._in_tail)

    def out_labels(self, v: int) -> array:
        """``L_out(v)`` as a sorted array of ids."""
        return self._row(v, self._out_mask, self._out_offsets, self._out_tail)

    def query(self, s: int, t: int) -> bool:
        """``q(s, t)``: can ``s`` reach ``t``?"""
        both = self._out_mask[s] & self._in_mask[t]
        if both > 1:  # a common hub
            return True
        if both and self._tails_meet(s, t, None):
            return True
        return s == t and self._reflexive[s] == 1

    def _tails_meet(self, s: int, t: int, found: list[int] | None) -> bool:
        """Merge ``s``'s out-tail with ``t``'s in-tail, both non-empty:
        stop at the first common hub position, or collect them all into
        ``found``."""
        a, b = self._out_tail, self._in_tail
        i, i_end = self._out_offsets[s], self._out_offsets[s + 1]
        j, j_end = self._in_offsets[t], self._in_offsets[t + 1]
        x, y = a[i], b[j]
        while True:
            if x == y:
                if found is None:
                    return True
                found.append(x)
            if x <= y:
                i += 1
                if i == i_end:
                    break
                x = a[i]
            else:
                j += 1
                if j == j_end:
                    break
                y = b[j]
        return bool(found)

    def hop_vertex(self, s: int, t: int) -> int | None:
        """The smallest common hop ``w`` with ``s → w → t``, or ``None``."""
        both = self._out_mask[s] & self._in_mask[t]
        found = list(_bits(both >> 1))
        if both & 1:
            self._tails_meet(s, t, found)
        hops = [self._hubs[p] for p in found]
        if s == t and self._reflexive[s]:
            hops.append(s)
        return min(hops, default=None)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        """Total label entries across all vertices."""
        return self._entries

    def size_bytes(self, entry_bytes: int = 8) -> int:
        """Index size as the paper reports it (8 bytes per entry)."""
        return self._entries * entry_bytes

    def memory_bytes(self) -> int:
        """Bytes this process holds for the table (not the paper's figure)."""
        held = [getattr(self, name) for name in _TABLE]
        return sum(map(sys.getsizeof, chain(held, self._in_mask, self._out_mask)))

    @property
    def largest_label(self) -> int:
        """``Δ = max_v max(|L_in(v)|, |L_out(v)|)`` (Section II-A)."""
        return max(max(self.in_sizes, default=0), max(self.out_sizes, default=0))

    @property
    def average_label(self) -> float:
        """Mean label-set size over both directions."""
        return self._entries / (2 * self.num_vertices) if self._reflexive else 0.0

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save(self, path: str | Path, compress: bool = False) -> None:
        """Write the index to ``path``: the table as held, behind a CRC-32
        (format 3).  ``compress=True`` writes format 2 instead — id rows,
        delta-varint encoded: sorted gaps typically fit one byte each, so
        the file is several times smaller but is re-packed on load."""
        n = self.num_vertices
        if compress:
            header = _HEADER.pack(_INDEX_MAGIC, _INDEX_VERSION_COMPRESSED, n)
            payload = bytearray()
            for row_of in (self.in_labels, self.out_labels):
                for labels in map(row_of, range(n)):  # its size, then the gaps
                    gaps = map(sub, labels, chain((0,), labels))
                    _write_varints(payload, chain((len(labels),), gaps))
        else:
            parts = [self._hubs.tobytes(), self._reflexive]
            for masks, offsets, tail, sizes in (
                (self._in_mask, self._in_offsets, self._in_tail, self.in_sizes),
                (self._out_mask, self._out_offsets, self._out_tail, self.out_sizes),
            ):
                widths = bytes([(mask.bit_length() + 7) >> 3 for mask in masks])
                parts += [sizes.tobytes(), offsets.tobytes(), tail.tobytes(), widths]
                parts += map(int.to_bytes, masks, widths, repeat("little"))
            payload = b"".join(parts)
            header = _HEADER.pack(_INDEX_MAGIC, _INDEX_VERSION, n)
            header += _TABLE_HEADER.pack(_K, len(self._hubs))
            header += _CHECKSUM.pack(zlib.crc32(payload, zlib.crc32(header)))
        with open(path, "wb") as handle:
            handle.write(header)
            handle.write(payload)

    @classmethod
    def load(cls, path: str | Path) -> "ReachabilityIndex":
        """Read an index written by :meth:`save` (format 3, or format 2
        with ``compress=True``).

        Raises :class:`~repro.errors.IndexFormatError` for a file that is
        not an index, has another version (format 1's fixed-width rows
        among them), is truncated, has trailing bytes or (format 3) does
        not match its checksum."""
        data = Path(path).read_bytes()
        version, n = _header(data, path)
        if version == _INDEX_VERSION:
            return cls._load_table(data, n, path)
        if version == _INDEX_VERSION_COMPRESSED:  # rows of varint gaps
            gaps = _rows(_varints(data, _HEADER.size, path), 2 * n, len(data), path)
            rows = [list(accumulate(row)) for row in gaps]
        else:
            raise IndexFormatError(f"{path}: unsupported index version {version}")
        return cls(rows[:n], rows[n:])

    @classmethod
    def _load_table(cls, data: bytes, n: int, path) -> "ReachabilityIndex":
        covered = _HEADER.size + _TABLE_HEADER.size
        start = covered + _CHECKSUM.size
        if len(data) < start:
            raise IndexFormatError(f"{path}: truncated header")
        width, num_hubs = _TABLE_HEADER.unpack_from(data, _HEADER.size)
        view = memoryview(data)
        (checksum,) = _CHECKSUM.unpack_from(data, covered)
        if zlib.crc32(view[start:], zlib.crc32(view[:covered])) != checksum:
            raise IndexFormatError(
                f"{path}: truncated or corrupt (the file does not match its checksum)"
            )
        # The checksum held, so the sections are as `save` laid them out.
        pos = start

        def section(typecode: str, count: int) -> array:
            nonlocal pos
            values = array(typecode)
            end = pos + count * values.itemsize
            values.frombytes(view[pos:end])
            pos = end
            return values

        def direction():
            nonlocal pos
            sizes, offsets = section("I", n), section("I", n + 1)
            tail = section("I", offsets[n])
            ends = list(accumulate(data[pos : pos + n], initial=pos + n))
            pos = ends[n]
            masks = [int.from_bytes(data[a:b], "little") for a, b in pairwise(ends)]
            return masks, offsets, tail, sizes

        self = object.__new__(cls)
        self._hubs = section("q", num_hubs)
        self._reflexive = data[pos : pos + n]
        pos += n
        self._in_mask, self._in_offsets, self._in_tail, self.in_sizes = direction()
        self._out_mask, self._out_offsets, self._out_tail, self.out_sizes = direction()
        self._entries = sum(self.in_sizes) + sum(self.out_sizes)
        if width != _K:  # written under another mask width: re-pack
            return cls(map(self.in_labels, range(n)), map(self.out_labels, range(n)))
        return self

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReachabilityIndex):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in _TABLE)

    def __hash__(self) -> int:
        return hash((self.num_vertices, self._entries))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReachabilityIndex(n={self.num_vertices}, "
            f"entries={self.num_entries}, delta={self.largest_label})"
        )


def _header(data: bytes, path) -> tuple[int, int]:
    """``(version, vertices)`` off the start of an index file."""
    if data[:4] != _INDEX_MAGIC:
        raise IndexFormatError(f"{path}: not a reachability index file")
    if len(data) < _HEADER.size:
        raise IndexFormatError(f"{path}: truncated header")
    return _HEADER.unpack_from(data)[1:]


def index_file_version(path: str | Path) -> int:
    """The format version a saved index file declares."""
    with open(path, "rb") as handle:
        return _header(handle.read(_HEADER.size), path)[0]


def label_sizes(index):
    """The size protocol: ``(out_size_of, in_size_of)`` for any index flavour.

    Whatever costs or routes a query needs ``|L_out(s)|`` and
    ``|L_in(t)|``, never the rows; it reads them through these two
    callables, resolved once per index.  The packed
    :class:`ReachabilityIndex` stores its sizes and never changes them,
    so they are read from a list copy (a list's item lookup is a cheap
    call, an array's is not); list-style indexes (the dynamic index, a
    follower's ``LabelTable``) edit and grow their row lists in place,
    so a length taken through the list stays current.
    """
    out_rows, in_rows = index.out_labels, index.in_labels
    if callable(out_rows):
        out_sizes, in_sizes = index.out_sizes.tolist(), index.in_sizes.tolist()
        return out_sizes.__getitem__, in_sizes.__getitem__
    return (lambda v: len(out_rows[v])), (lambda v: len(in_rows[v]))


@dataclass(frozen=True)
class LabelingResult:
    """An index together with the run statistics that produced it."""

    index: ReachabilityIndex
    stats: "RunStats"
