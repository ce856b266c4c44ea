"""The reachability index: per-vertex in/out label sets (Definition 2).

An index ``L`` assigns every vertex ``v`` a sorted in-label set
``L_in(v) ⊆ ANC(v)`` and out-label set ``L_out(v) ⊆ DES(v)``; a query
``q(s, t)`` is true iff ``L_out(s) ∩ L_in(t) ≠ ∅`` (the cover
constraint, Definition 3).  Sorted-array intersection makes queries
``O(|L_out(s)| + |L_in(t)|)``, as in the paper.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.pregel.metrics import RunStats

_INDEX_MAGIC = b"RLIX"
_INDEX_VERSION = 1
_INDEX_VERSION_COMPRESSED = 2


def _write_varint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    """Returns (value, next position); raises on truncation."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


class ReachabilityIndex:
    """A 2-hop reachability index over vertices ``0 .. n-1``.

    Construct via :meth:`from_label_lists` or
    :meth:`from_backward_sets`; instances are immutable by convention.
    """

    __slots__ = ("_in_labels", "_out_labels")

    def __init__(self, in_labels: list[array], out_labels: list[array]):
        if len(in_labels) != len(out_labels):
            raise ValueError("in/out label lists must cover the same vertices")
        self._in_labels = in_labels
        self._out_labels = out_labels

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_label_lists(
        cls,
        in_labels: Iterable[Iterable[int]],
        out_labels: Iterable[Iterable[int]],
    ) -> "ReachabilityIndex":
        """Build from per-vertex label iterables (sorted internally)."""
        ins = [array("q", sorted(labels)) for labels in in_labels]
        outs = [array("q", sorted(labels)) for labels in out_labels]
        return cls(ins, outs)

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
        for v, members in backward_in.items():
            for w in members:
                ins[w].append(v)
        for v, members in backward_out.items():
            for w in members:
                outs[w].append(v)
        return cls.from_label_lists(ins, outs)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of indexed vertices."""
        return len(self._in_labels)

    def in_labels(self, v: int) -> array:
        """``L_in(v)`` as a sorted array."""
        return self._in_labels[v]

    def out_labels(self, v: int) -> array:
        """``L_out(v)`` as a sorted array."""
        return self._out_labels[v]

    def query(self, s: int, t: int) -> bool:
        """``q(s, t)``: can ``s`` reach ``t``?  Sorted-merge intersection."""
        a = self._out_labels[s]
        b = self._in_labels[t]
        i = j = 0
        len_a, len_b = len(a), len(b)
        while i < len_a and j < len_b:
            x, y = a[i], b[j]
            if x == y:
                return True
            if x < y:
                i += 1
            else:
                j += 1
        return False

    def hop_vertex(self, s: int, t: int) -> int | None:
        """The smallest common hop ``w`` with ``s → w → t``, or ``None``."""
        a = self._out_labels[s]
        b = self._in_labels[t]
        i = j = 0
        while i < len(a) and j < len(b):
            x, y = a[i], b[j]
            if x == y:
                return x
            if x < y:
                i += 1
            else:
                j += 1
        return None

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        """Total label entries across all vertices."""
        return sum(len(labels) for labels in self._in_labels) + sum(
            len(labels) for labels in self._out_labels
        )

    def size_bytes(self, entry_bytes: int = 8) -> int:
        """Index size as the paper reports it (8 bytes per entry)."""
        return self.num_entries * entry_bytes

    @property
    def largest_label(self) -> int:
        """``Δ = max_v max(|L_in(v)|, |L_out(v)|)`` (Section II-A)."""
        if not self._in_labels:
            return 0
        return max(
            max(len(self._in_labels[v]), len(self._out_labels[v]))
            for v in range(self.num_vertices)
        )

    @property
    def average_label(self) -> float:
        """Mean label-set size over both directions."""
        if not self._in_labels:
            return 0.0
        return self.num_entries / (2 * self.num_vertices)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save(self, path: str | Path, compress: bool = False) -> None:
        """Write the index to ``path``.

        ``compress=True`` uses delta-varint encoding: labels are sorted,
        so consecutive gaps are small and typically fit one byte each —
        usually several times smaller than the fixed-width format.
        """
        if compress:
            self._save_compressed(path)
            return
        with open(path, "wb") as handle:
            handle.write(_INDEX_MAGIC)
            handle.write(struct.pack("<IQ", _INDEX_VERSION, self.num_vertices))
            for labels_per_vertex in (self._in_labels, self._out_labels):
                for labels in labels_per_vertex:
                    handle.write(struct.pack("<Q", len(labels)))
                    handle.write(labels.tobytes())

    def _save_compressed(self, path: str | Path) -> None:
        payload = bytearray()
        for labels_per_vertex in (self._in_labels, self._out_labels):
            for labels in labels_per_vertex:
                _write_varint(payload, len(labels))
                previous = 0
                for value in labels:
                    _write_varint(payload, value - previous)
                    previous = value
        with open(path, "wb") as handle:
            handle.write(_INDEX_MAGIC)
            handle.write(
                struct.pack("<IQ", _INDEX_VERSION_COMPRESSED, self.num_vertices)
            )
            handle.write(payload)

    @classmethod
    def load(cls, path: str | Path) -> "ReachabilityIndex":
        """Read an index written by :meth:`save`."""
        with open(path, "rb") as handle:
            if handle.read(4) != _INDEX_MAGIC:
                raise ValueError(f"{path}: not a reachability index file")
            version, n = struct.unpack("<IQ", handle.read(12))
            if version == _INDEX_VERSION_COMPRESSED:
                return cls._load_compressed(handle.read(), n, path)
            if version != _INDEX_VERSION:
                raise ValueError(f"{path}: unsupported index version {version}")
            sides = []
            for _side in range(2):
                labels_per_vertex = []
                for _v in range(n):
                    header = handle.read(8)
                    payload = b""
                    if len(header) == 8:
                        (count,) = struct.unpack("<Q", header)
                        payload = handle.read(8 * count)
                    if len(header) != 8 or len(payload) != 8 * count:
                        raise ValueError(f"{path}: truncated label payload")
                    labels = array("q")
                    labels.frombytes(payload)
                    labels_per_vertex.append(labels)
                sides.append(labels_per_vertex)
        return cls(sides[0], sides[1])

    @classmethod
    def _load_compressed(
        cls, data: bytes, n: int, path: str | Path
    ) -> "ReachabilityIndex":
        pos = 0
        sides = []
        try:
            for _side in range(2):
                labels_per_vertex = []
                for _v in range(n):
                    count, pos = _read_varint(data, pos)
                    labels = array("q")
                    value = 0
                    for _i in range(count):
                        delta, pos = _read_varint(data, pos)
                        value += delta
                        labels.append(value)
                    labels_per_vertex.append(labels)
                sides.append(labels_per_vertex)
        except ValueError as exc:
            raise ValueError(f"{path}: truncated compressed payload") from exc
        return cls(sides[0], sides[1])

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReachabilityIndex):
            return NotImplemented
        return (
            self._in_labels == other._in_labels
            and self._out_labels == other._out_labels
        )

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.num_entries))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReachabilityIndex(n={self.num_vertices}, "
            f"entries={self.num_entries}, delta={self.largest_label})"
        )


def label_rows(index):
    """The row protocol: ``(out_row_of, in_row_of)`` for any index flavour.

    A query intersects two label rows, ``L_out(s) ∩ L_in(t)``; whatever
    costs or serves one reads them through these two callables
    (``v → L_out(v)``, ``v → L_in(v)``), resolved once per index.
    Method-style indexes (:class:`ReachabilityIndex`) hand out their
    accessors; list-style ones (the dynamic index, a replication
    follower's ``LabelTable``) their lists' ``__getitem__`` — they edit
    and grow those lists in place, so the getters stay current.
    """
    out_labels, in_labels = index.out_labels, index.in_labels
    if callable(out_labels):
        return out_labels, in_labels
    return out_labels.__getitem__, in_labels.__getitem__


@dataclass(frozen=True)
class LabelingResult:
    """An index together with the run statistics that produced it."""

    index: ReachabilityIndex
    stats: "RunStats"
