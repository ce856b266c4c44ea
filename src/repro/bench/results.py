"""Result containers and paper-style text rendering."""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Stack of active :func:`capture_tables` buckets; every
#: :class:`ExperimentTable` created while a bucket is open registers
#: itself there, so an interrupted benchmark can flush partial results.
_CAPTURE_STACK: list[list["ExperimentTable"]] = []


@contextmanager
def capture_tables():
    """Collect every :class:`ExperimentTable` created inside the block.

    Used by the CLI's ``bench`` command to recover partially filled
    tables when the run is interrupted (Ctrl-C): the tables fill cell
    by cell as experiments run, so whatever was measured before the
    interrupt is still printable.
    """
    bucket: list[ExperimentTable] = []
    _CAPTURE_STACK.append(bucket)
    try:
        yield bucket
    finally:
        _CAPTURE_STACK.remove(bucket)


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    A crash or interrupt mid-write leaves either the previous file or
    the complete new one — never a truncated result file.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


@dataclass(frozen=True)
class Cell:
    """One measurement: a value, or a failure marker.

    ``"-"`` means unavailable (out of memory at paper scale, Table VI);
    ``"INF"`` means the simulated cut-off was exceeded.
    """

    value: float | None = None
    marker: str | None = None

    @classmethod
    def unavailable(cls) -> "Cell":
        return cls(marker="-")

    @classmethod
    def timeout(cls) -> "Cell":
        return cls(marker="INF")

    @property
    def ok(self) -> bool:
        """True when the cell holds a real measurement."""
        return self.marker is None

    def format(self, precision: int = 4, scientific: bool = False) -> str:
        if self.marker is not None:
            return self.marker
        if self.value is None:
            return ""
        if scientific:
            return f"{self.value:.2e}"
        return f"{self.value:.{precision}f}"


@dataclass
class ExperimentTable:
    """A named grid of cells keyed by (row, column)."""

    title: str
    columns: list[str]
    rows: list[str] = field(default_factory=list)
    cells: dict[tuple[str, str], Cell] = field(default_factory=dict)
    scientific: bool = False
    precision: int = 4

    def __post_init__(self) -> None:
        for bucket in _CAPTURE_STACK:
            bucket.append(self)

    def set(self, row: str, column: str, cell: Cell | float) -> None:
        """Record a measurement (floats are wrapped automatically)."""
        if column not in self.columns:
            raise KeyError(f"unknown column {column!r}")
        if row not in self.rows:
            self.rows.append(row)
        if not isinstance(cell, Cell):
            cell = Cell(value=float(cell))
        self.cells[(row, column)] = cell

    def get(self, row: str, column: str) -> Cell:
        """Fetch a cell (empty cell when missing)."""
        return self.cells.get((row, column), Cell())

    def render(self) -> str:
        """ASCII rendering in the style of the paper's tables."""
        header = ["Name"] + list(self.columns)
        body = [
            [row]
            + [
                self.get(row, col).format(self.precision, self.scientific)
                for col in self.columns
            ]
            for row in self.rows
        ]
        widths = [
            max(len(line[i]) for line in [header] + body)
            for i in range(len(header))
        ]
        rule = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * len(self.title)]
        lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append(rule)
        for line in body:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(line, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
