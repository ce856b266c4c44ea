"""The grammar of compact fault specs, shared by every fault plan.

:class:`SpecPlan` is the one reader and writer of the textual specs a
plan travels as (a scenario's ``faults`` string);
:class:`repro.serve.faults.ServeFaultPlan` is built on it.
"""

from __future__ import annotations

import dataclasses
import math
import re

from repro.errors import ReproError

#: Shape parts read as integers; every other part is a finite float.
_WHOLE = frozenset({"SHARD", "REPLICA"})
#: One part of a shape string — ``SHARD``, ``xFACTOR``, ``[:END]`` — as
#: (``[`` when optional, separator, NAME).
_PART = re.compile(r"(\[?)([^A-Z\[\]]?)([A-Z]+)\]?")


def _finite(text: str) -> float:
    number = float(text)
    if not math.isfinite(number):
        raise ValueError(f"{text!r} is not a finite number")
    return number


class SpecPlan:
    """``parse`` / ``to_spec`` for a frozen plan dataclass: the one
    reader and the one writer of compact fault specs — comma-separated
    ``KEY=TARGET[xFACTOR][@WHEN[:UNTIL]]`` clauses.

    The plan class sets ``SHAPES``: ``{key: (shape string, plan field,
    event type)}``.  A key's *shape string*
    (``"SHARD.REPLICAxFACTOR@START[:END]"``) is its grammar, the text of
    its error and its row in the docs table.  A clause's numbers, in
    shape order (``None`` for an absent optional part), are its event
    type's constructor arguments; a clause may repeat, filling the
    field's tuple.  Which plans are *legal* stays with the plan class
    and its events: their ``ValueError``s come back as ``SPEC_ERROR``.
    """

    SHAPES: dict[str, tuple[str, str, type]] = {}
    SPEC_ERROR: type[ReproError] = ReproError
    NOUN = "fault"

    @classmethod
    def parse(cls, spec: str):
        """The plan a textual spec describes (a scenario's ``faults``);
        ``SPEC_ERROR`` on malformed input."""
        fields: dict = {}
        for clause in filter(None, map(str.strip, spec.split(","))):
            problem = f"bad {cls.NOUN} clause {clause!r}"
            key, _, value = clause.partition("=")
            if key not in cls.SHAPES:
                raise cls.SPEC_ERROR(
                    f"{problem}: expected one of {', '.join(cls.SHAPES)} as key=value"
                )
            shape, field_name, event = cls.SHAPES[key]
            expected = f"{problem}: expected {key}={shape}"
            parts = _PART.findall(shape)
            pattern = ""
            for optional, mark, _ in parts:
                part = re.escape(mark) + "(.+?)"
                pattern += f"(?:{part})?" if optional else part
            match = re.fullmatch(pattern, value)
            if match is None:
                raise cls.SPEC_ERROR(expected)
            numbers = []
            for (_, _, name), text in zip(parts, match.groups()):
                read = int if name in _WHOLE else _finite
                try:
                    numbers.append(None if text is None else read(text))
                except ValueError:
                    wanted = "an integer" if read is int else "a finite number"
                    raise cls.SPEC_ERROR(
                        f"{expected} ({name} must be {wanted})"
                    ) from None
            try:
                fields[field_name] = (*fields.get(field_name, ()), event(*numbers))
            except ValueError as exc:
                raise cls.SPEC_ERROR(f"{problem}: {exc}") from exc
        try:
            return cls(**fields)
        except ValueError as exc:
            raise cls.SPEC_ERROR(str(exc)) from exc

    def to_spec(self) -> str:
        """The compact textual spec, the exact inverse of :meth:`parse`
        (``Plan.parse(plan.to_spec()) == plan``: a number prints as the
        shortest text that reads back to the same value), so plans travel
        through JSON as one string."""
        clauses = []
        for key, (shape, field_name, _) in self.SHAPES.items():
            rows = [dataclasses.astuple(item) for item in getattr(self, field_name)]
            parts = _PART.findall(shape)
            clauses += [
                f"{key}=" + "".join(
                    mark + repr(number).removesuffix(".0")
                    for (_, mark, _), number in zip(parts, row)
                    if number is not None
                )
                for row in rows
            ]
        return ",".join(clauses)
