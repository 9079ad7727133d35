"""Text formats: barcodes (.bar), diagrams (.dgm), filtrations (.flt),
covers (.cov), and the numeric inputs of the command-line tool.

All formats are line based; ``#`` starts a comment and blank lines are
skipped.  Floats are written with ``repr`` so endpoint values round-trip
bit-exactly, and infinite endpoints appear as ``inf`` / ``-inf``.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Tuple

import numpy as np

from .barcode import Barcode, Interval
from .covers import Cover
from .diagram import DiagramPoint, PersistenceDiagram
from .extreal import ExtendedReal
from .filtration import FilteredComplex


class FormatError(ValueError):
    """A line of an input file does not match its format."""

    def __init__(self, source: str, lineno: int, message: str):
        self.source = source
        self.lineno = lineno
        super().__init__(f"{source}:{lineno}: {message}")


def _content_lines(text: str) -> Iterable[Tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


_BAR_LINE = re.compile(
    r"^(?P<degree>-?\d+)\s+(?P<left>[\[(])(?P<lo>[^,]+),(?P<hi>[^])]+)(?P<right>[])])$"
)


def parse_barcode(text: str, source: str = "<barcode>") -> Barcode:
    bars = []
    for lineno, line in _content_lines(text):
        match = _BAR_LINE.match(line)
        if not match:
            raise FormatError(source, lineno, f"expected '<degree> <[|(><lo>,<hi><)|]>', got {line!r}")
        try:
            interval = Interval(
                ExtendedReal.parse(match["lo"]),
                ExtendedReal.parse(match["hi"]),
                match["left"] == "[",
                match["right"] == "]",
            )
        except ValueError as exc:
            raise FormatError(source, lineno, str(exc)) from exc
        bars.append((int(match["degree"]), interval))
    return Barcode(bars)


def format_barcode(barcode: Barcode) -> str:
    return "".join(f"{d} {iv}\n" for d, iv in barcode)


def read_barcode(path) -> Barcode:
    with open(path, encoding="utf-8") as handle:
        return parse_barcode(handle.read(), source=str(path))


def write_barcode(path, barcode: Barcode) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_barcode(barcode))


def parse_diagram(text: str, source: str = "<diagram>") -> PersistenceDiagram:
    table = {}
    for lineno, line in _content_lines(text):
        fields = line.split()
        if len(fields) != 4:
            raise FormatError(source, lineno, f"expected '<degree> <p> <q> <multiplicity>', got {line!r}")
        try:
            degree = int(fields[0])
            point = DiagramPoint(ExtendedReal.parse(fields[1]), ExtendedReal.parse(fields[2]))
            mult = int(fields[3])
            if mult < 1:
                raise ValueError(f"multiplicity must be >= 1, got {mult}")
        except ValueError as exc:
            raise FormatError(source, lineno, str(exc)) from exc
        bucket = table.setdefault(degree, {})
        bucket[point] = bucket.get(point, 0) + mult
    return PersistenceDiagram(table)


def format_diagram(diagram: PersistenceDiagram) -> str:
    lines = []
    for d in diagram.degrees():
        for pt, mult in diagram.items(d):
            lines.append(f"{d} {pt.p} {pt.q} {mult}\n")
    return "".join(lines)


def read_diagram(path) -> PersistenceDiagram:
    with open(path, encoding="utf-8") as handle:
        return parse_diagram(handle.read(), source=str(path))


def write_diagram(path, diagram: PersistenceDiagram) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_diagram(diagram))


def parse_filtration(text: str, source: str = "<filtration>") -> FilteredComplex:
    entries = []
    for lineno, line in _content_lines(text):
        fields = line.split()
        if fields[0] != "simplex" or len(fields) < 3:
            raise FormatError(source, lineno, f"expected 'simplex <value> <v0> [v1 ...]', got {line!r}")
        try:
            value = float(fields[1])
            verts = sorted(map(int, fields[2:]))
            if verts[0] < 0:
                raise ValueError("vertex ids must be nonnegative")
            if len(set(verts)) != len(verts):
                raise ValueError(f"repeated vertex in {verts}")
            entries.append((tuple(verts), value))
        except ValueError as exc:
            raise FormatError(source, lineno, str(exc)) from exc
    try:
        return FilteredComplex(entries)
    except ValueError as exc:
        raise FormatError(source, 0, str(exc)) from exc


def format_filtration(complex_: FilteredComplex) -> str:
    return "".join(
        f"simplex {value!r} {' '.join(str(v) for v in verts)}\n"
        for verts, value in complex_.simplices
    )


def read_filtration(path) -> FilteredComplex:
    with open(path, encoding="utf-8") as handle:
        return parse_filtration(handle.read(), source=str(path))


def write_filtration(path, complex_: FilteredComplex) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_filtration(complex_))


def parse_cover(text: str, source: str = "<cover>") -> Cover:
    ground = None
    sets: List[Tuple[str, List[int]]] = []
    for lineno, line in _content_lines(text):
        fields = line.split()
        if fields[0] == "ground":
            if ground is not None or sets:
                raise FormatError(source, lineno, "'ground' must be the first content line")
            try:
                ground = [int(v) for v in fields[1:]]
            except ValueError as exc:
                raise FormatError(source, lineno, str(exc)) from exc
        elif fields[0] == "set":
            if len(fields) < 2:
                raise FormatError(source, lineno, "expected 'set <id> [elem ...]'")
            try:
                sets.append((fields[1], [int(v) for v in fields[2:]]))
            except ValueError as exc:
                raise FormatError(source, lineno, str(exc)) from exc
        else:
            raise FormatError(source, lineno, f"expected 'set' or 'ground' line, got {line!r}")
    try:
        return Cover(sets, ground=ground)
    except ValueError as exc:
        raise FormatError(source, 0, str(exc)) from exc


def read_cover(path) -> Cover:
    with open(path, encoding="utf-8") as handle:
        return parse_cover(handle.read(), source=str(path))


def read_distance_matrix(path) -> np.ndarray:
    """Square whitespace-separated matrix, one row per line."""
    with open(path, encoding="utf-8") as handle:
        rows = [
            [float(field) for field in line.split()]
            for _, line in _content_lines(handle.read())
        ]
    if not rows or any(len(row) != len(rows) for row in rows):
        raise FormatError(str(path), 0, "expected a square whitespace-separated matrix")
    return np.array(rows, dtype=float)


def read_csv_samples(path) -> np.ndarray:
    """One sample per line, comma-separated coordinates."""
    with open(path, encoding="utf-8") as handle:
        rows = [
            [float(field) for field in line.split(",")]
            for _, line in _content_lines(handle.read())
        ]
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise FormatError(str(path), 0, "expected comma-separated rows of equal length")
    return np.array(rows, dtype=float)


__all__ = [
    "FormatError",
    "parse_barcode",
    "format_barcode",
    "read_barcode",
    "write_barcode",
    "parse_diagram",
    "format_diagram",
    "read_diagram",
    "write_diagram",
    "parse_filtration",
    "format_filtration",
    "read_filtration",
    "write_filtration",
    "parse_cover",
    "read_cover",
    "read_distance_matrix",
    "read_csv_samples",
]
