"""Text formats: barcodes (.bar), diagrams (.dgm), filtrations (.flt),
covers (.cov), and the numeric inputs of the command-line tool.

Every format is read by one text rule.  Lines end at the ASCII line breaks
of ``str.splitlines`` (LF, CR LF, CR, form feed, ...); ``#`` starts a
comment that runs to the next such break; blank lines are skipped and
fields are split at ASCII whitespace.  Outside comments the text must be
ASCII: any other character is refused at its line.  Floats are written
with ``repr`` so endpoint values round-trip bit-exactly, and infinite
endpoints appear as ``inf`` / ``-inf``.  Filtrations and diagrams are read
into, and diagrams written from, the arrays the library keeps them as:
filtrations lexed in numpy, diagrams by numpy's C text reader, and line by
line with Python's `int` and `float` where that reader refuses the text.
"""

from __future__ import annotations

import re
import warnings
from typing import Callable, Iterator, List, Optional, Tuple, TypeVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .barcode import Barcode, Interval, _int_array, _text, integer_value, query_value
from .covers import Cover, CoverSetError
from .diagram import DiagramPoint, PersistenceDiagram, _from_rows
from .filtration import ComplexValidationError, FilteredComplex

T = TypeVar("T")


class FormatError(ValueError):
    """A line of an input file does not match its format."""

    def __init__(self, source: str, lineno: int, message: str):
        self.source = source
        self.lineno = lineno
        super().__init__(f"{source}:{lineno}: {message}")


_BREAK = r"\n\r\x0b\x0c\x1c-\x1e"  # the ASCII line breaks of str.splitlines, as a character class
_BREAKS = re.compile(rf"\r\n|[{_BREAK}]")
_COMMENT = re.compile(rf"#[^{_BREAK}]*")


def _each_line(text: str, source: str, read: Callable[[str], T]) -> List[Tuple[int, T]]:
    """The (line number, read(content)) of each content line of text in any
    of these formats, in order.  The first line that holds a non-ASCII
    character outside its comment, or whose `read` raises a ValueError,
    raises a FormatError located at it."""
    rows = []
    for lineno, line in enumerate(_BREAKS.split(text), start=1):
        line = line.partition("#")[0]
        if not line.isascii():
            char = next(c for c in line if not c.isascii())
            raise FormatError(source, lineno, f"non-ASCII character {char!r} (U+{ord(char):04X}) outside a comment")
        line = line.strip()
        try:
            if line:
                rows.append((lineno, read(line)))
        except ValueError as exc:
            raise FormatError(source, lineno, str(exc)) from exc
    return rows


_BAR_LINE = re.compile(r"^(?P<degree>-?\d+)\s+(?P<left>[\[(])(?P<lo>[^,]+),(?P<hi>[^])]+)(?P<right>[])])$")


def _bar(line: str) -> Tuple[int, Interval]:
    match = _BAR_LINE.match(line)
    if not match:
        raise ValueError(f"expected '<degree> <[|(><lo>,<hi><)|]>', got {line!r}")
    lo, hi = float(match["lo"]), float(match["hi"])
    return int(match["degree"]), Interval(lo, hi, match["left"] == "[", match["right"] == "]")


def parse_barcode(text: str, source: str = "<barcode>") -> Barcode:
    return Barcode([bar for _, bar in _each_line(text, source, _bar)])


def format_barcode(barcode: Barcode) -> str:
    degree, *interval = (column.tolist() for column in barcode._columns)
    return "".join([f"{d} {text}\n" for d, text in zip(degree, map(_text, *interval))])


def read_barcode(path) -> Barcode:
    with open(path, encoding="utf-8") as handle:
        return parse_barcode(handle.read(), source=str(path))


def write_barcode(path, barcode: Barcode) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_barcode(barcode))


_POINT_ROW = np.dtype([("degree", np.int64), ("p", np.float64), ("q", np.float64), ("mult", np.int64)])


# numpy's text reader refuses an int64 field such as 1.0, 1e3 or 2**63, but the releases from
# 1.23 until that deprecation expired read it through a float, with a DeprecationWarning.  There
# every .dgm text is read a line at a time: catching that warning would change the process-wide
# warning filters on each call, and concurrent calls could leave them changed.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        np.loadtxt(["1.0"], np.int64)
        _BULK = False
    except ValueError:
        _BULK = True


def _point_row(line: str) -> Tuple[int, float, float, int]:
    """The exact (degree, p, q, multiplicity) of a `.dgm` content line,
    checked in that order; a defect raises a ValueError."""
    fields = line.split()
    if len(fields) != 4:
        raise ValueError(f"expected '<degree> <p> <q> <multiplicity>', got {line!r}")
    degree = int(fields[0])
    p, q = DiagramPoint(float(fields[1]), float(fields[2]))
    return degree, p, q, integer_value(int(fields[3]), "multiplicity", least=1)


def parse_diagram(text: str, source: str = "<diagram>") -> PersistenceDiagram:
    """Text that is ASCII once its comments are cut and holds a row is read
    by numpy's C text reader, one int64 / float64 / float64 / int64 row a
    line, and the rows go to the diagram's bulk constructor, which checks
    them.  Any other text, text the reader refuses (an integer beyond int64,
    ``1_0``, ``1.0`` as an integer), or rows the constructor refuses, are
    read a line at a time with Python's `int` and `float`, so that
    multiplicities stay exact and the first defective line is named.  On a
    numpy whose reader takes ``1.0`` as an integer, every text is read so."""
    content = _COMMENT.sub("", text) if "#" in text else text
    if _BULK and content.isascii() and content and not content.isspace():  # the reader warns on text without rows
        try:
            rows = np.loadtxt(content.splitlines(), _POINT_ROW, comments=None, ndmin=1)
            return _from_rows(rows["degree"], rows["p"], rows["q"], rows["mult"])
        except ValueError:
            pass
    rows = [row for _, row in _each_line(text, source, _point_row)]
    degrees, ps, qs, mults = zip(*rows) if rows else ((),) * 4
    return _from_rows(_int_array(degrees), np.array(ps, float), np.array(qs, float), _int_array(mults))


def format_diagram(diagram: PersistenceDiagram) -> str:
    rows = zip(*(column.tolist() for column in diagram._columns))
    return "".join([f"{d} {p!r} {q!r} {mult}\n" for d, p, q, mult in rows])


def read_diagram(path) -> PersistenceDiagram:
    with open(path, encoding="utf-8") as handle:
        return parse_diagram(handle.read(), source=str(path))


def write_diagram(path, diagram: PersistenceDiagram) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_diagram(diagram))


_CHUNK = 1 << 17  # characters, so ASCII bytes, of .flt text lexed at a time, then on to a line break
_KEYWORD = np.frombuffer(b"simplex", np.uint8)
_WIDTH = 32  # value tokens up to this long are compared in numpy, longer ones converted one by one
_PREFIX = np.tri(_WIDTH + 1, _WIDTH, -1, np.uint8) * np.uint8(255)  # row k keeps the first k bytes
_MIX = np.array([1, 0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9], np.uint64)  # word k's hash factor
_DIGITS = 18  # an id of up to 18 digits fits int64


def _check_row(line: str) -> Tuple[int, ...]:
    """The sorted vertices of a `.flt` content line; a defect raises a ValueError."""
    fields = line.split()
    if fields[0] != "simplex" or len(fields) < 3:
        raise ValueError(f"expected 'simplex <value> <v0> [v1 ...]', got {line!r}")
    float(fields[1])
    verts = sorted(map(int, fields[2:]))
    if verts[0] < 0:
        raise ValueError("vertex ids must be nonnegative")
    if len(set(verts)) != len(verts):
        raise ValueError(f"repeated vertex in {verts}")
    return tuple(verts)


def _chunks(text: str) -> Iterator[bytes]:
    """The text in pieces, each ending at the first ASCII line break at or
    after `_CHUNK` characters (the last at the end of the text), without
    comments and as ASCII bytes, in which "?", which no token may hold,
    stands for any other character."""
    start = 0
    while start < len(text):
        found = _BREAKS.search(text, start + _CHUNK)
        end = found.end() if found else len(text)
        chunk = text[start:end]
        yield (_COMMENT.sub("", chunk) if "#" in chunk else chunk).encode("ascii", "replace")
        start = end


def _lex(data: bytes) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat (vertices, sizes, values) of a piece of `.flt` bytes without
    comments, each row's vertices sorted; a token opens a row when a line
    break lies before it, and each distinct value token is converted once,
    found by a hash of its 8-byte words checked against every token, or by
    text when two share a hash.  Any defect raises a ValueError without a message."""
    # A break before the text opens the first row; the padding lets any token be read _WIDTH wide.
    b = np.frombuffer(b"\n" + data + b" " * _WIDTH, np.uint8)
    if ((b < 9) | (b - 14 < 14)).any():  # a control byte, which no token may hold; the other bytes
        raise ValueError  # up to 32 are the ASCII whitespace of str.split
    tok = b > 32
    edges = np.flatnonzero(tok[1:] != tok[:-1]) + 1
    starts, lens = edges[::2], edges[1::2] - edges[::2]
    marks = (b - 10 < 4) | (b - 28 < 3)  # the ASCII line breaks of str.splitlines
    marks[starts] = True
    opens = tok[np.flatnonzero(marks)]  # the breaks and token starts in text order
    heads = np.flatnonzero(~opens[:-1][opens[1:]])  # the first token of each row
    sizes = np.diff(heads, append=len(starts)) - 2
    n = len(heads)
    window = sliding_window_view(b, _WIDTH)
    if n and (sizes.min() < 1 or (lens[heads] != 7).any() or (window[starts[heads], :7] != _KEYWORD).any()):
        raise ValueError
    at, lens_at = starts[heads + 1], lens[heads + 1]
    short = lens_at <= _WIDTH
    width = -(-min(int(lens_at.max(initial=1)), _WIDTH) // 8) * 8  # whole 8-byte words
    texts = window[at[short], :width] & _PREFIX[lens_at[short], :width]
    words = texts.view(np.uint64)
    h = np.zeros(len(words), np.uint64)  # a hash of each token's words, wrapping
    for k in range(words.shape[1]):
        h ^= words[:, k] * _MIX[k]
    inverse = np.unique(h, return_inverse=True)[1]
    first = np.empty(inverse.max(initial=-1) + 1, np.intp)
    first[inverse] = np.arange(len(inverse))  # one token of each hash
    if (words != words[first[inverse]]).any():  # two tokens share a hash: sort them by text
        first, inverse = np.unique(texts.view(f"S{width}").ravel(), return_index=True, return_inverse=True)[1:]
    values = np.empty(n)  # by text, so -0.0 is not 0.0
    values[short] = np.array(list(map(float, texts[first].view(f"S{width}").ravel().tolist())), float)[inverse]
    for k in np.flatnonzero(~short).tolist():
        values[k] = float(b[at[k]:at[k] + lens_at[k]].tobytes())
    is_id = np.ones(len(starts), bool)
    is_id[heads], is_id[heads + 1] = False, False
    at, lens_at = starts[is_id], lens[is_id]
    width = min(int(lens_at.max(initial=0)), _DIGITS)
    digits = window[at, :width] - np.uint8(48)
    vertices = np.zeros(len(at), np.int64)
    plain = lens_at <= _DIGITS
    for k in range(width):  # Horner's rule; a token that is not all digits is read again below,
        live = k < lens_at  # and a byte counts at most 10 here, so that no token overflows
        plain &= ~live | (digits[:, k] <= 9)
        vertices = np.where(live, vertices * 10 + np.minimum(digits[:, k], 10), vertices)
    odd = np.flatnonzero(~plain)
    if len(odd):
        ids = _int_array([int(b[s:s + m].tobytes()) for s, m in zip(at[odd].tolist(), lens_at[odd].tolist())])
        vertices = vertices.astype(ids.dtype, copy=False)
        vertices[odd] = ids
    row = np.repeat(np.arange(n), sizes)
    inner = row[1:] == row[:-1]  # neighbouring slots of one row
    if not (vertices[1:] > vertices[:-1])[inner].all():  # a row out of order: sort each row
        vertices = vertices[np.lexsort((vertices, row))]
        if (vertices[1:] == vertices[:-1])[inner].any():
            raise ValueError
    if (vertices < 0).any():
        raise ValueError
    return vertices, sizes, values


def parse_filtration(text: str, source: str = "<filtration>") -> FilteredComplex:
    """The text is lexed in numpy a piece of about `_CHUNK` characters at a
    time, so that no per-byte array of a large file lives at once.  Lines
    end at the ASCII line breaks of `str.splitlines`, fields are split at
    the ASCII whitespace of `str.split`, and outside comments the text must
    be ASCII.  The first defective line is reported, and a defect of the
    complex as a whole (a non-finite value, a duplicate, a missing face, a
    later-born face) at the last line holding the simplex it names."""
    try:
        parts = [_lex(chunk) for chunk in _chunks(text)] or [_lex(b"")]
    except ValueError:  # the row checks, in line order, name the first defective row
        _each_line(text, source, _check_row)
        raise
    try:
        return FilteredComplex._from_arrays(*map(np.concatenate, zip(*parts)))
    except ComplexValidationError as exc:
        line_of = {verts: lineno for lineno, verts in _each_line(text, source, _check_row)}
        raise FormatError(source, line_of[exc.simplex], str(exc)) from exc


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


def _cover_row(line: str) -> Tuple[Optional[str], List[int]]:
    """The (set id, elements) of a `.cov` content line, the id None on `ground`."""
    kind, *fields = line.split()
    if kind == "ground":
        return None, [int(v) for v in fields]
    if kind != "set":
        raise ValueError(f"expected 'set' or 'ground' line, got {line!r}")
    if not fields:
        raise ValueError("expected 'set <id> [elem ...]'")
    return fields[0], [int(v) for v in fields[1:]]


def parse_cover(text: str, source: str = "<cover>") -> Cover:
    rows = _each_line(text, source, _cover_row)
    late = [lineno for lineno, (name, _) in rows[1:] if name is None]
    if late:
        raise FormatError(source, late[0], "'ground' must be the first content line")
    ground = rows.pop(0)[1][1] if rows and rows[0][1][0] is None else None
    try:
        return Cover([row for _, row in rows], ground=ground)
    except CoverSetError as exc:
        raise FormatError(source, rows[exc.index][0], str(exc)) from exc


def read_cover(path) -> Cover:
    with open(path, encoding="utf-8") as handle:
        return parse_cover(handle.read(), source=str(path))


def _numeric_rows(path, read: Callable[[str], List[float]], expected: str) -> List[Tuple[int, List[float]]]:
    """The (line number, numbers) rows of a file; a file without any is reported at line 0."""
    with open(path, encoding="utf-8") as handle:
        rows = _each_line(handle.read(), str(path), read)
    if not rows:
        raise FormatError(str(path), 0, f"expected {expected}, got no rows")
    return rows


def _matrix_row(line: str) -> List[float]:
    return [query_value(float(field), f"entry {column}") for column, field in enumerate(line.split(), 1)]


def read_distance_matrix(path) -> np.ndarray:
    """Square whitespace-separated matrix, one row per line, without NaN."""
    rows = _numeric_rows(path, _matrix_row, "a square whitespace-separated matrix")
    n = len(rows)
    for lineno, row in rows:
        if len(row) != n:
            message = f"a square matrix of {n} rows needs {n} entries per row, got {len(row)}"
            raise FormatError(str(path), lineno, message)
    return np.array([row for _, row in rows], dtype=float)


def _sample_row(line: str) -> List[float]:
    return [query_value(float(field), f"entry {column}", finite=True) for column, field in enumerate(line.split(","), 1)]


def read_csv_samples(path) -> np.ndarray:
    """One sample per line, comma-separated finite coordinates."""
    rows = _numeric_rows(path, _sample_row, "comma-separated rows of equal length")
    width = len(rows[0][1])
    for lineno, row in rows:
        if len(row) != width:
            raise FormatError(str(path), lineno, f"expected {width} values as on the first row, got {len(row)}")
    return np.array([row for _, row in rows], dtype=float)


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
