"""Persistence diagrams: finite-support multiplicity maps on {p < q}.

A diagram point is an endpoint pair (p, q) with p < q, p != +inf and
q != -inf; openness of the originating interval endpoints is forgotten.

A `PersistenceDiagram` is its arrays.  Each degree keeps its births ``p``
and deaths ``q`` as float64 and its multiplicities as int64, one row per
distinct point, sorted by (p, q).  Where a sum of multiplicities could leave
int64, they are exact Python ints in an object array instead.  Counts are
masked sums over these arrays, and `diagram_of` reads a barcode's columns.
`DiagramPoint`s, with `ExtendedReal` endpoints, are made on demand for
`items` and a `matching_at` result, as a barcode makes its `Interval`s.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import repeat
from typing import Iterable, Iterator, Mapping, Tuple, Union

import numpy as np

from .barcode import Barcode, ExtendedReal, _endpoint_of, _int_array, _made, integer_value, query_value

PointLike = Union["DiagramPoint", Tuple[float, float]]
Rows = Tuple[np.ndarray, np.ndarray, np.ndarray]  # p, q and multiplicity of the points of one degree


class DiagramPoint(namedtuple("DiagramPoint", "p q")):
    """A birth/death pair (p, q) in the open half-plane p < q.

    A pair of ExtendedReals, checked once when made; any other endpoint goes
    through `query_value`.  Hashing and equality are those of the pair."""

    __slots__ = ()

    def __new__(cls, p, q):
        p = p if type(p) is ExtendedReal else _endpoint_of(query_value(p, "p"))
        q = q if type(q) is ExtendedReal else _endpoint_of(query_value(q, "q"))
        if not p < q:
            raise _off_half_plane(p, q)
        return super().__new__(cls, p, q)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)  # so that `_replace` checks too

    @property
    def gap(self) -> float:
        """The lifetime q - p as a float (inf when an endpoint is infinite)."""
        return self.q - self.p

    def __str__(self):
        return f"({self.p}, {self.q})"


def _off_half_plane(p: float, q: float) -> ValueError:
    """Why (p, q) breaks the point rule p < q, which also keeps p below +inf
    and q above -inf."""
    if p == math.inf:
        return ValueError("birth coordinate cannot be +inf")
    if q == -math.inf:
        return ValueError("death coordinate cannot be -inf")
    return ValueError(f"requires p < q, got ({p}, {q})")


def _multiplicity(mult) -> int:
    """A point's multiplicity: an integer of at least 1."""
    mult = integer_value(mult, "multiplicity")
    if mult < 1:
        raise ValueError(f"multiplicity must be >= 1, got {mult}")
    return mult


_INT64_MAX = np.iinfo(np.int64).max
_EMPTY: Rows = (np.empty(0), np.empty(0), np.empty(0, np.int64))  # of a degree without points; nothing to write


def _from_rows(degree: np.ndarray, p: np.ndarray, q: np.ndarray, mult: np.ndarray) -> "PersistenceDiagram":
    """The diagram of rows (degree, p, q, multiplicity): integer degrees,
    float endpoints and integer multiplicities (int64, or Python ints in an
    object array), a repeated point summing its multiplicities.

    The point rule (p < q, no NaN) and the multiplicity rule (at least 1)
    are checked over all rows at once; the first offending row raises what
    `DiagramPoint` or the multiplicity check would.  A stable sort by
    (degree, p, q) then brings equal points together, by value, and the
    first of them in row order keeps its bits, so a -0.0 or a 0.0 endpoint
    stays as it came first."""
    if not (p < q).all() or mult.min(initial=1) < 1:  # a NaN endpoint fails p < q too
        k = int(np.flatnonzero(~(p < q) | (mult < 1))[0])
        query_value(p[k], "p"), query_value(q[k], "q")  # names a NaN endpoint as `DiagramPoint` would
        _multiplicity(mult[k])
        raise _off_half_plane(float(p[k]), float(q[k]))
    if mult.dtype != object and mult.max(initial=0) > _INT64_MAX // max(len(mult), 1):
        mult = mult.astype(object)  # a sum might leave int64
    order = np.lexsort((q, p, degree))
    degree, p, q, mult = degree[order], p[order], q[order], mult[order]
    repeated = (degree[1:] == degree[:-1]) & (p[1:] == p[:-1]) & (q[1:] == q[:-1])
    if repeated.any():
        firsts = np.concatenate(([0], (~repeated).nonzero()[0] + 1))
        degree, p, q, mult = degree[firsts], p[firsts], q[firsts], np.add.reduceat(mult, firsts)
    for part in (p, q, mult):
        part.flags.writeable = False
    cuts = ((degree[1:] != degree[:-1]).nonzero()[0] + 1).tolist()
    starts = [0, *cuts] if len(degree) else []
    diagram = object.__new__(PersistenceDiagram)
    object.__setattr__(diagram, "_rows", {
        d: (p[start:end], q[start:end], mult[start:end])
        for d, start, end in zip(degree[starts].tolist(), starts, [*cuts, len(degree)])
    })
    return diagram


class PersistenceDiagram:
    """Per-degree multiplicity map with finite support and positive counts,
    each degree's points kept as arrays in canonical order, by p, then q."""

    __slots__ = ("_rows",)

    def __init__(self, points: Mapping[int, Union[Mapping[PointLike, int], Iterable[PointLike]]] = None):
        """Build from ``{degree: {point: multiplicity}}`` or ``{degree: [point, ...]}``.

        Points may be DiagramPoint instances or plain (p, q) pairs; repeats in
        an iterable accumulate multiplicity.  The points are checked at once.
        """
        rows = []
        for degree, content in (points or {}).items():
            degree = integer_value(degree, "degree")
            for (p, q), mult in content.items() if isinstance(content, Mapping) else zip(content, repeat(1)):
                rows.append((degree, query_value(p, "p"), query_value(q, "q"), integer_value(mult, "multiplicity")))
        degrees, ps, qs, mults = zip(*rows) if rows else ((),) * 4
        diagram = _from_rows(_int_array(degrees), np.array(ps, float), np.array(qs, float), _int_array(mults))
        object.__setattr__(self, "_rows", diagram._rows)

    def __setattr__(self, name, value):
        raise AttributeError("PersistenceDiagram is immutable")

    def __reduce__(self):
        """Copied and pickled as its rows, through the bulk constructor."""
        rows = [_EMPTY, *self._rows.values()]  # _EMPTY gives an empty diagram its dtypes
        degree = _int_array(list(self._rows)).repeat([len(p) for p, _, _ in rows[1:]])
        return _from_rows, (degree, *map(np.concatenate, zip(*rows)))

    def degrees(self) -> Tuple[int, ...]:
        return tuple(self._rows)  # made in ascending order

    def arrays(self, d: int) -> Rows:
        """The births, deaths and multiplicities of the degree-d points, as
        read-only arrays in canonical order, by p, then q."""
        return self._rows.get(integer_value(d, "degree"), _EMPTY)

    def items(self, d: int) -> Iterator[Tuple[DiagramPoint, int]]:
        """The (point, multiplicity) pairs in degree d, by p, then q."""
        p, q, mult = self.arrays(d)
        return zip(_made(DiagramPoint, p, q), mult.tolist())

    def multiplicity(self, d: int, point: PointLike) -> int:
        p, q, mult = self.arrays(d)
        x, y = point if isinstance(point, DiagramPoint) else DiagramPoint(*point)
        return int(mult[(p == x) & (q == y)].sum())

    def count(self, d: int) -> int:
        """Total point count, with multiplicity, in degree d."""
        return int(self.arrays(d)[2].sum())

    def total(self) -> int:
        return sum(int(mult.sum()) for _, _, mult in self._rows.values())

    def __eq__(self, other):
        if not isinstance(other, PersistenceDiagram):
            return NotImplemented
        return self._rows.keys() == other._rows.keys() and all(
            np.array_equal(mine, theirs) for d in self._rows for mine, theirs in zip(self._rows[d], other._rows[d])
        )

    def __repr__(self):
        parts = []
        for d, (p, q, mult) in self._rows.items():
            inner = ", ".join(f"({x}, {y})" if m == 1 else f"({x}, {y})x{m}"
                              for x, y, m in zip(p.tolist(), q.tolist(), mult.tolist()))
            parts.append(f"{d}: {{{inner}}}")
        return f"PersistenceDiagram({'; '.join(parts)})"


def diagram_of(barcode: Barcode) -> PersistenceDiagram:
    """The diagram of a barcode: one row per bar, singletons dropped, then
    sorted and summed per (inf, sup) in bulk.

    Endpoint openness is invisible here, so the radical of a barcode has the
    same diagram as the barcode itself.
    """
    degree, p, q, _, _ = barcode._columns
    kept = p < q  # a singleton [a,a] has no point
    return _from_rows(degree[kept], p[kept], q[kept], np.ones(np.count_nonzero(kept), np.int64))


def quadrant_count(diagram: PersistenceDiagram, d: int, x: float, y: float) -> int:
    """Total multiplicity of degree-d points in the open quadrant p < x, q > y.

    Infinite endpoints and corners compare through the extended order, so
    (-inf, inf) lands in every quadrant with finite corners.  A NaN corner
    raises ValueError.
    """
    x, y = query_value(x, "x"), query_value(y, "y")
    p, q, mult = diagram.arrays(d)
    return int(mult[(p < x) & (y < q)].sum())


__all__ = ["DiagramPoint", "PersistenceDiagram", "diagram_of", "quadrant_count"]
