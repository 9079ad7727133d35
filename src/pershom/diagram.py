"""Persistence diagrams: finite-support multiplicity maps on {p < q}.

A diagram point is an endpoint pair (p, q) with p < q, p != +inf and
q != -inf; openness of the originating interval endpoints is forgotten.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import repeat
from operator import itemgetter, lt
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple, Union

from .barcode import NEG_INF, POS_INF, Barcode, ExtendedReal, _endpoint, integer_value, query_value

PointLike = Union["DiagramPoint", Tuple[float, float]]


class DiagramPoint(namedtuple("DiagramPoint", "p q")):
    """A birth/death pair (p, q) in the open half-plane p < q.

    A pair of ExtendedReals, checked once when made; an endpoint given as
    text is refused.  Hashing and equality are those of the pair."""

    __slots__ = ()

    def __new__(cls, p, q):
        p = p if type(p) is ExtendedReal else _endpoint(p, "p")
        q = q if type(q) is ExtendedReal else _endpoint(q, "q")
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


def _off_half_plane(p: ExtendedReal, q: ExtendedReal) -> ValueError:
    """Why (p, q) breaks the point rule p < q, which also keeps p below +inf
    and q above -inf."""
    if p == POS_INF:
        return ValueError("birth coordinate cannot be +inf")
    if q == NEG_INF:
        return ValueError("death coordinate cannot be -inf")
    return ValueError(f"requires p < q, got ({p}, {q})")


def _multiplicity(mult) -> int:
    """A point's multiplicity: an integer of at least 1."""
    mult = integer_value(mult, "multiplicity")
    if mult < 1:
        raise ValueError(f"multiplicity must be >= 1, got {mult}")
    return mult


def _from_points(items: Sequence[Tuple[Tuple[int, ExtendedReal, ExtendedReal], int]]) -> "PersistenceDiagram":
    """The diagram of ``((degree, p, q), multiplicity)`` items with int
    degrees and multiplicities and ExtendedReal endpoints, a repeated point
    summing its multiplicities under its first key.  The point rule and the
    multiplicity rule are checked over all items at once, so each point is
    then made without a check of its own; the first offender raises what
    `DiagramPoint` or `PersistenceDiagram` would."""
    keys, mults = tuple(zip(*items)) or ((), ())
    if not all(map(lt, map(itemgetter(1), keys), map(itemgetter(2), keys))) or min(mults, default=1) < 1:
        for (_, p, q), mult in items:
            _multiplicity(mult)
            if not p < q:
                raise _off_half_plane(p, q)
    counts = dict(items)
    if len(counts) < len(items):  # a point repeats
        counts = {}
        for key, mult in items:
            counts[key] = counts.get(key, 0) + mult
    table: Dict[int, Dict[DiagramPoint, int]] = {}
    for (d, p, q), mult in sorted(counts.items()):  # each key once, so no two items tie
        table.setdefault(d, {})[tuple.__new__(DiagramPoint, (p, q))] = mult
    diagram = object.__new__(PersistenceDiagram)
    object.__setattr__(diagram, "_points", table)
    return diagram


def _as_point(value: PointLike) -> DiagramPoint:
    if isinstance(value, DiagramPoint):
        return value
    p, q = value
    return DiagramPoint(p, q)


class PersistenceDiagram:
    """Per-degree multiplicity map with finite support and positive counts,
    each degree's points kept in canonical order, by p, then q."""

    __slots__ = ("_points",)

    def __init__(self, points: Mapping[int, Union[Mapping[PointLike, int], Iterable[PointLike]]] = None):
        """Build from ``{degree: {point: multiplicity}}`` or ``{degree: [point, ...]}``.

        Points may be DiagramPoint instances or plain (p, q) pairs; repeats in
        an iterable accumulate multiplicity.  The points are checked at once.
        """
        items = []
        for degree, content in (points or {}).items():
            degree = integer_value(degree, "degree")
            for (p, q), mult in content.items() if isinstance(content, Mapping) else zip(content, repeat(1)):
                items.append(((degree, _endpoint(p, "p"), _endpoint(q, "q")), integer_value(mult, "multiplicity")))
        object.__setattr__(self, "_points", _from_points(items)._points)

    def __setattr__(self, name, value):
        raise AttributeError("PersistenceDiagram is immutable")

    def degrees(self) -> Tuple[int, ...]:
        return tuple(sorted(self._points))

    def _bucket(self, d: int) -> Dict[DiagramPoint, int]:
        return self._points.get(integer_value(d, "degree"), {})

    def items(self, d: int) -> Iterator[Tuple[DiagramPoint, int]]:
        """The (point, multiplicity) pairs in degree d, by p, then q."""
        return iter(self._bucket(d).items())

    def multiplicity(self, d: int, point: PointLike) -> int:
        return self._bucket(d).get(_as_point(point), 0)

    def count(self, d: int) -> int:
        """Total point count, with multiplicity, in degree d."""
        return sum(self._bucket(d).values())

    def total(self) -> int:
        return sum(self.count(d) for d in self._points)

    def __eq__(self, other):
        if not isinstance(other, PersistenceDiagram):
            return NotImplemented
        return self._points == other._points

    def __repr__(self):
        parts = []
        for d in self.degrees():
            inner = ", ".join(
                f"{pt}" if m == 1 else f"{pt}x{m}" for pt, m in self.items(d)
            )
            parts.append(f"{d}: {{{inner}}}")
        return f"PersistenceDiagram({'; '.join(parts)})"


def diagram_of(barcode: Barcode) -> PersistenceDiagram:
    """The diagram of a barcode: its bars counted by value, singletons
    dropped, then summed per (inf, sup) and checked in bulk, so each point
    is made once.

    Endpoint openness is invisible here, so the radical of a barcode has the
    same diagram as the barcode itself.
    """
    return _from_points([((d, iv.lo, iv.hi), mult) for (d, iv), mult in Counter(barcode).items()
                         if not iv.is_singleton])


def quadrant_count(diagram: PersistenceDiagram, d: int, x: float, y: float) -> int:
    """Total multiplicity of degree-d points in the open quadrant p < x, q > y.

    Infinite endpoints and corners compare through the extended order, so
    (-inf, inf) lands in every quadrant with finite corners.  A NaN corner
    raises ValueError.
    """
    x, y = query_value(x, "x"), query_value(y, "y")
    return sum(m for pt, m in diagram.items(d) if pt.p < x and y < pt.q)


__all__ = ["DiagramPoint", "PersistenceDiagram", "diagram_of", "quadrant_count"]
