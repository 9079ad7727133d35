"""Intervals, barcodes, and the barcode-level persistence-module algebra.

A barcode is a finite multiset of (degree, interval) bars and stands for the
direct sum of the corresponding one-dimensional interval summands.  All
values here are immutable; every operation is a pure function.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import index
from typing import Iterable, Iterator, Tuple

import numpy as np


class ExtendedReal(float):
    """A point of the extended real line: a float that is never NaN, made
    through `query_value`, so that text, a bool or None is refused.

    The infinite endpoints are IEEE ``-inf`` / ``inf``, so order, hashing and
    the ``str``/``float()`` text round trip are those of floats.  The three
    properties serve existing callers; the library itself uses float idioms.
    """

    __slots__ = ()

    def __new__(cls, value):
        return float.__new__(cls, query_value(value, "extended real"))

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self)

    @property
    def value(self) -> float:
        """The finite value; raises for -inf and inf."""
        if not math.isfinite(self):
            raise ValueError(f"{self} has no finite value")
        return float(self)

    @property
    def float_value(self) -> float:
        return float(self)


_endpoint_of = partial(float.__new__, ExtendedReal)  # an ExtendedReal from a float known not to be NaN
_BOOLS = (bool, np.bool_)  # `float` and `operator.index` would read these as 0 and 1
_NOT_REAL = (str, bytes, bytearray, *_BOOLS, type(None))  # not numbers: `float` parses text, numpy reads None as NaN


class TooLargeError(ValueError):
    """An input over a size limit named ``*_LIMIT``, refused by `integer_value`
    alone before the work is begun; the message names the quantity and the limit."""


def query_value(value, name: str, finite: bool = False) -> float:
    """A real-number argument or endpoint as a float; text, a bool, None, a
    value that `float` refuses, NaN, or an infinity where ``finite`` is asked
    for, raises ValueError naming the argument."""
    try:
        if isinstance(value, _NOT_REAL):
            raise TypeError
        value = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a real number, got {value!r}") from None
    if math.isnan(value) or (finite and math.isinf(value)):
        raise ValueError(f"{name} must {'be finite' if finite else 'not be NaN'}, got {value}")
    return value


NEG_INF = ExtendedReal(-math.inf)
POS_INF = ExtendedReal(math.inf)


def real_array(values, name: str, finite: bool = False) -> np.ndarray:
    """An array argument as floats; an entry given as text, a bool or None,
    NaN, or an infinity where ``finite`` is asked for, raises ValueError
    naming the argument and the entry's position, as `query_value` does for
    one value.  An integer or float ndarray holds no text, so only other
    input has its entries' types read."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        objects = np.asarray(values, dtype=object)  # each entry as given: numpy reads [0, True] as [0, 1]
        if any(issubclass(kind, _NOT_REAL) for kind in set(map(type, objects.flat))):  # each type once
            at, entry = next((at, entry) for at, entry in np.ndenumerate(objects) if isinstance(entry, _NOT_REAL))
            raise ValueError(f"{name} has {entry!r} at {at}, not a number")
    array = np.asarray(values, dtype=float)
    bad = ~np.isfinite(array) if finite else np.isnan(array)
    if bad.any():
        at = tuple(np.argwhere(bad)[0].tolist())
        raise ValueError(f"{name} has {array[at]} at {at}, {'not a number' if np.isnan(array[at]) else 'not finite'}")
    return array


def integer_value(value, name: str, least: int = None, most: int = None) -> int:
    """An integer argument by `operator.index`, which refuses the floats and
    strings that `int` would truncate or parse; those, bools and one below
    ``least`` raise ValueError, and one over ``most`` TooLargeError, naming it."""
    try:
        if isinstance(value, _BOOLS):
            raise TypeError
        value = index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"requires {name} >= {least}, got {value}")
    if most is not None and value > most:
        raise TooLargeError(f"{name} {value} is over {most}")
    return value


class Interval(namedtuple("Interval", "lo hi lo_closed hi_closed")):
    """An interval of the real line with explicit endpoint openness.

    Invariants: ``lo <= hi``; a closed endpoint is always finite; equal
    endpoints force a (finite) singleton ``[a,a]``.  A tuple of two
    ExtendedReals and two bool flags, checked once when made; any other endpoint
    goes through `query_value`.  Hashing, equality and order are those of the tuple.
    """

    __slots__ = ()

    def __new__(cls, lo, hi, lo_closed: bool, hi_closed: bool):
        lo = lo if type(lo) is ExtendedReal else _endpoint_of(query_value(lo, "lo"))
        hi = hi if type(hi) is ExtendedReal else _endpoint_of(query_value(hi, "hi"))
        for name, flag in (("lo_closed", lo_closed), ("hi_closed", hi_closed)):
            if not isinstance(flag, _BOOLS):
                raise ValueError(f"{name} must be a bool, got {flag!r}")
        self = super().__new__(cls, lo, hi, lo_closed, hi_closed)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {self}")
        if lo_closed and not math.isfinite(lo):
            raise ValueError("closed left endpoint must be finite")
        if hi_closed and not math.isfinite(hi):
            raise ValueError("closed right endpoint must be finite")
        if lo == hi and not (lo_closed and hi_closed):
            raise ValueError("an interval with equal endpoints must be a singleton [a,a]")
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)  # so that `_replace` checks too

    @staticmethod
    def closed_open(lo: float, hi: float) -> "Interval":
        """The half-open interval [lo, hi); ``hi`` may be +infinity."""
        return Interval(lo, hi, True, False)

    @staticmethod
    def open_open(lo: float, hi: float) -> "Interval":
        return Interval(lo, hi, False, False)

    @staticmethod
    def closed_closed(lo: float, hi: float) -> "Interval":
        return Interval(lo, hi, True, True)

    @staticmethod
    def singleton(at: float) -> "Interval":
        at = query_value(at, "at")
        return Interval(at, at, True, True)

    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def contains(self, t) -> bool:
        """Membership of a point, respecting openness flags; -inf and +inf
        belong to no interval, since closed endpoints are finite.  Text or NaN
        raises ValueError naming ``t``."""
        return bool(_inside(*self, query_value(t, "t")))

    def __str__(self) -> str:
        return _text(*self)


def _inside(lo, hi, lo_closed, hi_closed, t):
    """Whether t lies above lo or at a closed lo, and below hi or at a closed hi; on scalars or columns."""
    return ((lo < t) | ((lo == t) & lo_closed)) & ((t < hi) | ((t == hi) & hi_closed))


def _text(lo: float, hi: float, lo_closed: bool, hi_closed: bool) -> str:
    return f"{'[' if lo_closed else '('}{lo},{hi}{']' if hi_closed else ')'}"


def _made(cls, lo: np.ndarray, hi: np.ndarray, *flags: np.ndarray) -> list:
    """The `cls` rows (Intervals or DiagramPoints) of checked columns, made without a check of their own."""
    rows = zip(map(_endpoint_of, lo.tolist()), map(_endpoint_of, hi.tolist()), *(flag.tolist() for flag in flags))
    return list(map(tuple.__new__, repeat(cls), rows))


def _int_array(values) -> np.ndarray:
    """A sequence of integers as int64, or as exact Python ints in an object array when one does not fit."""
    try:
        return np.fromiter(values, np.int64, len(values))
    except OverflowError:
        return np.array(values, object)


@dataclass(frozen=True)
class ConstancyWitness:
    """Threshold pair: the module is constant below t0 and above t1; NaN
    raises ValueError naming the threshold."""

    t0: float
    t1: float

    def __post_init__(self):
        object.__setattr__(self, "t0", query_value(self.t0, "t0"))
        object.__setattr__(self, "t1", query_value(self.t1, "t1"))
        if self.t0 > self.t1:
            raise ValueError("witness requires t0 <= t1")


class _DegreeColumns:
    """Rows kept as a tuple of read-only columns, sorted by the first: the
    degree, int64, or exact Python ints in an object array when one does not
    fit.  A degree's rows are one slice, found by binary search; the shared
    base of `Barcode` and `PersistenceDiagram`, which change no column once made."""

    __slots__ = ("_columns",)

    @classmethod
    def _of(cls, *columns: np.ndarray):
        """The value of columns already sorted, checked and owned by no one else; made read-only here."""
        for column in columns:
            column.flags.writeable = False
        made = object.__new__(cls)
        object.__setattr__(made, "_columns", columns)
        return made

    def __eq__(self, other):
        alike = isinstance(other, type(self))
        return all(map(np.array_equal, self._columns, other._columns)) if alike else NotImplemented

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return self._of, self._columns  # copied and pickled as its columns, each keeping its dtype

    def degrees(self) -> Tuple[int, ...]:
        return tuple(dict.fromkeys(self._columns[0].tolist()))  # in ascending order, as sorted

    def _in_degree(self, d: int) -> Tuple[np.ndarray, ...]:
        """The other columns of the degree-d rows, as read-only views.  An int64
        column holds no degree outside int64 and is not searched for one, since
        numpy would compare such a degree as a float, equal to its neighbours."""
        degree, *rest = self._columns
        d = integer_value(d, "degree")
        start = end = 0
        if degree.dtype == object or -(2**63) <= d < 2**63:
            start, end = degree.searchsorted(d), degree.searchsorted(d, "right")
        return tuple(column[start:end] for column in rest)


class Barcode(_DegreeColumns):
    """A finite multiset of (degree, interval) bars, sorted stably by value
    when made: by degree, then the interval's fields in order.

    Its bars are five read-only columns (integer degrees, float64 endpoints,
    bool flags), laid out and looked up by degree as a `PersistenceDiagram`'s
    points are, and made `Interval`s on demand.  Equality is multiset
    equality; degrees may be any integers.
    """

    __slots__ = ()

    def __new__(cls, bars: Iterable[Tuple[int, Interval]] = ()):
        rows = []
        for d, iv in bars:
            if not isinstance(iv, Interval):
                raise TypeError(f"expected Interval, got {type(iv).__name__}")
            rows.append((integer_value(d, "degree"), *iv))
        degree, *interval = zip(*rows) if rows else ((),) * 5
        return cls._from_arrays(_int_array(degree), *map(np.array, interval, (float, float, bool, bool)))

    @classmethod
    def _from_arrays(cls, *columns: np.ndarray) -> "Barcode":
        """The barcode of checked degree, lo, hi, lo_closed and hi_closed columns; equal
        bars spelled apart, as [-0.0,1.0) and [0.0,1.0), keep their bits and input order."""
        order = np.lexsort(columns[::-1])
        return cls._of(*(column[order] for column in columns))

    @property
    def bars(self) -> Tuple[Tuple[int, Interval], ...]:
        return tuple(self)

    def __iter__(self) -> Iterator[Tuple[int, Interval]]:
        return zip(self._columns[0].tolist(), _made(Interval, *self._columns[1:]))

    def __len__(self) -> int:
        return len(self._columns[0])

    def __hash__(self):
        return hash(self.bars)

    def in_degree(self, d: int) -> Tuple[Interval, ...]:
        return tuple(_made(Interval, *self._in_degree(d)))

    def __repr__(self):
        inner = ", ".join(f"{d}: {iv}" for d, iv in self)
        return f"Barcode({{{inner}}})"


def interval_module_rank(interval: Interval, s: float, t: float) -> int:
    """Rank of the structure map of a one-interval summand from value s to t:
    that of the barcode of its one bar, 1 exactly when both s and t lie in the
    interval, else 0.  NaN raises ValueError naming the argument."""
    return barcode_rank(Barcode([(0, interval)]), 0, s, t)


def barcode_rank(barcode: Barcode, d: int, s: float, t: float) -> int:
    """Rank of the degree-d structure map from value s to value t.

    The barcode module's map has one identity component per bar containing
    both s and t, so the rank is that bar count.  Either value may be
    infinite, where no bar lives; NaN raises ValueError.
    """
    s, t = query_value(s, "s"), query_value(t, "t")
    if s > t:
        raise ValueError(f"requires s <= t, got s={s}, t={t}")
    interval = barcode._in_degree(d)
    return int(np.count_nonzero(_inside(*interval, s) & _inside(*interval, t)))


def radical(barcode: Barcode) -> Barcode:
    """Minimal submodule with ephemeral cokernel, at the barcode level.

    Attained (closed, finite) left endpoints open up; singleton bars vanish;
    everything else is unchanged.
    """
    kept = barcode._columns[1] < barcode._columns[2]  # a singleton [a,a] has lo == hi
    degree, lo, hi, lo_closed, hi_closed = (column[kept] for column in barcode._columns)
    return Barcode._from_arrays(degree, lo, hi, np.zeros_like(lo_closed), hi_closed)


def constancy_witness(barcode: Barcode, d: int) -> ConstancyWitness:
    """Values below/above which the degree-d barcode module stops changing.

    Convention: one unit below the smallest finite endpoint and one unit
    above the largest; (0, 0) when no finite endpoint exists in degree d.
    """
    ends = np.concatenate(barcode._in_degree(d)[:2])
    finite = ends[np.isfinite(ends)]
    if not len(finite):
        return ConstancyWitness(0.0, 0.0)
    return ConstancyWitness(float(finite.min()) - 1.0, float(finite.max()) + 1.0)


__all__ = [
    "TooLargeError",
    "Interval",
    "Barcode",
    "ConstancyWitness",
    "interval_module_rank",
    "barcode_rank",
    "radical",
    "constancy_witness",
    "NEG_INF",
    "POS_INF",
    "ExtendedReal",
]
