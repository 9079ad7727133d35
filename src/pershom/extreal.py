"""Totally ordered real line extended by symbolic -inf / +inf endpoints.

Infinities are carried as explicit tokens instead of IEEE floats so that
ordering, hashing, and text round-trips stay unambiguous.  Finite values
are plain 64-bit floats and are never NaN.
"""

from __future__ import annotations

import math
from functools import total_ordering

_NEG, _FIN, _POS = -1, 0, 1


@total_ordering
class ExtendedReal:
    """A finite float or one of the two infinity tokens, totally ordered."""

    __slots__ = ("_kind", "_value")

    def __init__(self, value: float):
        value = float(value)
        if math.isnan(value):
            raise ValueError("extended real cannot be NaN")
        if math.isinf(value):
            raise ValueError("use NEG_INF / POS_INF for infinite endpoints")
        object.__setattr__(self, "_kind", _FIN)
        object.__setattr__(self, "_value", value)

    @classmethod
    def _token(cls, kind: int) -> "ExtendedReal":
        self = object.__new__(cls)
        object.__setattr__(self, "_kind", kind)
        object.__setattr__(self, "_value", None)
        return self

    @staticmethod
    def wrap(value) -> "ExtendedReal":
        """Coerce a float or ExtendedReal; IEEE infinities map to the tokens."""
        if isinstance(value, ExtendedReal):
            return value
        value = float(value)
        if math.isinf(value):
            return POS_INF if value > 0 else NEG_INF
        return ExtendedReal(value)

    @staticmethod
    def parse(text: str) -> "ExtendedReal":
        """Parse ``inf`` / ``-inf`` / a decimal literal."""
        text = text.strip()
        if text in ("inf", "+inf"):
            return POS_INF
        if text == "-inf":
            return NEG_INF
        return ExtendedReal(float(text))

    @property
    def is_finite(self) -> bool:
        return self._kind == _FIN

    @property
    def value(self) -> float:
        """The finite value; raises for the infinity tokens."""
        if self._kind != _FIN:
            raise ValueError(f"{self} has no finite value")
        return self._value

    @property
    def float_value(self) -> float:
        """This value as a float, with IEEE infinities for the tokens."""
        if self._kind == _FIN:
            return self._value
        return math.inf if self._kind == _POS else -math.inf

    def _key(self):
        return (self._kind, self._value if self._kind == _FIN else 0.0)

    def __eq__(self, other):
        if not isinstance(other, ExtendedReal):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other):
        if not isinstance(other, ExtendedReal):
            return NotImplemented
        return self._key() < other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError("ExtendedReal is immutable")

    def __str__(self) -> str:
        if self._kind == _NEG:
            return "-inf"
        if self._kind == _POS:
            return "inf"
        return repr(self._value)

    def __repr__(self) -> str:
        if self._kind == _FIN:
            return f"ExtendedReal({self._value!r})"
        return "NEG_INF" if self._kind == _NEG else "POS_INF"


NEG_INF = ExtendedReal._token(_NEG)
POS_INF = ExtendedReal._token(_POS)


def query_value(value, name: str) -> ExtendedReal:
    """A query argument coerced by `ExtendedReal.wrap`, so IEEE infinities
    are accepted; NaN raises ValueError naming the argument."""
    if not isinstance(value, ExtendedReal) and math.isnan(value):
        raise ValueError(f"{name} must not be NaN")
    return ExtendedReal.wrap(value)
