"""Prime fields: the coefficient rings of the persistence reduction."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .barcode import integer_value


@dataclass(frozen=True)
class PrimeField:
    """The field with p elements; any prime 2 <= p < 2**31 is accepted."""

    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", integer_value(self.p, "characteristic"))
        if not (2 <= self.p < 2**31):
            raise ValueError(f"characteristic out of range: {self.p}")
        if any(self.p % d == 0 for d in range(2, math.isqrt(self.p) + 1)):  # at most 46,339 divisions
            raise ValueError(f"{self.p} is not prime")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)


GF2 = PrimeField(2)
GF3 = PrimeField(3)


__all__ = ["PrimeField", "GF2", "GF3"]
