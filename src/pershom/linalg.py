"""Prime fields: the coefficient rings of the persistence reduction."""

from __future__ import annotations

from dataclasses import dataclass

_MR_BASES = (2, 3, 5, 7, 11, 13, 17)  # deterministic below 3.4e14


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17):
        if n == small:
            return True
        if n % small == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field with p elements; any prime 2 <= p < 2**31 is accepted."""

    p: int

    def __post_init__(self):
        if not (2 <= self.p < 2**31):
            raise ValueError(f"characteristic out of range: {self.p}")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)


GF2 = PrimeField(2)
GF3 = PrimeField(3)


__all__ = ["PrimeField", "GF2", "GF3", "is_prime"]
