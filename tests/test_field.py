"""Prime fields: which characteristics are accepted, inverses, and the field check of the engine."""

import math

import pytest

from pershom import (
    Cover,
    PrimeField,
    TooLargeError,
    betti_at,
    compute_persistence,
    dowker_check,
    homology_ranks,
    persistence_diagram,
)

from helpers import closure


def _primes_below(n):
    """Sieve of Eratosthenes: flags[k] says whether k is prime."""
    flags = [False, False] + [True] * (n - 2)
    for k in range(2, math.isqrt(n - 1) + 1):
        if flags[k]:
            flags[k * k::k] = [False] * len(range(k * k, n, k))
    return flags


def test_prime_field_accepts_exactly_the_primes_below_10000():
    for n, prime in enumerate(_primes_below(10_000)):
        if n < 2:
            continue
        if prime:
            assert PrimeField(n).p == n
        else:
            with pytest.raises(ValueError) as err:
                PrimeField(n)
            assert str(err.value) == f"{n} is not prime"


def test_prime_field_at_the_edges_of_its_range():
    assert PrimeField(2**31 - 1).p == 2**31 - 1
    for n in (1_373_653, 25_326_001):  # the least strong pseudoprimes to the bases {2, 3} and {2, 3, 5}
        with pytest.raises(ValueError) as err:
            PrimeField(n)
        assert str(err.value) == f"{n} is not prime"
    for n in (-7, 0, 1):
        with pytest.raises(ValueError) as err:
            PrimeField(n)
        assert type(err.value) is ValueError and str(err.value) == f"requires characteristic >= 2, got {n}"
    for n in (2**31, 2**31 + 11):
        with pytest.raises(TooLargeError) as err:
            PrimeField(n)
        assert str(err.value) == f"characteristic {n} is over {2**31 - 1}"


@pytest.mark.parametrize("p", [3.0, "3", b"3", None, 2.5, True])
def test_prime_field_takes_its_characteristic_by_the_integer_rule(p):
    # `int` would truncate or parse each; a named ValueError, not a TypeError from inside the check
    with pytest.raises(ValueError) as err:
        PrimeField(p)
    assert str(err.value) == f"characteristic must be an integer, got {p!r}"


def test_prime_field_keeps_an_index_as_an_int():
    import numpy as np

    field = PrimeField(np.int64(5))
    assert type(field.p) is int and field == PrimeField(5)


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
def test_inverse_times_its_element_is_one(p):
    field = PrimeField(p)
    elements = range(1, p) if p < 100 else [1, 2, 3, 12345, p // 2, p - 2, p - 1]
    for a in elements:
        for shifted in (a, a + p, a - 3 * p):
            assert a * field.inv(shifted) % p == 1
    for zero in (0, p, -p):
        with pytest.raises(ZeroDivisionError, match="^inverse of 0$"):
            field.inv(zero)


@pytest.mark.parametrize("call", [
    lambda K: compute_persistence(K, 3),
    lambda K: persistence_diagram(K, 3),
    lambda K: homology_ranks(K, 2),
    lambda K: betti_at(K, 0.5, 0, 5),
    lambda K: dowker_check(Cover([("A", [1, 2]), ("B", [2, 3])]), 3),
], ids=["compute_persistence", "persistence_diagram", "homology_ranks", "betti_at", "dowker_check"])
def test_a_field_that_is_not_a_prime_field_is_named(call):
    # a bare characteristic once reached the reduction and failed there on `field.p`
    with pytest.raises(TypeError, match=r"^field must be a PrimeField, got \d$"):
        call(closure([(0, 1, 2)]))
