"""GF(p^r) with a deterministic modulus and element order.

Elements are coefficient tuples of length r (ascending degree, reduced mod
p).  The modulus is the lexicographically smallest monic irreducible of its
degree, and elements are enumerated by base-p digit value, so the same field
and the same element indexing come out on every run.  The library computes
in the field only through latin's integer tables on those indices; the
tuple arithmetic that checks them lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

SIZE_CAP = 2**20

FieldElement = tuple[int, ...]


def is_prime(n: int) -> bool:
    """Whether n is a prime int; a bool or a float never is."""
    if type(n) is not int or n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(q: int) -> tuple[int, int] | None:
    """Decompose q as p^r with p prime, or None if q is not a prime power
    (a bool or a float never is)."""
    if type(q) is not int or q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            r = 0
            rest = q
            while rest % p == 0:
                rest //= p
                r += 1
            return (p, r) if rest == 1 else None
        p += 1
    return (q, 1)


@dataclass(frozen=True)
class GaloisField:
    """GF(p^r) presented as F_p[x] modulo a monic irreducible of degree r."""

    p: int
    r: int
    modulus: tuple[int, ...]  # ascending degree, length r + 1, monic

    @property
    def order(self) -> int:
        return self.p**self.r


def _poly_mod(poly: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    """Reduce poly by the monic modulus, coefficients mod p."""
    rem = [c % p for c in poly]
    deg_m = len(modulus) - 1
    for top in range(len(rem) - 1, deg_m - 1, -1):
        factor = rem[top]
        if factor == 0:
            continue
        shift = top - deg_m
        for k, c in enumerate(modulus):
            rem[shift + k] = (rem[shift + k] - factor * c) % p
    return rem[:deg_m]


def _is_irreducible(candidate: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(candidate) - 1
    for d in range(1, deg // 2 + 1):
        for value in range(p**d):
            divisor = _element_from_value(value, d, p) + (1,)
            if not any(_poly_mod(list(candidate), divisor, p)):
                return False
    return True


def _element_from_value(value: int, length: int, p: int) -> tuple[int, ...]:
    digits = []
    for _ in range(length):
        digits.append(value % p)
        value //= p
    return tuple(digits)


def make_field(p: int, r: int) -> GaloisField:
    """Build GF(p^r) with the lexicographically smallest monic irreducible modulus.

    Coefficient tuples are compared low degree first, so for example GF(4)
    gets x^2 + x + 1 (the only irreducible monic quadratic over F_2).
    """
    if not is_prime(p):
        raise ValueError(f"{p!r} is not prime")
    if type(r) is not int or r < 1:
        raise ValueError(f"extension degree must be a positive int, got {r!r}")
    if p**r > SIZE_CAP:
        raise ValueError(f"field order {p}^{r} exceeds cap {SIZE_CAP}")
    for value in range(p**r):
        candidate = _element_from_value(value, r, p) + (1,)
        if _is_irreducible(candidate, p):
            return GaloisField(p=p, r=r, modulus=candidate)
    raise AssertionError("no irreducible polynomial found; unreachable for prime p")


def enumerate_elements(field: GaloisField) -> list[FieldElement]:
    """All field elements in base-p digit order; the zero element comes first."""
    return [
        _element_from_value(value, field.r, field.p) for value in range(field.order)
    ]
