"""Exact reference test for sums of roots of unity.

A multiset of m-th roots of unity sums to the integer v exactly when the
m-th cyclotomic polynomial divides (sum_k counts[k] x^k) - v; the
polynomials are monic, so the remainder stays integral.  The library
decides orthogonality with butson's packed big-integer test; sum_equals is
the reference that the test oracles check it against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, coefficients in ascending degree.

    Trailing zero coefficients are trimmed on construction, so the leading
    coefficient is nonzero unless the polynomial is zero (empty tuple).
    """

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(int(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def __divmod__(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Quotient and remainder; requires a monic divisor so both stay integral."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if divisor.coefficients[-1] != 1:
            raise ValueError("divisor must be monic")
        rem = list(self.coefficients)
        dlen = len(divisor.coefficients)
        quot = [0] * max(len(rem) - dlen + 1, 0)
        for top in range(len(rem) - 1, dlen - 2, -1):
            factor = rem[top]
            if factor == 0:
                continue
            shift = top - (dlen - 1)
            quot[shift] = factor
            for k, c in enumerate(divisor.coefficients):
                rem[shift + k] -= factor * c
        return IntPolynomial(tuple(quot)), IntPolynomial(tuple(rem))


def _divisors(m: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> IntPolynomial:
    """The m-th cyclotomic polynomial.

    Computed by exact division: (x^m - 1) divided by the product of all
    lower cyclotomic polynomials indexed by proper divisors of m.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    poly = IntPolynomial((-1,) + (0,) * (m - 1) + (1,))
    for d in _divisors(m):
        if d == m:
            continue
        poly, rem = divmod(poly, cyclotomic_poly(d))
        assert rem.is_zero()
    return poly


@dataclass(frozen=True)
class ExponentCountVector:
    """Multiset of exponents: counts[k] copies of the m-th root zeta_m^k."""

    m: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if self.m < 1:
            raise ValueError(f"root order must be positive, got {self.m}")
        if len(self.counts) != self.m:
            raise ValueError(f"expected {self.m} counts, got {len(self.counts)}")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(self.counts)


def conjugate_exponent(e: int, m: int) -> int:
    """Exponent of the complex conjugate: zeta^e bar = zeta^((m - e) mod m)."""
    return (m - e) % m


def negate_exponent(e: int, m: int) -> int:
    """Exponent of -zeta^e; defined only for even m, where -1 = zeta^(m/2)."""
    if m % 2 != 0:
        raise ValueError(f"negation needs an even root order, got m={m}")
    return (e + m // 2) % m


def dot_counts(a: Sequence[int], b: Sequence[int], m: int) -> ExponentCountVector:
    """Exponent multiset of the Hermitian dot product of two exponent rows.

    Entry-wise, zeta^a_i * conj(zeta^b_i) = zeta^((a_i - b_i) mod m), so the
    dot product is fully described by counting exponent differences.
    """
    if len(a) != len(b):
        raise ValueError(f"row length mismatch: {len(a)} vs {len(b)}")
    counts = [0] * m
    for x, y in zip(a, b):
        if not (0 <= x < m and 0 <= y < m):
            raise ValueError(f"exponent out of range [0, {m}): {x}, {y}")
        counts[(x - y) % m] += 1
    return ExponentCountVector(m, tuple(counts))


def exponent_counts(values: Sequence[int], m: int) -> ExponentCountVector:
    """Multiset of the given exponents themselves (each contributes zeta^value)."""
    counts = [0] * m
    for v in values:
        if not 0 <= v < m:
            raise ValueError(f"exponent out of range [0, {m}): {v}")
        counts[v] += 1
    return ExponentCountVector(m, tuple(counts))


def sum_equals(c: ExponentCountVector, v: int) -> bool:
    """Exact test: does the root-of-unity sum described by c equal the integer v?

    True iff Phi_m divides (sum_k counts[k] x^k) - v over the integers.
    """
    coeffs = list(c.counts)
    coeffs[0] -= v
    _, rem = divmod(IntPolynomial(tuple(coeffs)), cyclotomic_poly(c.m))
    return rem.is_zero()
