"""Test-only oracles: the pair-by-pair verifier, the pair-by-pair T check,
the row-pair LSESC check, brute-force Latin-square search, polynomial
products and the floating-point value of a root-of-unity sum.

None of these is used by the library; they give the tests independent
expected values.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from bhmat.butson import ButsonMatrix, TExtraction, VerifyReport
from bhmat.cyclotomic import (
    ExponentCountVector,
    IntPolynomial,
    dot_counts,
    exponent_counts,
    sum_equals,
)
from bhmat.errors import PlanError
from bhmat.latin import LatinSquare, are_lsesc


def verify_oracle(b: ButsonMatrix) -> VerifyReport:
    """Every row pair and every column pair through the cyclotomic zero test."""
    bad_rows = _first_non_orthogonal(b.exponents, b.m)
    cols = tuple(b.column(j) for j in range(b.n))
    bad_cols = _first_non_orthogonal(cols, b.m)
    return VerifyReport(
        ok=bad_rows is None and bad_cols is None,
        bad_row_pair=bad_rows,
        bad_col_pair=bad_cols,
    )


def _first_non_orthogonal(
    vectors: Sequence[Sequence[int]], m: int
) -> tuple[int, int] | None:
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            if not sum_equals(dot_counts(vectors[i], vectors[j], m), 0):
                return (i + 1, j + 1)
    return None


def check_t_oracle(ext: TExtraction, m: int) -> None:
    """The four properties of T = [C; D], each identity through sum_equals.

    Distinct rows within C (and within D) have dot product -2; any C row
    against any D row gives 0; each C row sums to -1 on both halves; each
    D row sums to -1 on the left half and +1 on the right half.
    """
    split = ext.split

    def half_sums_ok(row: Sequence[int], left: int, right: int) -> bool:
        return sum_equals(exponent_counts(row[:split], m), left) and sum_equals(
            exponent_counts(row[split:], m), right
        )

    for label, rows in (("C", ext.c_rows), ("D", ext.d_rows)):
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if not sum_equals(dot_counts(rows[i], rows[j], m), -2):
                    raise PlanError(f"rows {i + 1},{j + 1} of {label} do not dot to -2")
    for i, c_row in enumerate(ext.c_rows):
        for j, d_row in enumerate(ext.d_rows):
            if not sum_equals(dot_counts(c_row, d_row, m), 0):
                raise PlanError(f"row {i + 1} of C vs row {j + 1} of D is not orthogonal")
    for i, c_row in enumerate(ext.c_rows):
        if not half_sums_ok(c_row, -1, -1):
            raise PlanError(f"row {i + 1} of C lacks the (-1, -1) half sums")
    for i, d_row in enumerate(ext.d_rows):
        if not half_sums_ok(d_row, -1, 1):
            raise PlanError(f"row {i + 1} of D lacks the (-1, +1) half sums")


def are_lsesc_oracle(first: LatinSquare, second: LatinSquare) -> bool:
    """Every row pair (one row from each square) agrees in exactly one column,
    counted pair by pair: O(n^3).
    """
    if first.n != second.n:
        raise ValueError(f"order mismatch: {first.n} vs {second.n}")
    n = first.n
    for row_a in first.cells:
        for row_b in second.cells:
            agreements = sum(1 for j in range(n) if row_a[j] == row_b[j])
            if agreements != 1:
                return False
    return True


def poly_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Product of two integer polynomials."""
    if a.is_zero() or b.is_zero():
        return IntPolynomial(())
    out = [0] * (len(a.coefficients) + len(b.coefficients) - 1)
    for i, x in enumerate(a.coefficients):
        if x == 0:
            continue
        for j, y in enumerate(b.coefficients):
            out[i + j] += x * y
    return IntPolynomial(tuple(out))


def approx_sum(c: ExponentCountVector) -> tuple[float, float]:
    """Floating-point value of the sum, as (real, imaginary). Cross-check only."""
    re = 0.0
    im = 0.0
    for k, count in enumerate(c.counts):
        if count == 0:
            continue
        angle = 2.0 * math.pi * k / c.m
        re += count * math.cos(angle)
        im += count * math.sin(angle)
    return re, im


def all_latin_squares(n: int) -> Iterator[LatinSquare]:
    """All order-n Latin squares in lexicographic order of the flattened cells."""
    cells: list[list[int]] = [[0] * n for _ in range(n)]
    col_used = [set() for _ in range(n)]

    def fill(pos: int) -> Iterator[LatinSquare]:
        if pos == n * n:
            yield LatinSquare(n, tuple(tuple(row) for row in cells))
            return
        i, j = divmod(pos, n)
        row_used = set(cells[i][:j])
        for symbol in range(1, n + 1):
            if symbol in row_used or symbol in col_used[j]:
                continue
            cells[i][j] = symbol
            col_used[j].add(symbol)
            yield from fill(pos + 1)
            col_used[j].remove(symbol)
        cells[i][j] = 0

    return fill(0)


def exhaustive_complete_lsesc(n: int) -> list[LatinSquare] | None:
    """Brute-force search for n-1 pairwise-LSESC squares of order n (n <= 4).

    Returns the first family found when squares are tried in lexicographic
    cell order, or None if no family exists.  General complete families
    come from classical_lsesc_set.
    """
    if n > 4:
        raise ValueError("exhaustive search is capped at order 4")
    if n < 1:
        raise ValueError("order must be positive")
    squares = list(all_latin_squares(n))
    target = n - 1
    if target == 0:
        return []

    def extend(chosen: list[LatinSquare], start: int) -> list[LatinSquare] | None:
        if len(chosen) == target:
            return chosen
        for idx in range(start, len(squares)):
            candidate = squares[idx]
            if all(are_lsesc(prev, candidate) for prev in chosen):
                found = extend(chosen + [candidate], idx + 1)
                if found is not None:
                    return found
        return None

    return extend([], 0)
