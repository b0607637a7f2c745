"""Test-only oracles: the polynomial root-of-unity sum test, the
pair-by-pair verifier, the pair-by-pair T check, the cell-by-cell exponent
and Latin tests, the row-pair LSESC check, the symbol-pair MOLS check,
brute-force Latin-square search, polynomial products, the reference
GF(p^r) arithmetic on coefficient tuples and irreducibility test by trial
division, the floating-point value of a root-of-unity sum, and reference
parsers of the two file kinds.

None of these is used by the library; they give the tests independent
expected values.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Any, Iterator, Sequence

from bhmat.butson import ButsonMatrix, TExtraction, VerifyReport
from bhmat.errors import PlanError
from bhmat.latin import FieldElement, GaloisField
from bhmat.latin import LatinSquare, are_lsesc


# ---------------------------------------------------------------------------
# Exact reference test for sums of roots of unity.
#
# A multiset of m-th roots of unity sums to the integer v exactly when the
# m-th cyclotomic polynomial divides (sum_k counts[k] x^k) - v; the
# polynomials are monic, so the remainder stays integral.  The library
# decides orthogonality with butson's packed big-integer test; sum_equals is
# the reference that the oracles below check it against.


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


def check_exponents_oracle(rows: Sequence[Sequence[object]], m: int) -> None:
    """ButsonMatrix's exponent check cell by cell, rows in order: the first
    cell that is not an int, or lies outside [0, m), raises ValueError."""
    for row in rows:
        for v in row:
            if type(v) is not int:
                raise ValueError(f"exponent {v!r} is not an int")
            if not (0 <= v < m):
                raise ValueError(f"exponent {v} out of range [0, {m})")


def is_latin_oracle(cells: Sequence[Sequence[int]]) -> bool:
    """is_latin cell by cell, rows in order: the first ragged row, or row
    with an entry outside 1..n, raises ValueError unless an earlier row
    already failed; then the columns are compared with the symbols.
    """
    n = len(cells)
    symbols = set(range(1, n + 1))
    for row in cells:
        if len(row) != n:
            raise ValueError("ragged array")
        if any(not (1 <= v <= n) for v in row):
            raise ValueError(f"entries must lie in 1..{n}")
        if set(row) != symbols:
            return False
    for j in range(n):
        if {cells[i][j] for i in range(n)} != symbols:
            return False
    return True


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


def are_mols_oracle(first: LatinSquare, second: LatinSquare) -> bool:
    """True iff superimposing the squares yields all n^2 ordered symbol pairs."""
    if first.n != second.n:
        raise ValueError(f"order mismatch: {first.n} vs {second.n}")
    pairs = zip(chain.from_iterable(first.cells), chain.from_iterable(second.cells))
    return len(set(pairs)) == first.n * first.n


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


# ---------------------------------------------------------------------------
# Reference GF(p^r) arithmetic on coefficient tuples.
#
# The library builds its classical families, and finds their modulus, on
# integer tables of the digit enumeration (latin._field_tables), where a
# candidate modulus is ruled out by a zero divisor.  These tuple operations
# are the field those tables are checked against, and trial division is the
# irreducibility test its modulus is checked against.


def is_irreducible_oracle(f: IntPolynomial, p: int) -> bool:
    """Whether the monic f is irreducible over F_p: no monic polynomial of
    degree 1..deg(f)/2 divides it.  A monic divisor keeps the integer
    remainder integral, and taken mod p it is the remainder over F_p."""
    for d in range(1, f.degree // 2 + 1):
        for value in range(p**d):
            divisor = IntPolynomial(tuple(value // p**k % p for k in range(d)) + (1,))
            _, rem = divmod(f, divisor)
            if all(c % p == 0 for c in rem.coefficients):
                return False
    return True


def element_value(field: GaloisField, a: FieldElement) -> int:
    """Position of a in the digit enumeration (0 for the zero element)."""
    return sum(c * field.p**k for k, c in enumerate(a))


def field_add(field: GaloisField, a: FieldElement, b: FieldElement) -> FieldElement:
    return tuple((x + y) % field.p for x, y in zip(a, b, strict=True))


def field_mul(field: GaloisField, a: FieldElement, b: FieldElement) -> FieldElement:
    """a*b reduced by the monic modulus: the integer remainder, taken mod
    p, is the remainder over F_p."""
    product = poly_mul(IntPolynomial(a), IntPolynomial(b))
    _, rem = divmod(product, IntPolynomial(field.modulus))
    reduced = [c % field.p for c in rem.coefficients]
    return tuple(reduced + [0] * (field.r - len(reduced)))


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


# ---------------------------------------------------------------------------
# Reference parsers, written from README's "File formats" rules with none
# of bhmat's parsing code: no parse_decimals, and no validating ButsonMatrix
# or LatinSquare.  Each returns the file's content, or None for a file that
# the CLI must reject with exit 3.  Lines end at LF, CRLF or CR and at no
# other character, a blank line is empty or whitespace-only, and tokens
# are separated by whitespace.

DIGITS = frozenset("0123456789")


def _text(path: str | Path) -> str | None:
    """The file's text, or None unless its bytes are UTF-8."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        return None


def _lines(text: str) -> list[str]:
    return re.split("\r\n|\r|\n", text)


def _decimals(tokens: Sequence[str]) -> list[int] | None:
    """The tokens as ints if each is plain ASCII decimal digits, else None
    (also for an int past Python's digit limit)."""
    if not all(set(token) <= DIGITS for token in tokens):
        return None
    try:
        return [int(token) for token in tokens]
    except ValueError:
        return None


def _is_int(value: Any) -> bool:
    return type(value) is int


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError("repeated key")
    return dict(pairs)


def reference_matrix(path: str | Path) -> tuple[int, int, list[list[int]]] | None:
    """(m, n, rows) of a matrix file, or None.  A file whose first
    non-whitespace character is '{' is a JSON object with no repeated key
    in any object, holding int m >= 1, int n >= 1 and exponents, a list of
    n lists of n ints in [0, m); other keys are free.  Any other non-blank
    file is a 'BH m n' header line and n rows of n exponents; blank lines
    are ignored."""
    text = _text(path)
    if text is None or not text.strip():
        return None
    if text.lstrip()[0] == "{":
        try:
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError):
            return None
        m, n, rows = doc.get("m"), doc.get("n"), doc.get("exponents")
    else:
        lines = [line.split() for line in _lines(text) if line.strip()]
        if len(lines[0]) != 3 or lines[0][0] != "BH":
            return None
        numbers = [_decimals(tokens) for tokens in [lines[0][1:]] + lines[1:]]
        if None in numbers:
            return None
        (m, n), rows = numbers[0], numbers[1:]
    if not (_is_int(m) and _is_int(n) and m >= 1 and n >= 1):
        return None
    if not (isinstance(rows, list) and len(rows) == n):
        return None
    if not all(isinstance(row, list) and len(row) == n for row in rows):
        return None
    if not all(_is_int(v) and 0 <= v < m for row in rows for v in row):
        return None
    return m, n, rows


def reference_latin_set(path: str | Path) -> list[list[list[int]]] | None:
    """The squares of a family file, each as its rows, or None.  Squares
    are the runs of non-blank lines, at least one: an 'L n' header, n >= 1,
    then n rows in which every row and every column holds each of 1..n once.
    Squares of different orders are left to the caller."""
    text = _text(path)
    if text is None:
        return None
    squares, run = [], []
    for line in _lines(text) + [""]:
        if line.strip():
            run.append(line.split())
            continue
        if run:
            square = _reference_square(run)
            if square is None:
                return None
            squares.append(square)
            run = []
    return squares or None


def _reference_square(lines: list[list[str]]) -> list[list[int]] | None:
    header = lines[0]
    if len(header) != 2 or header[0] != "L":
        return None
    order = _decimals(header[1:])
    if order is None or order[0] < 1 or len(lines) != order[0] + 1:
        return None
    rows = [_decimals(tokens) for tokens in lines[1:]]
    symbols = list(range(1, order[0] + 1))
    if None in rows or any(sorted(row) != symbols for row in rows):
        return None
    if any(sorted(column) != symbols for column in zip(*rows)):
        return None
    return rows
