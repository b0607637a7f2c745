"""Latin squares, which are also the paper's cubic tensors, the LSESC and
MOLS predicates, GF(p^r), and the classical complete families over it.

Two squares are eligible for the row-indexed construction ("LSESC") when
every pair of rows, one from each square, agrees in exactly one column.
Conjugating every square (swap symbol and row index) turns such a family
into mutually orthogonal Latin squares and back, so both notions are
decided by one test: two squares are MOLS when the n^2 cell pairs are
distinct, and LSESC when their conjugates are MOLS.  Each square keeps its
conjugate, built once on first use (LatinSquare._conjugate), and every
predicate below reads that form and the cells.

Every predicate is one power-sum test: row r of A meets every row of B
exactly once iff sum_k 2^(row of B holding A[r][k] in column k) = 2^n - 1,
and those rows are cells of B's conjugate; the MOLS test swaps the roles
of a square and its conjugate.  A pair (are_lsesc, are_mols) sums the
powers out of B's cached column table (LatinSquare._column_powers).  A
whole family is decided in one packed pass (first_non_lsesc_pair,
first_non_mols_pair): every square B of a tile gets its own byte-aligned
slot of n + n.bit_length() bits, which holds the largest such sum,
n 2^(n-1), so one integer sum per row of A tests it against the whole
tile.

Squares always use the symbol set {1..n}.  The classical complete families
come from GF(q): the square for a nonzero element b has cell (i, j) equal
to 1 plus the index of x_i + b*x_j.  The element of index v is the
polynomial over F_p whose coefficients, lowest degree first, are the
base-p digits of v, and GF(p^r) = F_p[X]/(f), where f is X^r plus the
first element in index order that makes it irreducible.  The field has one
form, integer tables on those indices: addition, and the row of products
b*x_j for each nonzero b.  F_p[X]/(f) is a field exactly when f is
irreducible, and a finite commutative ring is one exactly when it has no
zero divisors, so f is the first candidate whose rows hold 0 only at x_0.
make_field's tuple field is a view of f; the tuple arithmetic that checks
the tables lives with the tests.

A square is validated once, where it enters: LatinSquare(...) checks its
cells, and so parse_latin_set and read_latin_set do.  The squares of
classical_lsesc_set, the cached conjugates, the squares reconstruct
recovers from a checked tensor and the tensors inflate blows up are built
without a check (LatinSquare._unchecked, LatinTensor._unchecked), since
they are Latin by construction.  Text is written and read through symbol
tables: the strings of 1..n, and errors.parse_rows for the cells of a
block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, groupby, product
from operator import getitem
from pathlib import Path
from typing import Iterable, Sequence

from .errors import (
    FormatError, PlanError, parse_decimals, parse_rows, read_text, size_text, text_lines,
    tile_units, write_text,
)

# Largest classical family order, checked before any field table is built:
# q = 256 is (q-1) q^2 = 1.7e7 cells.
CLASSICAL_ORDER_CAP = 2**8


@dataclass(frozen=True)
class LatinSquare:
    """Order-n square over symbols {1..n}; validated on construction.

    Entries must be ints (bools are rejected); nothing is coerced.  It is
    its own cubic tensor: slices, size and row_images as in LatinTensor.
    """

    n: int
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        cells = tuple(map(tuple, self.cells))
        object.__setattr__(self, "cells", cells)
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"order must be a positive int, got {self.n!r}")
        if len(cells) != self.n or not all(map(self.n.__eq__, map(len, cells))):
            raise ValueError(f"cells must form an {self.n}x{self.n} array")
        if not set(map(type, chain.from_iterable(cells))) <= {int}:
            raise ValueError("cells must be ints")
        if not is_latin(cells):
            raise ValueError("not a Latin square")

    @classmethod
    def _unchecked(cls, n: int, cells: tuple[tuple[int, ...], ...]) -> LatinSquare:
        """The square of n tuples of n ints that are Latin by construction,
        not validated again: for the library's own squares only."""
        square = object.__new__(cls)
        square.__dict__.update(n=n, cells=cells)
        return square

    @cached_property
    def _conjugate(self) -> LatinSquare:
        """The conjugate square (swap symbol and row index): row s holds, in
        column k, the 1-based row where column k holds symbol s.  Built on
        first use, unvalidated, and kept; it is not a field, so == and hash
        ignore it, and it holds no reference back to this square."""
        inverses = []  # column k's inverse permutation, at 1..n
        for column in zip(*self.cells):
            inverse = [0] * (self.n + 1)
            for i, s in enumerate(column, 1):
                inverse[s] = i
            inverses.append(inverse)
        return LatinSquare._unchecked(self.n, tuple(zip(*inverses))[1:])

    @cached_property
    def _column_powers(self) -> tuple[tuple[int, ...], ...]:
        """Column k's table: entry v is 2^(cell (v, k) - 1), for rows v in
        1..n, and entry 0 is 0.  Built on first use and kept; its entries
        are the shared ints of _powers(n)."""
        powers = _powers(self.n)
        return tuple((0, *map(powers.__getitem__, column)) for column in zip(*self.cells))

    @cached_property
    def slices(self) -> tuple[tuple[int, ...], ...]:
        """Frontal slice k sends row i to l_ik - 1: column k less one."""
        return tuple(tuple(v - 1 for v in column) for column in zip(*self.cells))

    @property
    def size(self) -> int:
        return self.n

    def row_images(self, slice_index: int) -> tuple[int, ...]:
        """0-based map i -> j of slice slice_index (1-based)."""
        return self.slices[slice_index - 1]


def is_latin(cells: Sequence[Sequence[int]]) -> bool:
    """True iff every symbol 1..n occurs exactly once per row and per column.

    Rows are taken in order; a ragged row, or a failing row with an entry
    outside 1..n, raises ValueError.  A Latin square passes one test of
    its row and column sets, with n^2 cells in all; only a square that
    fails it is walked row by row, for the error or the False."""
    n = len(cells)
    symbols = set(range(1, n + 1))
    if (
        all(map(symbols.__eq__, map(set, cells)))
        and sum(map(len, cells)) == n * n
        and all(map(symbols.__eq__, map(set, zip(*cells))))
    ):
        return True
    for row in cells:
        if len(row) != n:
            raise ValueError("ragged array")
        if set(row) != symbols:
            if any(not (1 <= v <= n) for v in row):
                raise ValueError(f"entries must lie in 1..{n}")
            return False
    return all(set(col) == symbols for col in zip(*cells))


def are_lsesc(first: LatinSquare, second: LatinSquare) -> bool:
    """Every row pair (one row from each square) agrees in exactly one column.

    Row i of A and row i' of B agree in column k exactly when both hold
    some symbol s there, i.e. when the conjugates hold (i, i') in cell
    (s, k); so the squares are LSESC iff their conjugates are MOLS.  A
    square of order n > 1 paired with itself fails: identical rows agree in
    every column.  The test is first_non_lsesc_pair's, on one pair.
    """
    n = _common_order((first, second))
    return _meets(first.cells, second._conjugate._column_powers, n)


def are_mols(first: LatinSquare, second: LatinSquare) -> bool:
    """True iff superimposing the squares yields all n^2 ordered symbol
    pairs: the cells of A holding symbol x, one per column, hold distinct
    symbols in B, for every x.  The test is first_non_mols_pair's, on one
    pair."""
    n = _common_order((first, second))
    return _meets(first._conjugate.cells, second._column_powers, n)


def first_non_lsesc_pair(squares: Sequence[LatinSquare]) -> tuple[int, int] | None:
    """The first pair (a, b), a < b, 1-based in lexicographic order, of
    squares that are not LSESC, or None: row r of A meets every row of B
    once iff the rows of B holding A's symbols, column by column, are
    distinct (see _first_unmet_pair)."""
    n = _common_order(squares)
    return _first_unmet_pair(
        [s.cells for s in squares], [chain.from_iterable(s._conjugate.cells) for s in squares], n
    )


def first_non_mols_pair(squares: Sequence[LatinSquare]) -> tuple[int, int] | None:
    """The first pair (a, b), a < b, 1-based in lexicographic order, of
    squares that are not MOLS, or None: the cells of A holding symbol x,
    one per column, must hold distinct symbols in B, for every x."""
    n = _common_order(squares)
    return _first_unmet_pair(
        [s._conjugate.cells for s in squares], [chain.from_iterable(s.cells) for s in squares], n
    )


def _common_order(squares: Sequence[LatinSquare]) -> int:
    """The order all squares share (1 when there are none), else ValueError."""
    n = squares[0].n if squares else 1
    for square in squares:
        if square.n != n:
            raise ValueError(f"squares of orders {n} and {square.n} in one family")
    return n


@cache
def _powers(n: int) -> tuple[int, ...]:
    """0, then 2^(s - 1) for s = 1..n: the ints all order-n column tables share."""
    return (0, *(1 << e for e in range(n)))


def _meets(keys: Sequence[Sequence[int]], columns: Sequence[Sequence[int]], n: int) -> bool:
    """_first_unmet_pair's test on a tile of one square, given by its column
    tables: True iff each row of keys picks n powers that sum to 2^n - 1."""
    full = (1 << n) - 1
    return all(sum(map(getitem, columns, row)) == full for row in keys)


def _first_unmet_pair(
    keys: Sequence[Sequence[Sequence[int]]],
    exponents: Sequence[Iterable[int]],
    n: int,
) -> tuple[int, int] | None:
    """The first pair (a, b), a < b, 1-based in lexicographic order, of a
    family of order-n squares for which some row of keys[a] does not meet
    b, or None.

    keys[a] holds n rows of n keys in 1..n, and square b holds the
    exponent exponents[b][(v - 1) n + k], in 1..n, for key v in column k;
    exponents[b] is read once, in order, when b's tile is packed.
    A row of keys meets b when the n exponents e_k it picks out of b are
    distinct, that is when sum_k 2^(e_k - 1) = 2^n - 1: distinct powers
    below 2^n add up to that number, and a repeat leaves fewer set bits.

    Squares b are packed a tile at a time: columns[k][v] holds, in one
    byte-aligned slot per square b of the tile, 2^(e - 1) for b's
    exponent e at key v in column k.  A slot sums n powers below 2^n,
    at most n 2^(n-1) (a square against itself), so n + n.bit_length()
    bits never carry into the next slot.  Each row of keys[a] is then one
    sum over its columns; XORed with 2^n - 1 in every slot, it leaves
    nonzero exactly the slots of the squares it does not meet, and the
    lowest such slot above a is the first failing b.  Tiles run in order
    of b and each is packed once; a failure at a leaves only the squares
    before a to later tiles.
    """
    slot = (n + n.bit_length() + 7) // 8
    bits = 8 * slot
    assert n << (n - 1) < 1 << bits
    unit = [b""] + [(1 << e).to_bytes(slot, "little") for e in range(n)]
    full = ((1 << n) - 1).to_bytes(slot, "little")
    tile = tile_units(n * n * slot)
    count = len(keys)
    best = None
    for b0 in range(0, count, tile):
        b1 = min(b0 + tile, count)
        firsts = range(min(b1 - 1, count if best is None else best[0]))
        if not firsts:
            continue
        table = [
            int.from_bytes(b"".join(map(unit.__getitem__, values)), "little")
            for values in zip(*exponents[b0:b1])
        ]
        columns = [[0] + table[k::n] for k in range(n)]
        ones = int.from_bytes(full * (b1 - b0), "little")
        for a in firsts:
            unmet = 0
            for row in keys[a]:
                unmet |= sum(map(getitem, columns, row)) ^ ones
            skip = max(b0, a + 1) - b0
            unmet >>= bits * skip
            if unmet:
                lowest = (unmet & -unmet).bit_length() - 1
                best = (a, b0 + skip + lowest // bits)
                break  # later squares a of this tile come after (a, b)
    return None if best is None else (best[0] + 1, best[1] + 1)


def conjugate_lsesc_mols(square: LatinSquare) -> LatinSquare:
    """Swap the roles of symbol and row index; an involution.

    The image square has cell (a, j) = i exactly when the input has cell
    (i, j) = a, i.e. each column is replaced by its inverse permutation.
    It is the square's cached conjugate, the same frozen object on every
    call (see LatinSquare._conjugate).
    """
    return square._conjugate


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


def classical_lsesc_set(q: int) -> list[LatinSquare]:
    """The q-1 squares with cells x_i + b*x_j over GF(q), one per nonzero b;
    an int past CLASSICAL_ORDER_CAP is refused before it is trial-divided."""
    if type(q) is int and q > CLASSICAL_ORDER_CAP:
        raise PlanError(
            f"LSESC family of order {size_text(q)} has {size_text((q - 1) * q * q)} cells; "
            f"the order cap is {CLASSICAL_ORDER_CAP}"
        )
    decomposition = prime_power(q)
    if decomposition is None:
        raise ValueError(f"{q} is not a prime power")
    _, plus, products = _field_tables(*decomposition)
    # sums[i][k] is the symbol of x_i + x_k
    sums = [[v + 1 for v in row] for row in plus]
    return [
        LatinSquare._unchecked(q, tuple(tuple(map(row.__getitem__, scaled)) for row in sums))
        for scaled in products
    ]


def _field_tables(p: int, r: int) -> tuple[int, list[list[int]], list[list[int]]]:
    """GF(p^r) on the indices of the base-p digit enumeration: the v of its
    modulus X^r + x_v, the addition table, and for b = 1..q-1 in order the
    row whose entry j is the index of b*x_j.

    plus[x][y] adds digit by digit mod p; it is built one digit at a time,
    the table for p^(k+1) from the one for p^k.  For each candidate v in
    index order, multiplying by X shifts the digits up one place, and a top
    digit t comes back as t copies of X^r = -x_v.  b*x is linear over F_p,
    so b's row grows one digit at a time: with j = low + d p^k,
    b*x_j = b*x_low + d (b X^k).  A second 0 in b's row makes b a zero
    divisor, and the next v is tried (see the module docstring).
    """
    plus = [[0]]
    for s in (p**k for k in range(r)):
        plus = [
            [plus[x % s][y % s] + (x // s + y // s) % p * s for y in range(s * p)]
            for x in range(s * p)
        ]
    q = len(plus)
    top = q // p

    def multiples(x: int) -> list[int]:
        """The indices of 0, x, 2x, ..., (p-1)x."""
        out = [0]
        for _ in range(p - 1):
            out.append(plus[out[-1]][x])
        return out

    for v in range(q):
        wrap = multiples(plus[v].index(0))  # t copies of -x_v
        times_x = [plus[u % top * p][wrap[u // top]] for u in range(q)]
        products = []
        for b in range(1, q):
            row = [0]
            power = b  # b X^k
            for _ in range(r):
                row = [plus[u][w] for w in multiples(power) for u in row]
                power = times_x[power]
            if row.count(0) > 1:
                break  # b is a zero divisor, so f is reducible
            products.append(row)
        else:
            return v, plus, products
    raise AssertionError("no irreducible modulus found; unreachable for prime p")


def write_latin_set(squares: Sequence[LatinSquare], path: str | Path) -> None:
    write_text(path, dump_latin_set(squares))


def dump_latin_set(squares: Sequence[LatinSquare]) -> str:
    """The text of squares, which parse_latin_set reads back; ValueError for
    no squares or squares of two orders, whose text it would refuse."""
    if not squares:
        raise ValueError("no Latin squares to write")
    n = _common_order(squares)
    names = list(map(str, range(n + 1)))
    blocks = []
    for square in squares:
        lines = [f"L {n}"]
        lines.extend(" ".join(map(names.__getitem__, row)) for row in square.cells)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def read_latin_set(path: str | Path) -> list[LatinSquare]:
    return parse_latin_set(read_text(path, "Latin-square"))


def parse_latin_set(text: str) -> list[LatinSquare]:
    squares = []
    for blank, run in groupby(text_lines(text), lambda line: not line.strip()):
        if blank:
            continue
        lines = list(run)
        header = lines[0].split()
        if len(header) != 2 or header[0] != "L":
            raise FormatError(f"expected 'L n' header, got {lines[0]!r}")
        try:
            (n,) = parse_decimals(header[1:])
        except ValueError as exc:
            raise FormatError(f"bad order in header {lines[0]!r}") from exc
        if len(lines) != n + 1:
            raise FormatError(f"square of order {n} needs {n} rows, got {len(lines) - 1}")
        try:
            cells = parse_rows(lines[1:], range(1, n + 1))
            squares.append(LatinSquare(n, cells))
        except ValueError as exc:
            raise FormatError(f"bad square block: {exc}") from exc
    if not squares:
        raise FormatError("no Latin squares in file")
    try:
        _common_order(squares)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    return squares


# ---------------------------------------------------------------------------
# Names only perfbench and their own tests use; they move to tests/oracles.py
# once perfbench stops importing them (ROADMAP item 3).  No family is built
# from the tuple field.


@dataclass(frozen=True)
class LatinTensor:
    """Stack of n disjoint permutations (the frontal slices), as row images.

    slices[k][i] is the 0-based image of row i under slice k.  A cubic
    tensor is a LatinSquare already; this class holds inflated and
    hand-built ones.  Inflation keeps the slice count but blows each slice
    up block-diagonally, so slices may permute more than n rows.
    """

    n: int
    slices: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        slices = tuple(tuple(sl) for sl in self.slices)
        object.__setattr__(self, "slices", slices)
        if type(self.n) is not int:
            raise ValueError(f"order must be an int, got {self.n!r}")
        if len(slices) != self.n:
            raise ValueError(f"expected {self.n} frontal slices, got {len(slices)}")
        if not slices:
            return
        rows = list(range(self.size))
        if not set(map(type, chain.from_iterable(slices))) <= {int} or any(
            sorted(sl) != rows for sl in slices
        ):
            raise ValueError(f"every frontal slice must permute 0..{len(rows) - 1}")
        if any(len(set(images)) != self.n for images in zip(*slices)):
            raise ValueError("frontal slices must be pairwise disjoint")

    @classmethod
    def _unchecked(cls, n: int, slices: tuple[tuple[int, ...], ...]) -> LatinTensor:
        """As LatinSquare._unchecked, for slices that are disjoint permutations
        by construction."""
        tensor = object.__new__(cls)
        tensor.__dict__.update(n=n, slices=slices)
        return tensor

    @property
    def size(self) -> int:
        return len(self.slices[0])

    row_images = LatinSquare.row_images


def encode(square: LatinSquare) -> LatinSquare:
    """The cubic tensor of square, which is the square itself (see
    LatinSquare.slices); kept for callers of the tensor form."""
    return square


def inflate(tensor: LatinSquare | LatinTensor, m: int) -> LatinTensor:
    """Blow each frontal slice X_k up to the block diagonal I_m (x) X_k; the
    blocks of a checked tensor's slices stay disjoint permutations, so the
    output is built unchecked."""
    if type(m) is not int:
        raise ValueError(f"inflation factor must be an int, got {m!r}")
    if m < 1:
        raise ValueError(f"inflation factor must be positive, got {m}")
    size = tensor.size
    return LatinTensor._unchecked(
        tensor.n,
        tuple(
            tuple(block * size + j for block in range(m) for j in sl)
            for sl in tensor.slices
        ),
    )


def reconstruct(tensor: LatinSquare | LatinTensor) -> LatinSquare:
    """Recover the square from a cubic tensor: cell (i, k) is the symbol slice k maps row i to.
    A checked tensor's slices are disjoint permutations, so the square is
    Latin and built unchecked."""
    if tensor.size != tensor.n:
        raise ValueError("only cubic (non-inflated) tensors encode a Latin square")
    return LatinSquare._unchecked(
        tensor.n, tuple(tuple(j + 1 for j in row) for row in zip(*tensor.slices))
    )


def classical_tensor_set(q: int) -> list[LatinSquare]:
    return classical_lsesc_set(q)


FieldElement = tuple[int, ...]


@dataclass(frozen=True)
class GaloisField:
    """GF(p^r) presented as F_p[x] modulo a monic irreducible of degree r."""

    p: int
    r: int
    modulus: tuple[int, ...]  # ascending degree, length r + 1, monic


def make_field(p: int, r: int) -> GaloisField:
    """GF(p^r) with the modulus of _field_tables: GF(4) gets x^2 + x + 1, and
    GF(8) gets x^3 + x + 1, whose index is below that of x^3 + x^2 + 1.
    Orders past CLASSICAL_ORDER_CAP are refused, by PlanError, before p^r
    is computed or p is tested.
    """
    cap = CLASSICAL_ORDER_CAP
    if type(p) is type(r) is int and p > 1 and (p > cap or r >= cap.bit_length() or p**r > cap):
        raise PlanError(f"field order {size_text(p)}^{size_text(r)} exceeds cap {cap}")
    if prime_power(p) != (p, 1):
        raise ValueError(f"{p!r} is not prime")
    if type(r) is not int or r < 1:
        raise ValueError(f"extension degree must be a positive int, got {r!r}")
    v = _field_tables(p, r)[0]
    return GaloisField(p=p, r=r, modulus=tuple(v // p**k % p for k in range(r)) + (1,))


def enumerate_elements(field: GaloisField) -> list[FieldElement]:
    """All field elements in base-p digit order; the zero element comes first."""
    return [digits[::-1] for digits in product(range(field.p), repeat=field.r)]
