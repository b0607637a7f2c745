"""Latin squares, the LSESC and MOLS predicates, and tensor encodings.

Two squares are eligible for the row-indexed construction ("LSESC") when
every pair of rows, one from each square, agrees in exactly one column.
Conjugating every square (swap symbol and row index) turns such a family
into mutually orthogonal Latin squares and back, so both notions are
carried here side by side.

Squares always use the symbol set {1..n}.  The classical complete families
come from GF(q): the square for a nonzero field element b has cell (i, j)
equal to the enumeration index of x_i + b*x_j, read off the field's addition
and multiplication tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Sequence

from .errors import FormatError, PlanError, parse_decimals
from .galois import (
    enumerate_elements,
    element_value,
    field_add,
    field_mul,
    make_field,
    prime_power,
)

# Largest classical family order, checked before any field table is built:
# q = 256 is (q-1) q^2 = 1.7e7 cells.
CLASSICAL_ORDER_CAP = 2**8


@dataclass(frozen=True)
class LatinSquare:
    """Order-n square over symbols {1..n}; validated on construction.

    Entries must be ints (bools are rejected); nothing is coerced.
    """

    n: int
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        cells = tuple(tuple(row) for row in self.cells)
        object.__setattr__(self, "cells", cells)
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"order must be a positive int, got {self.n!r}")
        if len(cells) != self.n or any(len(row) != self.n for row in cells):
            raise ValueError(f"cells must form an {self.n}x{self.n} array")
        if not set(map(type, chain.from_iterable(cells))) <= {int}:
            raise ValueError("cells must be ints")
        if not is_latin(cells):
            raise ValueError("not a Latin square")


@dataclass(frozen=True)
class LatinTensor:
    """Stack of n disjoint permutations (the frontal slices), as row images.

    slices[k][i] is the 0-based image of row i under slice k.  For an
    encoded square, slice k sends row i to l_ik - 1; inflated tensors keep
    the same slice count but blow each slice up block-diagonally, so
    slices may permute more than n rows.
    """

    n: int
    slices: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        slices = tuple(tuple(sl) for sl in self.slices)
        object.__setattr__(self, "slices", slices)
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

    @property
    def size(self) -> int:
        return len(self.slices[0])

    def row_images(self, slice_index: int) -> tuple[int, ...]:
        """0-based map i -> j of slice slice_index (1-based)."""
        return self.slices[slice_index - 1]


def is_latin(cells: Sequence[Sequence[int]]) -> bool:
    """True iff every symbol 1..n occurs exactly once per row and per column.

    Rows are taken in order; a ragged row, or a failing row with an entry
    outside 1..n, raises ValueError."""
    n = len(cells)
    symbols = set(range(1, n + 1))
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

    A square paired with itself always fails: identical rows agree in every
    column.
    """
    if first.n != second.n:
        raise ValueError(f"order mismatch: {first.n} vs {second.n}")
    return _rows_meet_once(tuple(zip(*first.cells)), tuple(zip(*second.cells)))


def _rows_meet_once(
    columns_a: Sequence[Sequence[int]], columns_b: Sequence[Sequence[int]]
) -> bool:
    """LSESC for squares given as columns, each a permutation of one symbol
    set (1-based cells or 0-based slices).  Column k of B holds A's symbol
    (i, k) in exactly one row, so row i of A meets every row of B exactly
    once iff these n rows are distinct: O(n^2) per pair of squares."""
    n = len(columns_a)
    agreeing = [
        map(dict(zip(col_b, range(n))).__getitem__, col_a)
        for col_a, col_b in zip(columns_a, columns_b)
    ]
    return all(len(set(rows)) == n for rows in zip(*agreeing))


def are_mols(first: LatinSquare, second: LatinSquare) -> bool:
    """True iff superimposing the squares yields all n^2 ordered symbol pairs."""
    if first.n != second.n:
        raise ValueError(f"order mismatch: {first.n} vs {second.n}")
    pairs = zip(chain.from_iterable(first.cells), chain.from_iterable(second.cells))
    return len(set(pairs)) == first.n * first.n


def conjugate_lsesc_mols(square: LatinSquare) -> LatinSquare:
    """Swap the roles of symbol and row index; an involution.

    The image square has cell (a, j) = i exactly when the input has cell
    (i, j) = a, i.e. each column is replaced by its inverse permutation.
    """
    n = square.n
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[square.cells[i][j] - 1][j] = i + 1
    return LatinSquare(n, tuple(tuple(row) for row in out))


def classical_lsesc_set(q: int) -> list[LatinSquare]:
    """The q-1 squares with cells x_i + b*x_j over GF(q), one per nonzero b."""
    decomposition = prime_power(q)
    if decomposition is None:
        raise ValueError(f"{q} is not a prime power")
    if q > CLASSICAL_ORDER_CAP:
        raise PlanError(
            f"LSESC family of order {q} has {(q - 1) * q * q} cells; "
            f"the order cap is {CLASSICAL_ORDER_CAP}"
        )
    field = make_field(*decomposition)
    elements = enumerate_elements(field)
    index = partial(element_value, field)
    # sums[i][k] is the symbol of x_i + x_k, products[b-1][j] the index of b*x_j
    sums = [[index(field_add(field, x, y)) + 1 for y in elements] for x in elements]
    products = [[index(field_mul(field, b, y)) for y in elements] for b in elements[1:]]
    return [
        LatinSquare(q, tuple(tuple(map(row.__getitem__, scaled)) for row in sums))
        for scaled in products
    ]


def classical_tensor_set(q: int) -> list[LatinTensor]:
    return [encode(square) for square in classical_lsesc_set(q)]


def encode(square: LatinSquare) -> LatinTensor:
    """Tensor of frontal slices, one per column: slice k sends row i to l_ik - 1."""
    n = square.n
    return LatinTensor(
        n, tuple(tuple(square.cells[i][k] - 1 for i in range(n)) for k in range(n))
    )


def inflate(tensor: LatinTensor, m: int) -> LatinTensor:
    """Blow each frontal slice X_k up to the block diagonal I_m (x) X_k."""
    if m < 1:
        raise ValueError(f"inflation factor must be positive, got {m}")
    size = tensor.size
    return LatinTensor(
        tensor.n,
        tuple(
            tuple(block * size + j for block in range(m) for j in sl)
            for sl in tensor.slices
        ),
    )


def reconstruct(tensor: LatinTensor) -> LatinSquare:
    """Recover the square from a cubic tensor: cell (i, k) is the symbol slice k maps row i to."""
    if tensor.size != tensor.n:
        raise ValueError("only cubic (non-inflated) tensors encode a Latin square")
    return LatinSquare(
        tensor.n, tuple(tuple(j + 1 for j in row) for row in zip(*tensor.slices))
    )


def write_latin_set(squares: Sequence[LatinSquare], path: str | Path) -> None:
    Path(path).write_text(dump_latin_set(squares), encoding="utf-8")


def dump_latin_set(squares: Sequence[LatinSquare]) -> str:
    blocks = []
    for square in squares:
        lines = [f"L {square.n}"]
        lines.extend(" ".join(str(v) for v in row) for row in square.cells)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def read_latin_set(path: str | Path) -> list[LatinSquare]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"Latin-square file is not UTF-8: {exc}") from exc
    return parse_latin_set(text)


def parse_latin_set(text: str) -> list[LatinSquare]:
    squares = []
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    for block in text.split("\n\n"):
        lines = [line for line in block.splitlines() if line.strip()]
        if not lines:
            continue
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
            cells = tuple(parse_decimals(line.split()) for line in lines[1 : n + 1])
            squares.append(LatinSquare(n, cells))
        except ValueError as exc:
            raise FormatError(f"bad square block: {exc}") from exc
    if not squares:
        raise FormatError("no Latin squares in file")
    return squares
