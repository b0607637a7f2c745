"""Butson matrices over exponent arrays, with exact verification.

A matrix with entries that are m-th roots of unity is stored as its n x n
array of exponents: entry (i, j) stands for zeta_m^exponents[i][j].

verify decides from the rows alone, since for a square B, B B* = nI
implies B* B = nI; the columns are scanned only after a row pair fails,
to name the first failing column pair.  A pair of rows a, b is tested in
one integer: with w = 2^W >= n + 2 and c(x) = sum_k x^(a_k - b_k + m),
the pair is orthogonal exactly when Phi_m(w) divides c(w).  Row 1 is
tested pair by pair, as a sum of residues w^e mod Phi_m(w); all pairs of
each later row come out of one big-integer pass that packs every tile of
rows once (see _first_non_orthogonal, which also decides psi's T check).
The pass packs each row into a slot of one rotation layout, where c(w)
itself would need 2mW bits: c(w) mod F, with F = w^m - 1 at odd m (m
digits of W bits, the cyclic difference histogram) and F = w^(m/2) + 1
at even m (m/2 digits and a bias, negacyclic).  Phi_m(w) divides F in
both, so a slot is a multiple of Phi_m(w) exactly when its pair is
orthogonal, and all slots of a row are tested by one division (see
_layout and _first_packed_failure).  Row i tests only the slots j > i;
once the slots below them are worth dropping (_trim_pays), the pass
shifts them out of the tile.  Slots are byte-aligned and never carry
into one another, so the slots left are unchanged.  No floating point is
involved in verification.

Row and column indices in the public API are 1-based, matching the usual
matrix convention.
"""

from __future__ import annotations

import functools
import hashlib
import json
import operator
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Any, Sequence

from .errors import (
    FormatError, PlanError, parse_decimals, parse_rows, read_text, size_text, text_lines,
    tile_units, write_text,
)


# Largest Fourier order, checked before any row is built: n = 2048 is
# n^2 = 4.2e6 cells.
FOURIER_ORDER_CAP = 2**11

# Largest root order verify takes, checked before the modulus Phi_m(2^W) is
# built: a 2 x 2 matrix takes about 0.2 s at m = 4096 and 1.1 s at 8192.
ROOT_ORDER_CAP = 2**12


@dataclass(frozen=True)
class ButsonMatrix:
    """Order-n matrix of exponents modulo the root order m.

    m, n and every exponent must be ints (bools are rejected); nothing is
    coerced.
    """

    m: int
    n: int
    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.exponents)
        object.__setattr__(self, "exponents", rows)
        if type(self.m) is not int or self.m < 1:
            raise ValueError(f"root order must be a positive int, got {self.m!r}")
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"matrix order must be a positive int, got {self.n!r}")
        if len(rows) != self.n or any(len(row) != self.n for row in rows):
            raise ValueError(f"exponents must form an {self.n}x{self.n} array")
        # The set of types first, so that the set of values only ever
        # holds ints: True == 1 and 1.0 == 1 would merge with them.
        if not (
            set().union(*map(map, repeat(type), rows)) <= {int}
            and 0 <= min(values := set().union(*rows))
            and max(values) < self.m
        ):
            bad = next(
                v
                for v in chain.from_iterable(rows)
                if type(v) is not int or not 0 <= v < self.m
            )
            if type(bad) is not int:
                raise ValueError(f"exponent {bad!r} is not an int")
            raise ValueError(f"exponent {bad} out of range [0, {self.m})")

    def column(self, j: int) -> tuple[int, ...]:
        """Column j (0-based) as an exponent row."""
        return tuple(row[j] for row in self.exponents)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of the exact orthogonality check.

    bad_row_pair / bad_col_pair hold the first failing pair of 1-based
    indices in lexicographic scan order, or None if that family is clean.
    """

    ok: bool
    bad_row_pair: tuple[int, int] | None = None
    bad_col_pair: tuple[int, int] | None = None


@dataclass(frozen=True)
class TExtraction:
    """The sub-matrix T = [C; D] and the permutations that exposed it.

    row_perm / col_perm list the original 1-based indices of the parent in
    their new order, and t is the trailing (n-2) x (n-2) block of the parent
    with those permutations applied.  split is the column count of the left
    half T1 (= (n-2)/2), and also the number of C rows.
    """

    t: tuple[tuple[int, ...], ...]
    split: int
    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]

    @property
    def c_rows(self) -> tuple[tuple[int, ...], ...]:
        return self.t[: self.split]

    @property
    def d_rows(self) -> tuple[tuple[int, ...], ...]:
        return self.t[self.split :]


def fourier(n: int) -> ButsonMatrix:
    """The order-n Fourier matrix: exponent (i-1)(j-1) mod n, root order n."""
    if type(n) is not int:
        raise ValueError(f"order must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if n > FOURIER_ORDER_CAP:
        raise PlanError(
            f"Fourier matrix of order {size_text(n)} has {size_text(n * n)} cells; "
            f"the order cap is {FOURIER_ORDER_CAP}"
        )
    rows = tuple(tuple((i * j) % n for j in range(n)) for i in range(n))
    return ButsonMatrix(m=n, n=n, exponents=rows)


def verify(b: ButsonMatrix) -> VerifyReport:
    """Exact check that all distinct row pairs and column pairs are orthogonal.

    The rows decide; the columns are scanned only when a row pair fails.
    A root order past ROOT_ORDER_CAP raises PlanError before any work.
    """
    if b.m > ROOT_ORDER_CAP:
        raise PlanError(
            f"root order {size_text(b.m)} is past the root order cap {ROOT_ORDER_CAP}"
        )
    bad_rows = _first_non_orthogonal(b.exponents, b.m)
    if bad_rows is None:
        return VerifyReport(ok=True)
    bad_cols = _first_non_orthogonal(tuple(zip(*b.exponents)), b.m)
    return VerifyReport(ok=False, bad_row_pair=bad_rows, bad_col_pair=bad_cols)


_TRIM_BYTES = 256  # see _trim_pays


def _embedding(m: int, n: int) -> tuple[int, int]:
    """The width W and the modulus Phi_m(2^W) of the exact test for n terms.

    Let c(x) be a sum of n monomials, so that c(zeta) is a sum of n m-th
    roots of unity.  c(zeta) = 0 iff Phi_m(w) divides c(w), w = 2^W >= n + 2:
    Z[zeta]/(zeta - w) is Z/Phi_m(w), and a nonzero c(zeta) in the ideal
    (zeta - w) would have a norm divisible by N(zeta - w) = +-Phi_m(w),
    whose size is at least (w - 1)^phi(m) > n^phi(m) >= |N(c(zeta))|
    (Washington, Cyclotomic Fields, Thm 2.13).
    """
    width = (n + 1).bit_length()
    assert 1 << width >= n + 2
    return width, _cyclotomic_value(m, 1 << width)


@functools.lru_cache(maxsize=256)
def _cyclotomic_value(m: int, w: int) -> int:
    """Phi_m(w) as an integer, from w^m - 1 = prod_{d | m} Phi_d(w): divide
    out Phi_d(w) for every proper divisor d of m.  Each division is exact,
    and w >= 2 keeps every divisor nonzero."""
    value = w**m - 1
    for d in range(1, m // 2 + 1):
        if m % d == 0:
            value //= _cyclotomic_value(d, w)
    return value


@functools.lru_cache(maxsize=256)
def _layout(m: int, n: int) -> tuple[int, int, int, int, int, int]:
    """The packed layout of _first_packed_failure for n vectors of length
    n: W and M = Phi_m(2^W) from _embedding, the slot of one row in bytes,
    the number L of W-bit digits, the per-slot bias and the bit count z of
    the whole-row test.

    Odd m packs c(w) mod F = w^m - 1 in L = m digits (cyclic), which add up
    to n, so a slot is at most n w^(m-1).  Even m packs it mod F = w^L + 1,
    L = m/2 (negacyclic; Phi_m does not divide x^L - 1, so Phi_m(w) divides
    F), with the bias (n + c)F: cF covers what a rotation subtracts, the
    part of the slot from digit L - 1 up, and a slot stays below bound =
    w^L + (2n + c)F.  c is the least that covers every slot below its
    bound; L = 1 has no rotation, and c = 0.  Z = 2^z is the least power of
    two above (bound - 1) // M, and the slot holds bound - 1 and (Z - 1) M.
    """
    width, modulus = _embedding(m, n)
    if m % 2:
        digits, bias, bound = m, 0, (n << width * (m - 1)) + 1
    else:
        digits, c = m // 2, 0
        span = (1 << width * digits) + 1
        while digits > 1 and c * span < ((2 * n + c + 1) * span - 2) >> width * (digits - 1):
            c += 1
        bias, bound = (n + c) * span, (2 * n + c + 1) * span - 1
    quotient = ((bound - 1) // modulus).bit_length()
    slot = (max(bound - 1, ((1 << quotient) - 1) * modulus).bit_length() + 7) // 8
    return width, modulus, slot, digits, bias, quotient


def _slots_divisible(tail: int, modulus: int, over: int) -> bool:
    """Whether every slot of tail is a multiple of M = modulus, for slots of
    _layout's width, where over masks the bits at or above z in each.  If
    every slot is q_j M, each q_j < Z = 2^z is a slot of the quotient.  If
    M divides tail and every quotient slot q_j is below Z, each q_j M fits
    a slot, so sum_j q_j M 2^(8Sj) is tail's one slot image."""
    quotient, remainder = divmod(tail, modulus)
    return not remainder and not quotient & over


def _trim_pays(dead: int, live: int, slot: int) -> bool:
    """Whether _first_packed_failure shifts a tile's dead slots out: dead
    slots lie below the first slot a row tests, live ones from it to the
    end of the tile, each slot bytes wide.  They go once they are at least
    1/8 of the live slots and hold at least _TRIM_BYTES of each table int;
    below that, the shift costs more than the additions it saves."""
    return 8 * dead >= live and dead * slot >= _TRIM_BYTES


def _first_non_orthogonal(
    vectors: Sequence[Sequence[int]], m: int
) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, 1-based in lexicographic order, of
    vectors that are not orthogonal, or None.

    Row 1 is scanned pair by pair: with power[e] = w^e mod M, M = Phi_m(w),
    sum_k power[a_1k - b_k] is congruent mod M to c(w) for the pair (1, j)
    (a negative difference d indexes power[m + d], and w^m = 1 mod M), and
    it stays below n M, so one reduction decides the pair.  Column k looks
    b_k up in the list of power[a_1k - b] over b < m.  One corrupted
    entry of a Butson matrix breaks the pair (1, j) of its row j, or (1, 2)
    if it lies in row 1, so it is found here without packing anything.
    Rows 2..n-1 are then decided by _first_packed_failure, which packs
    each tile of rows once and tests each later row with one division.
    """
    n = len(vectors)
    width, modulus = _layout(m, n)[:2]
    power = [pow(1 << width, e, modulus) for e in range(m)]
    rotation = {a: [power[a - b] for b in range(m)] for a in set(vectors[0])}
    terms = list(map(rotation.__getitem__, vectors[0]))
    for j in range(1, n):
        if sum(map(operator.getitem, terms, vectors[j])) % modulus:
            return 1, j + 1
    return _first_packed_failure(vectors, m)


def _first_packed_failure(
    vectors: Sequence[Sequence[int]], m: int
) -> tuple[int, int] | None:
    """The first pair (i, j), 2 <= i < j, 1-based in lexicographic order, of
    vectors that are not orthogonal, or None; row 1 is not tested.

    Rows j are packed a tile at a time, one slot of _layout's width each:
    table[k] holds unit[a_jk] in the slot of row j, and row i adds the
    table[k] with a_ik = e into sums[e].  unit[e] is w^t, t = -e mod m,
    reduced mod F: w^t itself while t < L, else F - w^(t - L), as w^L = -1
    mod w^(m/2) + 1.  Even m folds sums[e + L] into sums[e] with a minus
    sign; then Horner's rule over L - 1 rotations leaves in slot j a number
    congruent to c(w) mod F, and so mod M = Phi_m(w), for the pair (i, j).
    A rotation takes x = hi w^(L-1) + lo to lo w + hi w^L, where w^L is +1
    mod w^m - 1 and -1 mod w^(m/2) + 1: two shifts, two masks and an
    addition or a subtraction, the same step for every m.

    The slots j > i of a row are tested at once, by _slots_divisible; only
    a failing row is cut into slots, to name its first j.  Tiles run in
    order of j and each is packed at most once; a failure in row i leaves
    only the rows before i to later tiles.

    Within the tile that holds row i, the slots j <= i are dead: no later
    row tests them.  When _trim_pays says so, every table[k] and the bias
    are shifted right by the dead slots, and base, the row of the lowest
    slot left, moves up to i + 1; slot j then sits (j - base) slots up.
    This is exact because slots are byte-aligned and every sum, fold and
    rotation keeps each slot below its bound in _layout: no slot borrows
    from or carries into another, so slot j >= base is the same number
    with or without the slots below it.
    """
    n = len(vectors)
    width, modulus, slot, digits, bias, quotient = _layout(m, n)
    tile = tile_units(n * slot)
    powers = [1 << width * t for t in range(digits)]
    powers += [(1 << width * digits) + 1 - p for p in powers]  # F - w^(t - L), t >= L
    unit = [powers[-e % m].to_bytes(slot, "little") for e in range(m)]
    top = width * (digits - 1)
    rotate_in = operator.add if m % 2 else operator.sub  # w^L = +1 or -1 mod F
    best = None
    for j0 in range(0, n, tile):
        j1 = min(j0 + tile, n)
        rows = range(1, min(j1 - 1, n if best is None else best[0]))
        if not rows:
            continue
        table = [
            int.from_bytes(b"".join(map(unit.__getitem__, col)), "little")
            for col in zip(*vectors[j0:j1])
        ]
        ones = int.from_bytes(b"\1".ljust(slot, b"\0") * (j1 - j0), "little")
        low, high = ones * ((1 << top) - 1), ones * ((1 << 8 * slot - top) - 1)
        offset, over = ones * bias, ones * ((1 << 8 * slot) - (1 << quotient))
        base = j0  # the row of the lowest slot left in table and offset
        for i in rows:
            start = max(j0, i + 1)
            if _trim_pays(start - base, j1 - start, slot):
                shift = 8 * slot * (start - base)
                for k, entry in enumerate(table):  # in place: no second table
                    table[k] = entry >> shift
                offset >>= shift
                base = start
            sums = [offset] * digits + [0] * (m - digits)
            for entry, e in zip(table, vectors[i]):
                sums[e] += entry
            if m % 2 == 0:
                sums = list(map(operator.sub, sums[:digits], sums[digits:]))
            packed = sums[-1]
            for s in reversed(sums[:-1]):
                packed = rotate_in(((packed & low) << width) + s, (packed >> top) & high)
            if _slots_divisible(packed >> 8 * slot * (start - base), modulus, over):
                continue
            data = packed.to_bytes((j1 - base) * slot, "little")
            for j in range(start, j1):
                at = (j - base) * slot
                if int.from_bytes(data[at : at + slot], "little") % modulus:
                    best = (i, j)
                    break
            else:
                raise AssertionError(f"row {i + 1} failed the division test in no slot")
            break  # later rows of this tile come after (i, j)
    return None if best is None else (best[0] + 1, best[1] + 1)


def dephase(b: ButsonMatrix) -> ButsonMatrix:
    """Normalise so the first row and first column consist of exponent 0.

    Column j is divided by entry (1, j), then row i by its new leading
    entry; in exponent form these are subtractions mod m.  The input must
    already be a Butson matrix for the output to be one.
    """
    first_row = b.exponents[0]
    rows = [
        [(v - first_row[j]) % b.m for j, v in enumerate(row)] for row in b.exponents
    ]
    rows = [[(v - row[0]) % b.m for v in row] for row in rows]
    return ButsonMatrix(b.m, b.n, tuple(tuple(row) for row in rows))


def core(b: ButsonMatrix) -> tuple[tuple[int, ...], ...]:
    """Dephase, then delete the first row and column: the (n-1) x (n-1) exponent rows.

    Any two distinct rows (or columns) of a core have dot product exactly
    -1, and every row sums to -1; these facts drive both constructions.
    """
    return tuple(row[1:] for row in dephase(b).exponents[1:])


def find_c1_pairs(b: ButsonMatrix) -> list[tuple[int, int]]:
    """All row pairs (t, s), t < s, where row s is row t with every second entry negated.

    Entries at even 1-based positions are the negated ones; negation adds
    m/2 to the exponent, so both the root order and the matrix order must
    be even.  Pairs come out in lexicographic order.
    """
    if b.m % 2 != 0:
        raise ValueError(f"C1 needs an even root order, got m={b.m}")
    if b.n % 2 != 0:
        raise ValueError(f"C1 needs an even matrix order, got n={b.n}")
    pairs = []
    for t in range(b.n):
        expected = tuple(
            v if j % 2 == 0 else (v + b.m // 2) % b.m
            for j, v in enumerate(b.exponents[t])
        )
        for s in range(t + 1, b.n):
            if b.exponents[s] == expected:
                pairs.append((t + 1, s + 1))
    return pairs


def find_c2_cells(b: ButsonMatrix) -> list[tuple[int, int]]:
    """All cells (i, j) where row i and column j take only the values 1 and -1
    and their common entry is -1.  Row-major scan order; m must be even."""
    if b.m % 2 != 0:
        raise ValueError(f"C2 needs an even root order, got m={b.m}")
    half = b.m // 2
    allowed = {0, half}
    pm_rows = [i for i in range(b.n) if set(b.exponents[i]) <= allowed]
    pm_cols = [j for j in range(b.n) if set(b.column(j)) <= allowed]
    return [
        (i + 1, j + 1)
        for i in pm_rows
        for j in pm_cols
        if b.exponents[i][j] == half
    ]


def _move_to_second(indices: list[int], target: int) -> list[int]:
    rest = [x for x in indices if x != target]
    return [rest[0], target] + rest[1:]


def extract_t(b: ButsonMatrix, cell: tuple[int, int]) -> TExtraction:
    """Expose the sub-matrix T = [C; D] behind a C2 witness cell.

    The parent is permuted in four deterministic steps: the C2 column and
    row are rotated into position 2; then columns 3..n and rows 3..n are
    stable-partitioned so the second row and second column each read
    (1, -1, 1..1, -1..-1).  T is the trailing (n-2) x (n-2) block.
    """
    if cell not in find_c2_cells(b) or set(map(type, cell)) != {int}:
        raise PlanError(f"cell {cell} is not a C2 witness of this matrix")
    return _extract_t(b, cell)


def _extract_t(b: ButsonMatrix, cell: tuple[int, int]) -> TExtraction:
    """extract_t for a cell already known to be a C2 witness of b."""
    i0, j0 = cell
    split = (b.n - 2) // 2

    def partition(order: list[int], sign_of, what: str) -> list[int]:
        plus = [x for x in order[2:] if sign_of(x) == 0]
        minus = [x for x in order[2:] if sign_of(x) != 0]
        if len(plus) != split:
            raise PlanError(f"C2 {what} is unbalanced; is the matrix normalised?")
        return order[:2] + plus + minus

    col_order = partition(
        _move_to_second(list(range(1, b.n + 1)), j0),
        lambda c: b.exponents[i0 - 1][c - 1],
        "row",
    )
    row_order = partition(
        _move_to_second(list(range(1, b.n + 1)), i0),
        lambda r: b.exponents[r - 1][j0 - 1],
        "column",
    )

    t_block = tuple(
        tuple(b.exponents[r - 1][c - 1] for c in col_order[2:]) for r in row_order[2:]
    )
    return TExtraction(
        t=t_block, split=split, row_perm=tuple(row_order), col_perm=tuple(col_order)
    )


def permute_columns(b: ButsonMatrix, order: Sequence[int]) -> ButsonMatrix:
    """Reorder columns; order lists the 1-based original indices in their new order."""
    if any(type(c) is not int for c in order) or sorted(order) != list(range(1, b.n + 1)):
        raise ValueError(f"not a permutation of 1..{b.n}: {order}")
    rows = tuple(tuple(row[c - 1] for c in order) for row in b.exponents)
    return ButsonMatrix(b.m, b.n, rows)


# ---------------------------------------------------------------------------
# File formats: a canonical JSON document and a plain-text form.  Both are
# byte-deterministic for a given matrix (and provenance), and round-trip
# exactly.

def matrix_digest(b: ButsonMatrix) -> str:
    payload = _canonical_json({"m": b.m, "n": b.n, "exponents": b.exponents})
    return "sha256:" + hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dump_matrix(
    b: ButsonMatrix, fmt: str = "json", provenance: dict[str, Any] | None = None
) -> str:
    if fmt == "json":
        doc: dict[str, Any] = {"m": b.m, "n": b.n, "exponents": b.exponents}
        if provenance is not None:
            doc["provenance"] = provenance
        return _canonical_json(doc) + "\n"
    if fmt == "text":
        values = set().union(*b.exponents)
        names = dict(zip(values, map(str, values)))
        lines = [f"BH {b.m} {b.n}"]
        lines.extend(" ".join(map(names.__getitem__, row)) for row in b.exponents)
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def write_matrix(
    b: ButsonMatrix,
    path: str | Path,
    fmt: str = "json",
    provenance: dict[str, Any] | None = None,
) -> None:
    """Write b atomically (see errors.write_text)."""
    write_text(path, dump_matrix(b, fmt, provenance))


def _without_repeated_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object as a dict; json.loads alone would keep the last value
    of a repeated key."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in doc if keys.count(k) > 1)!r}")
    return doc


def parse_matrix(text: str) -> tuple[ButsonMatrix, dict[str, Any] | None]:
    """Parse either format, sniffing by the first non-blank character."""
    stripped = text.lstrip()
    if not stripped:
        raise FormatError("empty matrix file")
    if stripped.startswith("{"):
        try:
            doc = json.loads(text, object_pairs_hook=_without_repeated_keys)
        except (ValueError, RecursionError) as exc:
            # besides JSONDecodeError: an int past Python's digit limit
            # (ValueError) or arrays nested past the recursion limit
            raise FormatError(f"bad JSON: {exc}") from exc
        try:
            matrix = ButsonMatrix(doc["m"], doc["n"], doc["exponents"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad matrix document: {exc}") from exc
        provenance = doc.get("provenance")
        return matrix, provenance
    lines = [line for line in text_lines(text) if line.strip()]
    header = lines[0].split()
    if len(header) != 3 or header[0] != "BH":
        raise FormatError(f"expected 'BH m n' header, got {lines[0]!r}")
    try:
        m, n = parse_decimals(header[1:])
        # exponents past the root order cap are read by parse_decimals
        rows = parse_rows(lines[1:], range(min(m, ROOT_ORDER_CAP)))
        return ButsonMatrix(m, n, rows), None
    except ValueError as exc:
        raise FormatError(f"bad matrix body: {exc}") from exc


def read_matrix(path: str | Path) -> tuple[ButsonMatrix, dict[str, Any] | None]:
    return parse_matrix(read_text(path, "matrix"))
