"""The two block constructions that grow Butson matrices.

phi turns an order-n input into an order n(n-1) output using a complete
LSESC family of order n-1.  psi turns an order-n input (n, m even, with the
C1 row pair and a C2 witness cell) into an order n(n/2-1) output using a
complete family of order n/2-1.

Both are one block rule (see _assemble): remove some rows of the x-source
(phi's deleted row, psi's C1 pair), scale the column blocks by the first
of them, and run c stacked copies of family-order rows through the
family's slices (square columns less one): one copy for phi (the core),
two for psi (C and D of T = [C; D]), so psi's inflation by I_2 is index
arithmetic.

Both accept an optional second input matrix: the first ("x-source") feeds
the top Kronecker band and the scale row, the second feeds the core or the
extracted T.  With one input the same matrix plays both roles.

Both verify their inputs exactly as their first step, ahead of any plan
check, and re-verify every output before it is returned; a construction
is never trusted on faith.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Sequence

from .butson import (
    ButsonMatrix,
    TExtraction,
    _extract_t,
    _first_non_orthogonal,
    core,
    find_c1_pairs,
    find_c2_cells,
    fourier,
    verify,
)
from .errors import PlanError, VerificationError, size_text
from .latin import LatinSquare, classical_lsesc_set, first_non_lsesc_pair

# Largest phi or psi output order, checked by family_shape, so before any
# family or block is built: psi on F_66 (r = 5) makes n = 2112.
OUTPUT_ORDER_CAP = 2**12


@dataclass(frozen=True)
class PhiPlan:
    """Inputs for phi: matrix H, a complete LSESC family of order n-1, an
    optional x-source G, and which row of the x-source to delete."""

    h: ButsonMatrix
    tensors: tuple[LatinSquare, ...]
    g: ButsonMatrix | None = None
    deleted_row: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "tensors", tuple(self.tensors))


@dataclass(frozen=True)
class PsiPlan:
    """Inputs for psi; a None c1_pair or c2_cell means "first in scan order"."""

    h: ButsonMatrix
    tensors: tuple[LatinSquare, ...]
    g: ButsonMatrix | None = None
    c1_pair: tuple[int, int] | None = None
    c2_cell: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tensors", tuple(self.tensors))


def family_shape(kind: str, n: int) -> tuple[int, int]:
    """Order and size of the complete LSESC family that phi or psi needs
    for an order-n input: (n-1, n-2) for phi, (n/2-1, n/2-2) for psi.

    This is also the one home of the minimum input orders, phi needing
    n >= 3 and psi an even n >= 6, and of the output order cap: PlanError
    unless n times the family order is at most OUTPUT_ORDER_CAP.
    """
    if kind == "phi":
        if n < 3:
            raise PlanError(f"phi needs order >= 3, got {n}")
    elif n % 2:
        raise PlanError(f"psi needs an even order, got {n}")
    elif n < 6:
        raise PlanError(f"psi needs order >= 6, got {n}")
    order = n - 1 if kind == "phi" else n // 2 - 1
    if n * order > OUTPUT_ORDER_CAP:
        raise PlanError(
            f"{kind} output of order {size_text(n * order)} has "
            f"{size_text((n * order) ** 2)} cells; "
            f"the output order cap is {OUTPUT_ORDER_CAP}"
        )
    return order, order - 1


def _require_verified(b: ButsonMatrix, label: str) -> None:
    report = verify(b)
    if not report.ok:
        raise VerificationError(
            f"{label} failed exact verification "
            f"(rows {report.bad_row_pair}, columns {report.bad_col_pair})"
        )


def _x_source(h: ButsonMatrix, g: ButsonMatrix | None) -> ButsonMatrix:
    """First step of phi and psi, ahead of every plan check: verify H (and
    G when it differs from H), check they share n and m, and return the
    x-source."""
    _require_verified(h, "input H")
    if g is None or g == h:
        return h
    _require_verified(g, "input G")
    if (g.n, g.m) != (h.n, h.m):
        raise PlanError("both inputs must share the same order and root order")
    return g


def _checked_family(squares: Sequence[LatinSquare], kind: str, n: int) -> None:
    """family_shape's PlanError for phi or psi on an order-n input, or
    PlanError unless squares is a complete LSESC family for it: that many
    LatinSquares of the family order, of which one packed pass on their
    cells and cached conjugates names the first failing pair."""
    order, count = family_shape(kind, n)
    if len(squares) != count:
        raise PlanError(
            f"need a complete LSESC set of order {order} ({count} squares), "
            f"got {len(squares)}"
        )
    for k, s in enumerate(squares, 1):
        if not isinstance(s, LatinSquare) or s.n != order:
            raise PlanError(f"family member {k} is not a Latin square of order {order}")
    pair = first_non_lsesc_pair(squares)
    if pair is not None:
        raise PlanError(f"squares {pair[0]} and {pair[1]} are not LSESC")


def _assemble(
    kind: str,
    src: ButsonMatrix,
    removed: Sequence[int],
    rows: Sequence[Sequence[int]],
    squares: Sequence[LatinSquare],
) -> ButsonMatrix:
    """The block layout [B0; B] that phi and psi share, verified.

    With size = len(squares) + 1, B0 is the x-source src less its 1-based
    removed rows, every entry repeated size times.  rows holds c =
    len(rows) // size stacked copies of size rows each.  B has size block
    rows of c * size rows: row c' * size + i of block row k leads with
    rows[c' * size + k], and column block j >= 1 continues with
    rows[c' * size + X(i)], X being slice j - 1 of square k - 1 (the
    identity when k = 0).  Position p of column block j is shifted by
    x[j * c + p // size], x being the first removed row, modulo m.
    """
    m, size = src.m, len(squares) + 1
    copies = len(rows) // size
    x = src.exponents[removed[0] - 1]
    out = [
        tuple(v for v in row for _ in range(size))
        for i, row in enumerate(src.exponents, 1)
        if i not in removed
    ]
    scaled = []
    for j in range(size + 1):
        shift = [x[j * copies + p // size] for p in range(copies * size)]
        scaled.append([tuple((v + s) % m for v, s in zip(row, shift)) for row in rows])
    identity = (range(size),) * size
    for k, images in enumerate(chain([identity], (s.slices for s in squares))):
        for base in range(0, copies * size, size):
            for i in range(size):
                parts = [scaled[0][base + k]]
                parts.extend(scaled[j][base + image[i]] for j, image in enumerate(images, 1))
                out.append(tuple(chain.from_iterable(parts)))
    result = ButsonMatrix(m, len(out), tuple(out))
    _require_verified(result, f"{kind} output")
    return result


def phi(plan: PhiPlan) -> ButsonMatrix:
    """Assemble the order n(n-1) matrix [B0; B] from an order-n input.

    The removed row is the deleted row of the x-source, and it scales the
    n column blocks; rows is one copy of H's core, so block row k leads
    with core row k+1 and runs the core through the k-th square's slices
    (block row 0 through identity slices).
    """
    src = _x_source(plan.h, plan.g)
    _checked_family(plan.tensors, "phi", src.n)
    if type(plan.deleted_row) is not int:
        raise PlanError(f"deleted row {plan.deleted_row!r} is not an int")
    if not 1 <= plan.deleted_row <= src.n:
        raise PlanError(f"deleted row {plan.deleted_row} out of range 1..{src.n}")
    return _assemble("phi", src, (plan.deleted_row,), core(plan.h), plan.tensors)


def check_t_properties(ext: TExtraction, m: int) -> None:
    """Exact check of the four properties of T = [C; D] that psi needs:
    rows within C (and within D) dot to -2, C rows dot to 0 with D rows, C
    rows have half sums (-1, -1) and D rows (-1, +1).

    With h = m/2 and s = split, these hold exactly when the rows
    (0, 0, 0^2s), (0, h, 0^s, h^s), (0, 0) + each C row and (0, h) + each
    D row are pairwise orthogonal, so verify's kernel decides them.  A row
    with half sums L, R dots with the two border rows to 1 +- 1 + L + R and
    1 -+ 1 + L - R (upper signs for C); two rows of T dot to
    1 +- 1 + <t_r, t_r'> (+ within a block); the border rows to 1 - 1 + s - s.
    """
    if m % 2:
        raise ValueError(f"the T check needs an even root order, got m={m}")
    h, s = m // 2, ext.split
    rows = [(0,) * (2 + 2 * s), (0, h) + (0,) * s + (h,) * s]
    rows += [(0, 0) + r for r in ext.c_rows] + [(0, h) + r for r in ext.d_rows]
    pair = _first_non_orthogonal(rows, m)
    if pair is not None:
        (bi, ri), (bj, rj) = (divmod(k - 3, s) for k in pair)
        if pair[0] <= 2:
            raise PlanError(f"row {rj + 1} of {'CD'[bj]} lacks its half sums")
        if bi == bj:
            raise PlanError(f"rows {ri + 1},{rj + 1} of {'CD'[bi]} do not dot to -2")
        raise PlanError(f"row {ri + 1} of C vs row {rj + 1} of D is not orthogonal")


def _chosen(
    choice: tuple[int, int] | None, found: Sequence[tuple[int, int]], missing: str, wrong: str
) -> tuple[int, int]:
    """psi's C2 cell or C1 pair: choice, or the first of found when choice
    is None.  PlanError missing when nothing is found, and wrong, formatted
    with choice, when choice is not one of found or its entries are not all
    ints."""
    if choice is None:
        if not found:
            raise PlanError(missing)
        return found[0]
    if choice not in found or set(map(type, choice)) != {int}:
        raise PlanError(wrong.format(choice))
    return choice


def psi(plan: PsiPlan) -> ButsonMatrix:
    """Assemble the order n(n/2-1) matrix [B0; B] from an order-n input.

    The removed rows are the C1 pair of the x-source, and the first of
    them scales the column blocks: the left half of each (under T1) by one
    entry, the right half by the next.  rows is T = [C; D], two copies of
    n/2-1 rows, so block row k leads with C's row k+1 over D's row k+1 and
    runs C and D each through the k-th square's slices.
    """
    return psi_with_plan(plan)[0]


def psi_with_plan(plan: PsiPlan) -> tuple[ButsonMatrix, PsiPlan]:
    """psi's output and the plan it used, its defaults filled in: the
    first C2 cell of H and the first C1 pair of the x-source, from one
    scan of each."""
    src = _x_source(plan.h, plan.g)
    _checked_family(plan.tensors, "psi", src.n)
    if src.m % 2:
        raise PlanError(f"psi needs an even root order, got m={src.m}")
    cell = _chosen(
        plan.c2_cell, find_c2_cells(plan.h),
        "input has no C2 cell (no +-1 row and column meeting at -1)",
        "cell {} is not a C2 witness of the input",
    )
    pair = _chosen(
        plan.c1_pair, find_c1_pairs(src),
        "x-source has no C1 row pair", "pair {} is not a C1 pair of the x-source",
    )
    ext = _extract_t(plan.h, cell)
    check_t_properties(ext, src.m)
    used = replace(plan, c1_pair=pair, c2_cell=cell)
    return _assemble("psi", src, pair, ext.t, plan.tensors), used


def halving_family(r: int) -> ButsonMatrix:
    """The family BH(2(2^r+1), 2^(r+1)(2^r+1)): psi on the Fourier matrix of
    order 2(2^r+1) with the classical LSESC family over GF(2^r)."""
    if type(r) is not int or r < 1:
        raise ValueError(f"r must be a positive int, got {r!r}")
    if r > 64:
        # refused before 2**r is built: the output order 2^(2r+1) + 2^(r+1)
        # and its square have 2r + 2 and 4r + 3 bits
        raise PlanError(
            f"halving_family r = {r}: psi output of order <{2 * r + 2}-bit int> has "
            f"<{4 * r + 3}-bit int> cells; the output order cap is {OUTPUT_ORDER_CAP}"
        )
    n = 2 * (2**r + 1)
    order, _ = family_shape("psi", n)  # PlanError past the output order cap
    squares = classical_lsesc_set(order)  # its cap is checked before F_n is built
    return psi(PsiPlan(h=fourier(n), tensors=squares))


def count_phi_outputs(mols_count: int, bh_count: int, n: int) -> int:
    """Number of phi outputs: |MOLS(n-1)| * |BH(m,n)|^2 * n; cardinalities are
    caller-supplied, nothing is enumerated here."""
    _check_counts(mols_count, bh_count, n)
    return mols_count * bh_count * bh_count * n


def count_psi_outputs(
    mols_count: int, a2_count: int, dh_values: Iterable[int]
) -> int:
    """Number of psi outputs: sum over x-sources of |MOLS(n/2-1)| * |A2| * d_H,
    where each d_H is that source's count of unordered C1 pairs."""
    dh = tuple(dh_values)
    _check_counts(mols_count, a2_count, *dh)
    return mols_count * a2_count * sum(dh)


def _check_counts(*counts: int) -> None:
    for c in counts:
        if type(c) is not int:
            raise ValueError(f"count {c!r} is not an int")
    if any(c < 0 for c in counts):
        raise ValueError("counts must be non-negative")
