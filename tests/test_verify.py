"""The big-integer verifier against the pair-by-pair cyclotomic oracle.

verify decides from rows packed into big integers and tested modulo
Phi_m(2^W); verify_oracle tests every row and column pair with the
polynomial zero test.  Their reports must agree field by field.

Beside hypothesis's, the differential tests draw from one table, SWEEPS:
for each test, its cases (a matrix of MATRICES and a tile) under the
test's ids, its trim rules (see PackedTiles) and its edits (entry shifts
and row replacements, from edits).  run checks each draw (matrix, tile,
trim rule, edit) the same way: the edited matrix fails, with the report
of the kernel that never trims, at the replaced pair for a row
replacement, and with verify_oracle's report where the oracle's cost is
within the sweep's budget.
"""

import math
from functools import cache
from typing import Callable, NamedTuple
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from bhmat import butson, errors
from bhmat.butson import ButsonMatrix, VerifyReport, fourier, verify
from bhmat.latin import classical_lsesc_set
from bhmat.scarpis import PhiPlan, halving_family, phi

from golden import sylvester
from oracles import ExponentCountVector, cyclotomic_poly, sum_equals, verify_oracle
from tiles import FLOOR, NEVER, NO_BYTE_FLOOR, PackedTiles

# 1, 2, primes, prime powers and 30, then anything up to 40
ROOT_ORDERS = st.one_of(
    st.sampled_from([1, 2, 3, 5, 7, 31, 37, 4, 8, 9, 16, 25, 27, 32, 30]),
    st.integers(1, 40),
)


def _slot_bytes(m, n):
    """Bytes per slot of butson._first_packed_failure: one row's share of
    each packed int of a tile."""
    return butson._layout(m, n)[2]


def _kronecker(a, b):
    """The Kronecker product of two BH(m, .)."""
    rows = tuple(
        tuple((x + y) % a.m for x in row_a for y in row_b)
        for row_a in a.exponents
        for row_b in b.exponents
    )
    return ButsonMatrix(a.m, a.n * b.n, rows)


# The matrices of the draws, each built once by matrix(): BH(m, n) all but
# J12, the 12 x 12 matrix of ones at m = 1.
MATRICES = {
    "F13": lambda: fourier(13),
    "F17": lambda: fourier(17),
    "F34": lambda: fourier(34),
    "F66": lambda: fourier(66),
    "F4^3": lambda: _kronecker(fourier(4), _kronecker(fourier(4), fourier(4))),
    "F6^2": lambda: _kronecker(fourier(6), fourier(6)),
    "H8": lambda: sylvester(3),
    "H64": lambda: sylvester(6),
    "BH(5,20)": lambda: phi(PhiPlan(h=fourier(5), tensors=classical_lsesc_set(4))),
    "BH(9,72)": lambda: phi(PhiPlan(h=fourier(9), tensors=classical_lsesc_set(8))),
    "BH(17,272)": lambda: phi(PhiPlan(h=fourier(17), tensors=classical_lsesc_set(16))),
    "BH(10,40)": lambda: halving_family(2),
    "BH(18,144)": lambda: halving_family(3),
    "BH(34,544)": lambda: halving_family(4),
    "J12": lambda: ButsonMatrix(1, 12, ((0,) * 12,) * 12),
}


@cache
def matrix(name):
    return MATRICES[name]()


class Edit(NamedTuple):
    """Entry (i, j) times zeta^k or, if row, row j replaced by row i times
    zeta^k, which leaves row j orthogonal to every row but i (0-based)."""

    i: int
    j: int
    k: int
    row: bool = False

    def apply(self, b):
        rows = [list(row) for row in b.exponents]
        if self.row:
            rows[self.j] = [v + self.k for v in rows[self.i]]
        else:
            rows[self.i][self.j] += self.k
        return ButsonMatrix(b.m, b.n, tuple(tuple(v % b.m for v in row) for row in rows))


def edits(b, unit, where, by):
    """The edits of b, cut into tiles of unit rows, at where, each by every
    k in by.  Entry shifts at "cells": row 1, the last row, column 1 and
    both sides of the first tile boundary; at "rims": every cell of row 1,
    the last row and column 1.  Row replacements (src, dst) at "rows": dst
    on both sides of the first two tile boundaries, src on both sides of
    the first; at "trims": those, and for src at the start, middle and end
    of the first, second and last tiles, dst = src + 1 (the first slot left
    after a trim at row src) and the last slot of src's tile; or at a list
    of (src, dst)."""
    n, t = b.n, unit
    if where == "cells":
        cells = [(0, n // 2), (n - 1, 1), (n // 3, 0), (t - 1, t), (t, t - 1), (t - 1, n - 1), (t, 0)]
    if where == "rims":
        cells = [(i, j) for i in (0, n - 1) for j in range(n)] + [(i, 0) for i in range(1, n - 1)]
    if where in ("cells", "rims"):
        return [Edit(i, j, k) for i, j in cells for k in by]
    moves = where
    if where in ("rows", "trims"):
        moves = [(1, t - 1), (1, t), (1, min(2 * t - 1, n - 1)), (1, min(2 * t, n - 1))]
        moves += [(t - 1, t), (t, min(t + 1, n - 1)), (n - 2, n - 1)]
    if where == "trims":
        for j0 in {0, t, (n - 1) // t * t}:
            end = min(j0 + t, n) - 1
            moves += [(s, d) for s in {j0 + 1, (j0 + end) // 2, end - 1} if 1 <= s < end for d in (s + 1, end)]
        moves = sorted({(src, dst) for src, dst in moves if 1 <= src < dst < n})
    return [Edit(src, dst, k, row=True) for src, dst in moves for k in by]


class Sweep(NamedTuple):
    """The draws of one test.  cases: (matrix, tile) by test id.  edits:
    the edits of a matrix in tiles of unit rows.  trims: each trim rule of
    PackedTiles, and the step at which it takes those edits.  oracle: the
    most row pairs, i * n for edited or source row i, of a draw that
    verify_oracle checks.  clean: the unedited matrix is checked too."""

    cases: dict
    edits: Callable = lambda b, unit: []
    trims: dict = {None: 1}
    oracle: float = math.inf
    clean: bool = True


# The cases that two sweeps share, and the matrices of two more, by the
# names in their test ids.
KINDS = [("fourier", "F13"), ("phi", "BH(5,20)"), ("psi", "BH(10,40)")]
SMALL = {f"{t}-{kind}": (name, t) for t in (3, 7) for kind, name in KINDS}
EVEN = [(4, "F4^3"), (6, "F6^2"), (34, "F34"), (66, "F66")]
TRIMMED = [(9, "BH(9,72)"), (17, "F17"), (10, "BH(10,40)"), (18, "BH(18,144)"), (34, "F34"), (2, "H64")]

# phi and halving_family verify what they build at the default tile and
# trim rule, so the sweeps of their large outputs there are not clean.
SWEEPS = {
    # psi's BH(10,40) is the one construction with rows past the floor
    "corruptions": Sweep(
        SMALL | {"floor-psi": ("BH(10,40)", FLOOR)}, lambda b, t: edits(b, t, "cells", (1, b.m // 2))
    ),
    "corruptions, default tile": Sweep({None: ("BH(17,272)", None)}, lambda b, t: edits(b, t, "cells", (1,))),
    # dst on both sides of the boundaries at rows 96 and 192 (0-based);
    # src = 95 would make the oracle test 26000 pairs, so sources at a
    # boundary are left to the small tiles
    "rows of BH(17,272)": Sweep(
        {None: ("BH(17,272)", None)},
        lambda b, t: edits(b, t, [(1, 95), (1, 96), (1, 191), (1, 192), (149, 199), (2, 271)], (5,)),
        clean=False,
    ),
    "sylvester": Sweep(
        {str(t): ("H64", t) for t in (3, 7, FLOOR)},
        lambda b, t: edits(b, t, "rows", (0, 1)) + edits(b, t, "cells", (1,)),
    ),
    "cyclic rows": Sweep(SMALL, lambda b, t: edits(b, t, "rows", (1,))),
    "rims": Sweep({str(t): ("BH(5,20)", t) for t in (1, 3, 7, None)}, lambda b, t: edits(b, t, "rims", (1,))),
    "even orders": Sweep(
        {f"{t}-{m}": (name, t) for t in (3, 7, FLOOR) for m, name in EVEN},
        lambda b, t: edits(b, t, "rows", (b.m // 2 + 1,)),
    ),
    # sources past row 2 would make the oracle test thousands of pairs
    "rows of BH(34,544)": Sweep(
        {None: ("BH(34,544)", None)},
        lambda b, t: edits(b, t, [(1, 40), (1, 41), (1, 81), (1, 82)], (3,)),
        clean=False,
    ),
    "short last tile": Sweep({None: ("F34", 5)}, lambda b, t: edits(b, t, [(29, 33), (30, 33), (31, 33)], (0,))),
    "m = 2": Sweep({None: ("H8", None)}, lambda b, t: [Edit(5, 6, 1), Edit(2, 6, 1, True), Edit(1, 2, 0, True)]),
    # trims every row on every edit, the other rules on every third, each
    # where it is most likely to leave a trim just below a failure;
    # BH(18,144) in small tiles is slow, and the other orders cover them
    "forced trims": Sweep(
        {f"{m}-{t}": (name, t) for m, name in TRIMMED for t in (1, 3, 7, None) if m != 18 or t is None},
        lambda b, t: edits(b, t, "trims", (b.m // 2 + 1,)),
        {1: 1, 2: 3, 4: 3, NO_BYTE_FLOOR: 3},
        oracle=4000,
    ),
    "m = 1": Sweep({str(t): ("J12", t) for t in (1, 3, 7, None)}, trims={1: 1, 2: 1, 4: 1, NO_BYTE_FLOOR: 1}),
    # the first slot left after each trim of the default rule, and the last
    "trims of BH(18,144)": Sweep(
        {None: ("BH(18,144)", None)},
        lambda b, t: edits(b, t, [(s - 1, d) for s in range(24, 144, 24) for d in (s, 143)], (10,)),
        oracle=4000,
        clean=False,
    ),
    # the first slot after the first trim of each tile, its tile's last
    # slot, and both sides of the first boundary
    "trims of BH(17,272)": Sweep(
        {None: ("BH(17,272)", None)},
        lambda b, t: edits(
            b, t, [(94, 95), (95, 96), (12, 13), (12, 95), (108, 109), (108, 191), (204, 205), (204, 271)], (9,)
        ),
        oracle=4000,
        clean=False,
    ),
}


def run(sweep, case=None):
    """Every draw of one case of SWEEPS[sweep] (its only case by default);
    returns the PackedTiles of its last trim rule."""
    sweep = SWEEPS[sweep]
    ((name, tile),) = [case] if case else sweep.cases.values()
    b = matrix(name)
    seen = {}
    for trim, step in sweep.trims.items():
        with PackedTiles(butson, tile, trim) as packed:
            unit = butson.tile_units(b.n * _slot_bytes(b.m, b.n))
            assert tile is None or unit < b.n
            if sweep.clean:
                assert verify(b) == (VerifyReport(True) if b.m > 1 else verify_oracle(b)), trim
                # every pair fails at m = 1; the packed pass starts at row 2
                assert b.m > 1 or butson._first_packed_failure(b.exponents, 1) == (2, 3), trim
                assert packed.tiles
            for edit in sweep.edits(b, unit)[::step]:
                bad, reports = seen.setdefault(edit, (edit.apply(b), set()))
                reports.add(verify(bad))
    with PackedTiles(butson, tile, NEVER):
        for edit, (bad, reports) in seen.items():
            report = verify(bad)
            assert reports == {report} and not report.ok, edit
            assert not edit.row or report.bad_row_pair == (edit.i + 1, edit.j + 1), edit
            if edit.i * b.n <= sweep.oracle:
                assert report == verify_oracle(bad), edit
    return packed


def cases(sweep):
    """Parametrize a test by the cases of SWEEPS[sweep], under their test ids."""
    cases = SWEEPS[sweep].cases
    return pytest.mark.parametrize("case", list(cases.values()), ids=list(cases))


@st.composite
def near_butson(draw):
    """A BH(m, d) from a scaled F_d (d | m), moved by row and column
    phases and permutations, then possibly broken: rows copied over other
    rows (failures away from row 1) and entries changed."""
    m = draw(ROOT_ORDERS)
    d = draw(st.sampled_from([d for d in range(1, min(m, 9) + 1) if m % d == 0]))
    rows = [[(i * j * (m // d)) % m for j in range(d)] for i in range(d)]
    row_phase = draw(st.lists(st.integers(0, m - 1), min_size=d, max_size=d))
    col_phase = draw(st.lists(st.integers(0, m - 1), min_size=d, max_size=d))
    rows = [[(v + row_phase[i] + col_phase[j]) % m for j, v in enumerate(r)] for i, r in enumerate(rows)]
    rows = draw(st.permutations(rows))
    order = draw(st.permutations(range(d)))
    rows = [[r[j] for j in order] for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        src, dst = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        rows[dst] = list(rows[src])
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        rows[i][j] = draw(st.integers(0, m - 1))
    return ButsonMatrix(m, d, tuple(tuple(r) for r in rows))


@st.composite
def random_matrix(draw):
    m = draw(ROOT_ORDERS)
    n = draw(st.integers(1, 6))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, m - 1), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    return ButsonMatrix(m, n, tuple(tuple(r) for r in rows))


class TestAgainstOracle:
    @given(st.one_of(near_butson(), random_matrix()), st.sampled_from([1, 2, 3, None]))
    def test_random_small(self, b, tile):
        # tile 1 puts every row in its own tile
        with PackedTiles(butson, tile):
            assert verify(b) == verify_oracle(b)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_fourier(self, n):
        assert verify(fourier(n)) == verify_oracle(fourier(n))


class TestCorruptions:
    @cases("corruptions")
    def test_small_tiles(self, case):
        run("corruptions", case)

    def test_default_tiles(self):
        assert 1 < run("corruptions, default tile").unit < matrix("BH(17,272)").n - 1


class TestCyclicLayout:
    """Odd m packs each row as a cyclic difference histogram of m W-bit
    digits, and m = 2 as one negacyclic digit; BH(17,272) and the
    Sylvester matrix of order 64 must give verify_oracle's report on
    corruptions on both sides of tile boundaries."""

    def test_tile_sizes(self):
        assert butson._layout(17, 272)[2:5] == (20, 17, 0)
        assert butson.tile_units(272 * 20) == 96
        assert butson._layout(2, 64)[2:4] == (2, 1)

    def test_bh_17_272_default_tiles(self):
        run("rows of BH(17,272)")
        # row 200 a copy of row 150 passes the row-1 scan and is met in
        # the third tile
        bad = Edit(149, 199, 0, row=True).apply(matrix("BH(17,272)"))
        with PackedTiles(butson) as packed:
            assert butson._first_non_orthogonal(bad.exponents, bad.m) == (150, 200)
        assert packed.tiles == [(0, 96), (96, 192), (192, 272)]

    @cases("sylvester")
    def test_sylvester_small_tiles(self, case):
        run("sylvester", case)

    @cases("cyclic rows")
    def test_rows_moved_across_small_tiles(self, case):
        # fourier(13) and phi's BH(5,20) pack cyclic slots of m digits,
        # psi's BH(10,40) negacyclic slots of m/2
        name, tile = case
        b = matrix(name)
        assert butson._layout(b.m, b.n)[3] == (b.m // 2 if name == "BH(10,40)" else b.m)
        assert (0, tile) in run("cyclic rows", case).tiles


class TestRowOnePass:
    """Row 1 is scanned pair by pair and packs no tile; rows 2..n-1 then
    go through the packed pass, which packs each tile at most once, in
    order of j."""

    def _tiles(self, rows, m, tile=None):
        with PackedTiles(butson, tile) as packed:
            pair = butson._first_non_orthogonal(rows, m)
        return pair, packed.tiles

    def test_broken_row_1_packs_no_tile(self):
        # the packed pass is never reached, whatever its tile
        for b in (matrix("BH(10,40)"), matrix("BH(18,144)")):
            bad = Edit(0, 0, 1).apply(b)
            assert self._tiles(bad.exponents, b.m) == ((1, 2), [])
            assert self._tiles(tuple(zip(*bad.exponents)), b.m) == ((1, 2), [])

    def test_tile_sizes(self):
        b = matrix("BH(18,144)")
        tile = 18
        tiles = [(j, min(j + tile, b.n)) for j in range(0, b.n, tile)]
        assert self._tiles(b.exponents, b.m, tile) == (None, tiles)
        # a broken column 20 is found by the scan of column 1
        bad = Edit(5, 19, 1).apply(b)
        assert self._tiles(tuple(zip(*bad.exponents)), b.m, tile) == ((1, 20), [])

    def test_one_tile_is_not_split(self):
        b = matrix("BH(10,40)")
        assert self._tiles(b.exponents, b.m) == (None, [(0, b.n)])

    def test_failure_after_row_1_stops_in_its_tile(self):
        b = matrix("BH(18,144)")
        tile = 18
        tiles = [(j, min(j + tile, b.n)) for j in range(0, b.n, tile)]
        # row 40 copied from row 2 stays orthogonal to row 1
        rows = list(b.exponents)
        rows[39] = rows[1]
        assert self._tiles(rows, b.m, tile) == ((2, 40), tiles[:3])
        # from row 5, the later tiles still test rows 2..4
        rows = list(b.exponents)
        rows[39] = rows[4]
        assert self._tiles(rows, b.m, tile) == ((5, 40), tiles)

    @cases("rims")
    def test_every_cell_of_first_and_last_row(self, case):
        # and of column 1, so each input of the column-1 scan is corrupted once
        run("rims", case)


class TestRowsDecide:
    def test_columns_scanned_only_after_a_row_failure(self, monkeypatch):
        calls = []
        real = butson._first_non_orthogonal

        def counting(vectors, m):
            calls.append(len(vectors))
            return real(vectors, m)

        monkeypatch.setattr(butson, "_first_non_orthogonal", counting)
        assert verify(fourier(12)).ok
        assert calls == [12]
        report = verify(Edit(5, 7, 1).apply(fourier(12)))
        assert calls == [12, 12, 12]
        assert (report.bad_row_pair, report.bad_col_pair) == ((1, 6), (1, 8))


def _vanishing_exponents(draw, m, n):
    """n exponents in [1, 2m-1] made of whole orbits {s + k m/d}, d | m, d | n."""
    sizes = [d for d in range(2, m + 1) if m % d == 0 and n % d == 0]
    if not sizes:
        return None
    exponents, left = [], n
    while left:
        d = draw(st.sampled_from([d for d in sizes if left % d == 0]))
        start = draw(st.integers(0, m - 1))
        lifts = draw(st.lists(st.booleans(), min_size=d, max_size=d))
        for k, lift in enumerate(lifts):
            e = (start + k * (m // d)) % m
            exponents.append(e + m if lift or e == 0 else e)
        left -= d
    return exponents


@st.composite
def count_sums(draw, n):
    """(m, exponents): n exponents in [1, 2m-1], the range of a_k - b_k + m.

    A third of the draws are vanishing sums, a few are one exponent n times.
    """
    m = draw(ROOT_ORDERS)
    kind = draw(st.sampled_from(["random", "vanishing", "vanishing", "constant"]))
    if kind == "vanishing":
        exponents = _vanishing_exponents(draw, m, n)
        if exponents is not None:
            return m, exponents
    if kind == "constant":
        return m, [draw(st.integers(1, 2 * m - 1))] * n
    return m, draw(st.lists(st.integers(1, 2 * m - 1), min_size=n, max_size=n))


def _lemma_agrees(m, n, exponents):
    width, modulus = butson._embedding(m, n)
    value = sum(1 << width * e for e in exponents)
    counts = [0] * m
    for e in exponents:
        counts[e % m] += 1
    expected = sum_equals(ExponentCountVector(m, tuple(counts)), 0)
    return (value % modulus == 0) == expected


def _kernel_agrees(m, exponents, phases):
    """The same test through _first_non_orthogonal: rows a and b with
    a_k - b_k + m = exponents[k] mod m, then copies of b.  b is never
    orthogonal to itself, so the first failing pair is (1, 2) unless c
    vanishes, and (2, 3) if it does."""
    b = [p % m for p in phases]
    a = [(e + v) % m for e, v in zip(exponents, b)]
    rows = [a] + [b] * (len(exponents) - 1)
    counts = [0] * m
    for e in exponents:
        counts[e % m] += 1
    vanishes = sum_equals(ExponentCountVector(m, tuple(counts)), 0)
    return butson._first_non_orthogonal(rows, m) == ((2, 3) if vanishes else (1, 2))


def _packed_agrees(m, exponents, phases):
    """The same test through the packed pass alone: rows b, a, then copies
    of b, so pair (2, 3) is a, b.  The packed pass skips row 1, so the
    first failing pair is (2, 3) unless c vanishes, and (3, 4) if it does."""
    b = [p % m for p in phases]
    a = [(e + v) % m for e, v in zip(exponents, b)]
    rows = [b, a] + [b] * (len(exponents) - 2)
    counts = [0] * m
    for e in exponents:
        counts[e % m] += 1
    vanishes = sum_equals(ExponentCountVector(m, tuple(counts)), 0)
    return butson._first_packed_failure(rows, m) == ((3, 4) if vanishes else (2, 3))


class TestEmbeddingLemma:
    """Phi_m(2^W) | c(2^W) iff c(zeta) = 0, at the smallest W the verifier
    uses: n + 2 = 2^W for n = 30, 62; n + 1 is a power of two for 31, 63."""

    @pytest.mark.parametrize("n", [30, 62])
    def test_width_is_tight(self, n):
        for m in (1, 2, 30, 37):
            width, _ = butson._embedding(m, n)
            assert 1 << width == n + 2

    @pytest.mark.parametrize("n", [1, 5, 30, 62, 544, 2112])
    def test_modulus_is_the_polynomial_reference(self, n):
        for m in range(1, 300):
            width, modulus = butson._embedding(m, n)
            value = 0
            for c in reversed(cyclotomic_poly(m).coefficients):
                value = (value << width) + c
            assert modulus == value, m

    @pytest.mark.parametrize("n", [30, 62, 31, 63])
    @given(data=st.data())
    def test_agrees_with_sum_equals(self, n, data):
        m, exponents = data.draw(count_sums(n))
        phases = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        assert _lemma_agrees(m, n, exponents)
        assert _kernel_agrees(m, exponents, phases)
        assert _packed_agrees(m, exponents, phases)

    def test_vanishing_orbits_are_zero(self):
        # m = 30: orbits of 2, 3 and 5 roots, 30 terms in all
        exponents = [1, 16] * 5 + [2, 12, 22] * 5 + [3, 9, 15, 21, 27]
        assert len(exponents) == 30
        width, modulus = butson._embedding(30, 30)
        assert sum(1 << width * e for e in exponents) % modulus == 0
        assert _lemma_agrees(30, 30, exponents)
        # m = 30 packs negacyclic slots of 15 digits, with a bias
        assert butson._layout(30, 30)[3] == 15
        assert butson._layout(30, 30)[4] % ((1 << 5 * 15) + 1) == 0
        phases = [7 * k for k in range(30)]
        assert _kernel_agrees(30, exponents, phases)
        assert _kernel_agrees(30, [1] + exponents[1:], phases)
        assert _packed_agrees(30, exponents, phases)
        assert _packed_agrees(30, [1] + exponents[1:], phases)


def _old_slots(m, n):
    """The slot bytes of the two layouts the rotation layout replaced:
    residues mod M = Phi_m(2^W), which held n (M - 1)^2, and cyclic
    histograms of m digits at every m."""
    width, modulus = butson._embedding(m, n)
    return ((n * (modulus - 1) ** 2).bit_length() + 7) // 8, (m * width + 7) // 8


# Orders where the rotation slot is wider than the narrower slot before it.
# _WIDER: 2 phi(m) well under the digits of a slot (m at odd m, m/2 at even
# m), at most 11% wider.  _ONE_BYTE_WIDER: m = 2, whose slot holds about
# 2nF against two digits w^2, and odd m at n = 144, where m digits of W = 8
# bits filled whole bytes and the whole-row test needs a bit more.
_WIDER = {105, 165, 195, 210}
_ONE_BYTE_WIDER = {(2, 144), (2, 2112), (231, 144), (255, 144), (273, 144), (285, 144)}


class TestLayoutChoice:
    """The kernel packs a row mod F: cyclic slots of m W-bit digits at odd
    m, F = w^m - 1 and no bias, and negacyclic slots at even m, F =
    w^(m/2) + 1 and a bias that is a multiple of F.  The slot is as narrow
    as the narrower of the two layouts it replaced, but for _WIDER and
    _ONE_BYTE_WIDER."""

    @pytest.mark.parametrize("n", [30, 31, 62, 63, 144, 272, 544, 2112])
    def test_narrower_slot_wins(self, n):
        for m in range(2, 300):
            width, modulus, slot, digits, bias, _ = butson._layout(m, n)
            assert (width, modulus) == butson._embedding(m, n)
            assert n < 1 << width  # a cyclic digit counts at most n columns
            if m % 2:
                assert (digits, bias) == (m, 0), m
            else:
                span = (1 << width * digits) + 1
                assert digits == m // 2 and bias % span == 0 and bias >= n * span, m
            old = min(_old_slots(m, n))
            if m in _WIDER:
                assert old < slot <= 1.11 * old, m
            elif (m, n) in _ONE_BYTE_WIDER:
                assert slot == old + 1, m
            else:
                assert slot <= old, m

    def test_named_orders(self):
        # (m, n): rotation bytes, then residue and cyclic bytes before it
        slots = {
            (5, 20): (4, 6, 4), (9, 72): (8, 12, 8), (17, 272): (20, 38, 20),
            (2, 64): (2, 3, 2), (2, 30): (2, 2, 2), (6, 12): (3, 3, 3),
            (10, 40): (5, 7, 8), (16, 272): (11, 20, 18), (18, 144): (11, 13, 18),
            (34, 544): (23, 42, 43), (66, 2112): (52, 62, 99),
        }
        for (m, n), (slot, residue, digits) in slots.items():
            assert butson._layout(m, n)[2] == slot, (m, n)
            assert _old_slots(m, n) == (residue, digits), (m, n)


class TestResidueSlots:
    """A slot holds c(w) mod F up to a multiple of F.  Every value a slot
    takes stays below bound: n w^(m-1) + 1 at odd m, where the digits add
    up to n, and w^L + (2n + c)F at even m, with the bias (n + c)F and
    cF >= (bound - 1) >> W(L - 1), so that no rotation goes negative.  The
    slot holds bound - 1 and (Z - 1)M, Z = 2^z the least power of two above
    (bound - 1) // M."""

    @pytest.mark.parametrize("n", [30, 31, 62, 63, 544, 2112])
    def test_bound_fits_a_slot_no_wider_than_2mw(self, n):
        for m in range(2, 300):
            width, modulus, slot, digits, bias, quotient = butson._layout(m, n)
            if m % 2:
                bound = (n << width * (m - 1)) + 1
            else:
                span = (1 << width * digits) + 1
                c = bias // span - n
                bound = (1 << width * digits) + (2 * n + c) * span
                if digits == 1:
                    assert c == 0
                else:
                    # the least c that covers what a rotation subtracts
                    top = width * (digits - 1)
                    assert c * span >= (bound - 1) >> top, m
                    assert (c - 1) * span < (bound - span - 1) >> top, m
            assert (1 << quotient) > (bound - 1) // modulus >= (1 << quotient) >> 1, m
            bits = max(bound - 1, ((1 << quotient) - 1) * modulus).bit_length()
            assert bits <= 8 * slot < bits + 8, m
            # c(w) itself takes 2mW bits
            assert bits <= 2 * m * width, m


def _crafted_tail(m, n, values):
    """The slots of one packed row of _layout(m, n) holding values, and the
    mask of the bits at or above z in each."""
    _, _, slot, _, _, quotient = butson._layout(m, n)
    tail = sum(v << 8 * slot * j for j, v in enumerate(values))
    over = sum(((1 << 8 * slot) - (1 << quotient)) << 8 * slot * j for j in range(len(values)))
    return tail, over


class TestWholeRowTest:
    """_slots_divisible decides all slots of a row with one division by M:
    no remainder and every quotient slot below Z = 2^z."""

    ORDERS = [(1, 5), (2, 144), (3, 30), (6, 12), (17, 272), (18, 144), (34, 544)]

    @pytest.mark.parametrize("m, n", ORDERS)
    def test_a_wrap_that_divides_fails(self, m, n):
        # v_0 + v_1 2^(8S) = 0 mod M, with v_0 not a multiple of M
        _, modulus, slot, _, _, _ = butson._layout(m, n)
        tail, over = _crafted_tail(m, n, [modulus - (1 << 8 * slot) % modulus, 1])
        assert tail % modulus == 0
        assert not butson._slots_divisible(tail, modulus, over)

    @pytest.mark.parametrize("m, n", ORDERS)
    def test_multiples_pass_and_others_fail(self, m, n):
        _, modulus, _, _, _, quotient = butson._layout(m, n)
        top = (1 << quotient) - 1  # 0 at m = 1, where no slot but 0 divides
        one = min(1, top)
        for q in ([0, 0, 0], [top, top, top], [one, top, 0], [top, 0, one]):
            tail, over = _crafted_tail(m, n, [v * modulus for v in q])
            assert butson._slots_divisible(tail, modulus, over), q
            for j in range(3):
                bad = [v * modulus for v in q]
                bad[j] += 1 if q[j] < top else -1
                tail, over = _crafted_tail(m, n, bad)
                assert not butson._slots_divisible(tail, modulus, over), (q, j)


class TestEvenOrders:
    """Negacyclic slots at even m: a row replaced by a phase of another row
    passes the row-1 scan, so the packed pass must name the pair, on both
    sides of the first two tile boundaries, in verify_oracle's report
    (m = 2 in TestCyclicLayout::test_sylvester_small_tiles)."""

    @cases("even orders")
    def test_rows_moved_across_small_tiles(self, case):
        b = matrix(case[0])
        assert butson._layout(b.m, b.n)[3] == b.m // 2
        run("even orders", case)

    def test_bh_34_544_default_tiles(self):
        # halving_family(4), the r = 4 output, packs 41-row tiles
        assert butson.matrix_digest(matrix("BH(34,544)")) == (
            "sha256:8db6ec00d3dc09e7cb8d26740437dfe116f3e731b3071a1f1272450789e37834"
        )
        assert run("rows of BH(34,544)").unit == 41

    def test_short_last_tile(self):
        # 34 rows in tiles of 5: the last tile holds 4, and row 34 a copy
        # of row 30 is met there
        assert run("short last tile").tiles[-1] == (30, 34)


class TestSmallRootOrders:
    """m = 1 and m = 2, where a slot has one digit and no rotation."""

    def test_m1(self):
        assert verify(ButsonMatrix(1, 1, ((0,),))).ok
        b = ButsonMatrix(1, 4, ((0,) * 4,) * 4)
        assert verify(b) == verify_oracle(b) == butson.VerifyReport(False, (1, 2), (1, 2))
        # every pair fails at m = 1; the packed pass starts at row 2
        assert butson._first_packed_failure(b.exponents, 1) == (2, 3)

    def test_m2_accept(self):
        for b in (fourier(2), sylvester(2), matrix("H64")):
            assert verify(b).ok
            assert butson._first_packed_failure(b.exponents, 2) is None

    def test_m2_reject(self):
        run("m = 2")


def _trims(b):
    """The (dead, live) rows of every trim the default rule makes on b's rows."""
    seen, rule = [], butson._trim_pays

    def spy(dead, live, slot):
        if rule(dead, live, slot):
            seen.append((dead, live))
            return True
        return False

    with mock.patch.object(butson, "_trim_pays", spy):
        butson._first_packed_failure(b.exponents, b.m)
    return seen


class TestTrimmedTiles:
    """Row i of a tile tests only its slots j > i, and the kernel shifts the
    dead slots below them out of the tile's table and bias (_trim_pays).
    Under forced trims, at every tile size, a row replaced by a phase of
    another must give the pair, and the report of the kernel that never
    trims and of verify_oracle."""

    @cases("forced trims")
    def test_forced_trims(self, case):
        run("forced trims", case)

    @cases("m = 1")
    def test_m1(self, case):
        # under most rules row 2 sheds slots 1 and 2 before its first slot,
        # 3, is searched; a one-row tile is packed only once rows 2.. lie
        # before it
        tile = case[1]
        assert run("m = 1", case).tiles[0] == ((2, 3) if tile == 1 else (0, min(tile or 12, 12)))

    def test_default_rule_trims_bh_18_144(self):
        # one tile of 144 rows and 11-byte slots: a trim each 24 rows, 264
        # bytes, from row 24 on
        b = matrix("BH(18,144)")
        assert _slot_bytes(b.m, b.n) == 11
        with PackedTiles(butson) as packed:
            trims = _trims(b)
        assert packed.tiles == [(0, b.n)]
        assert trims == [(24, 120), (24, 96), (24, 72), (24, 48), (24, 24)]
        run("trims of BH(18,144)")

    def test_default_rule_never_trims_small_matrices(self):
        small = [fourier(6), fourier(10), halving_family(1), matrix("BH(10,40)"), matrix("BH(5,20)")]
        for b in small:
            assert _trims(b) == [], (b.m, b.n)

    def test_default_rule_across_tiles(self):
        # BH(17,272): tiles of 96, 96 and 80 rows, 20-byte slots; each tile
        # trims 13 rows (260 bytes) at a time along its diagonal
        b = matrix("BH(17,272)")
        assert _slot_bytes(b.m, b.n) == 20
        with PackedTiles(butson) as packed:
            trims = _trims(b)
        assert packed.tiles == [(0, 96), (96, 192), (192, 272)]
        assert trims == [(13, live) for top in (83, 83, 67) for live in range(top, 0, -13)]
        run("trims of BH(17,272)")


def test_tile_rule_at_the_caps_and_the_benchmark_sizes():
    """Rows per tile of the verifier and squares per tile of the family
    pass, from errors.tile_units, at the largest inputs each accepts and at
    the sizes the benchmark runs: the floor lifts the caps, and leaves the
    benchmark's tiles as the byte budget sets them."""
    floor = errors._TILE_FLOOR

    def rows(m, n):
        return butson.tile_units(n * _slot_bytes(m, n))

    def squares(q):
        return butson.tile_units(q * q * ((q + q.bit_length() + 7) // 8))

    assert rows(66, 2112) >= floor  # halving_family(5), 4 rows by the budget alone
    assert rows(34, 544) == 41  # halving_family(4)
    assert rows(17, 272) == 96  # phi(F_17)
    for m, n in [(18, 144), (10, 40), (9, 72), (5, 20), (3, 6)]:
        assert rows(m, n) >= n, (m, n)
    for q in (128, 256):  # one square each by the budget alone
        assert squares(q) >= min(floor, q - 1), q
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32):
        assert squares(q) >= q - 1, q
