"""The big-integer verifier against the pair-by-pair cyclotomic oracle.

verify decides from rows packed into big integers and tested modulo
Phi_m(2^W); verify_oracle tests every row and column pair with the
polynomial zero test.  Their reports must agree field by field.
"""

from unittest import mock

import pytest
from hypothesis import given, strategies as st

from bhmat import butson
from bhmat.butson import ButsonMatrix, fourier, verify
from bhmat.latin import classical_tensor_set
from bhmat.scarpis import PhiPlan, halving_family, phi

from oracles import ExponentCountVector, cyclotomic_poly, sum_equals, verify_oracle

# 1, 2, primes, prime powers and 30, then anything up to 40
ROOT_ORDERS = st.one_of(
    st.sampled_from([1, 2, 3, 5, 7, 31, 37, 4, 8, 9, 16, 25, 27, 32, 30]),
    st.integers(1, 40),
)


def _slot_bytes(m, n):
    """Bytes per packed row in butson._first_non_orthogonal."""
    return butson._layout(m, n)[2]


def _tile_rows(m, n):
    return max(1, butson._TILE_BYTES // (n * _slot_bytes(m, n)))


def _with_entry(b, i, j, e):
    rows = [list(row) for row in b.exponents]
    rows[i][j] = e
    return ButsonMatrix(b.m, b.n, tuple(tuple(row) for row in rows))


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
    @given(st.one_of(near_butson(), random_matrix()), st.sampled_from([1, 64, 1 << 19]))
    def test_random_small(self, b, tile_bytes):
        # tile_bytes 1 puts every row in its own tile
        with mock.patch.object(butson, "_TILE_BYTES", tile_bytes):
            assert verify(b) == verify_oracle(b)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_fourier(self, n):
        assert verify(fourier(n)) == verify_oracle(fourier(n))


@pytest.fixture(scope="module")
def constructions():
    return {
        "fourier": fourier(13),
        "phi": phi(PhiPlan(h=fourier(5), tensors=tuple(classical_tensor_set(4)))),
        "psi": halving_family(2),
    }


def _corruption_cells(n, tile):
    """Row 1, the last row, column 1, and both sides of the first tile boundary."""
    return [
        (0, n // 2),
        (n - 1, 1),
        (n // 3, 0),
        (tile - 1, tile),
        (tile, tile - 1),
        (tile - 1, n - 1),
        (tile, 0),
    ]


class TestCorruptions:
    @pytest.mark.parametrize("kind", ["fourier", "phi", "psi"])
    @pytest.mark.parametrize("tile", [3, 7])
    def test_small_tiles(self, constructions, kind, tile):
        b = constructions[kind]
        tile_bytes = tile * b.n * _slot_bytes(b.m, b.n)
        with mock.patch.object(butson, "_TILE_BYTES", tile_bytes):
            assert _tile_rows(b.m, b.n) == tile
            assert verify(b).ok
            for i, j in _corruption_cells(b.n, tile):
                for shift in (1, b.m // 2):
                    bad = _with_entry(b, i, j, (b.exponents[i][j] + shift) % b.m)
                    report = verify(bad)
                    assert not report.ok
                    assert report == verify_oracle(bad), (kind, i, j, shift)

    def test_default_tiles(self):
        b = phi(PhiPlan(h=fourier(17), tensors=tuple(classical_tensor_set(16))))
        tile = _tile_rows(b.m, b.n)
        assert 1 < tile < b.n - 1
        for i, j in _corruption_cells(b.n, tile):
            bad = _with_entry(b, i, j, (b.exponents[i][j] + 1) % b.m)
            assert verify(bad) == verify_oracle(bad), (i, j)


def _sylvester(k):
    """The Sylvester Hadamard matrix of order 2^k, as a BH(2, 2^k)."""
    n = 1 << k
    return ButsonMatrix(2, n, tuple(tuple(bin(i & j).count("1") % 2 for j in range(n)) for i in range(n)))


def _with_row(b, src, dst, phase):
    """Row dst replaced by row src times zeta^phase: still orthogonal to
    every other row but src, so with src > 0 the row-1 pass passes it on
    to the packed pass, which must report (src + 1, dst + 1)."""
    rows = list(b.exponents)
    rows[dst] = tuple((v + phase) % b.m for v in rows[src])
    return ButsonMatrix(b.m, b.n, tuple(rows))


def _row_moves(n, tile):
    """(src, dst) with dst on both sides of the first two tile boundaries,
    and src on both sides of the first."""
    return [
        (1, tile - 1),
        (1, tile),
        (1, min(2 * tile - 1, n - 1)),
        (1, min(2 * tile, n - 1)),
        (tile - 1, tile),
        (tile, min(tile + 1, n - 1)),
        (n - 2, n - 1),
    ]


class TestCyclicLayout:
    """Odd m and powers of two pack each row as a cyclic difference
    histogram of m W-bit digits; BH(17,272) and the Sylvester matrix of
    order 64 take that layout, and must give verify_oracle's report on
    corruptions on both sides of tile boundaries."""

    def test_tile_sizes(self):
        assert butson._layout(17, 272)[2:] == (20, True)
        assert butson._residue_layout(17, 272)[0] == 38
        assert _tile_rows(17, 272) == 96
        assert butson._layout(2, 64)[2:] == (2, True)
        assert butson._residue_layout(2, 64)[0] == 3

    def test_bh_17_272_default_tiles(self):
        b = phi(PhiPlan(h=fourier(17), tensors=tuple(classical_tensor_set(16))))
        assert _tile_rows(b.m, b.n) == 96
        # dst on both sides of the boundaries at rows 96 and 192 (0-based);
        # src = 95 would make the oracle test 26000 pairs, so sources at a
        # boundary are left to the small tiles below
        for src, dst in [(1, 95), (1, 96), (1, 191), (1, 192), (149, 199), (2, b.n - 1)]:
            bad = _with_row(b, src, dst, 5)
            report = verify(bad)
            assert report.bad_row_pair == (src + 1, dst + 1)
            assert report == verify_oracle(bad), (src, dst)
        # row 200 a copy of row 150 passes the row-1 scan and is met in
        # the third tile
        seen = []
        bad = _with_row(b, 149, 199, 0)
        assert butson._first_non_orthogonal(_Tiles(bad.exponents, seen), b.m) == (150, 200)
        assert seen == [(0, 96), (96, 192), (192, 272)]

    @pytest.mark.parametrize("tile", [3, 7])
    def test_sylvester_small_tiles(self, tile):
        b = _sylvester(6)
        with mock.patch.object(butson, "_TILE_BYTES", tile * b.n * _slot_bytes(b.m, b.n)):
            assert _tile_rows(b.m, b.n) == tile
            assert verify(b).ok
            for src, dst in _row_moves(b.n, tile):
                for phase in (0, 1):
                    bad = _with_row(b, src, dst, phase)
                    report = verify(bad)
                    assert report.bad_row_pair == (src + 1, dst + 1)
                    assert report == verify_oracle(bad), (src, dst, phase)
            for i, j in _corruption_cells(b.n, tile):
                bad = _with_entry(b, i, j, 1 - b.exponents[i][j])
                assert verify(bad) == verify_oracle(bad), (i, j)

    @pytest.mark.parametrize("kind", ["fourier", "phi", "psi"])
    @pytest.mark.parametrize("tile", [3, 7])
    def test_rows_moved_across_small_tiles(self, constructions, kind, tile):
        # fourier(13) and phi's BH(5,20) pack digits, psi's BH(10,40) residues
        b = constructions[kind]
        assert butson._layout(b.m, b.n)[3] == (kind != "psi")
        with mock.patch.object(butson, "_TILE_BYTES", tile * b.n * _slot_bytes(b.m, b.n)):
            for src, dst in _row_moves(b.n, tile):
                bad = _with_row(b, src, dst, 1)
                assert verify(bad) == verify_oracle(bad), (src, dst)


class _Tiles(tuple):
    """Rows that record the tiles [j0, j1) the kernel packs from them."""

    def __new__(cls, rows, seen):
        self = super().__new__(cls, rows)
        self.seen = seen
        return self

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.seen.append((key.start, key.stop))
        return super().__getitem__(key)


class TestRowOnePass:
    """Row 1 is scanned pair by pair and packs no tile; rows 2..n-1 then
    go through the packed pass, which packs each tile at most once, in
    order of j."""

    def _tiles(self, rows, m):
        seen = []
        return butson._first_non_orthogonal(_Tiles(rows, seen), m), seen

    def test_broken_row_1_packs_no_tile(self, monkeypatch):
        monkeypatch.setattr(butson, "_TILE_BYTES", 18 * 144 * _slot_bytes(18, 144))
        for b in (halving_family(2), halving_family(3)):  # one tile, then 8
            bad = _with_entry(b, 0, 0, (b.exponents[0][0] + 1) % b.m)
            assert self._tiles(bad.exponents, b.m) == ((1, 2), [])
            assert self._tiles(tuple(zip(*bad.exponents)), b.m) == ((1, 2), [])

    def test_tile_sizes(self, monkeypatch):
        b = halving_family(3)
        tile = 18
        monkeypatch.setattr(butson, "_TILE_BYTES", tile * b.n * _slot_bytes(b.m, b.n))
        tiles = [(j, min(j + tile, b.n)) for j in range(0, b.n, tile)]
        assert self._tiles(b.exponents, b.m) == (None, tiles)
        # a broken column 20 is found by the scan of column 1
        bad = _with_entry(b, 5, 19, (b.exponents[5][19] + 1) % b.m)
        assert self._tiles(tuple(zip(*bad.exponents)), b.m) == ((1, 20), [])

    def test_one_tile_is_not_split(self):
        b = halving_family(2)
        assert _tile_rows(b.m, b.n) >= b.n
        assert self._tiles(b.exponents, b.m) == (None, [(0, b.n)])

    def test_failure_after_row_1_stops_in_its_tile(self, monkeypatch):
        b = halving_family(3)
        tile = 18
        monkeypatch.setattr(butson, "_TILE_BYTES", tile * b.n * _slot_bytes(b.m, b.n))
        tiles = [(j, min(j + tile, b.n)) for j in range(0, b.n, tile)]
        # row 40 copied from row 2 stays orthogonal to row 1
        rows = list(b.exponents)
        rows[39] = rows[1]
        assert self._tiles(rows, b.m) == ((2, 40), tiles[:3])
        # from row 5, the later tiles still test rows 2..4
        rows = list(b.exponents)
        rows[39] = rows[4]
        assert self._tiles(rows, b.m) == ((5, 40), tiles)

    @pytest.mark.parametrize("tile", [1, 3, 7, None])
    def test_every_cell_of_first_and_last_row(self, constructions, tile):
        # and of column 1, so each input of the column-1 scan is corrupted once
        b = constructions["phi"]
        cells = [(i, j) for i in (0, b.n - 1) for j in range(b.n)]
        cells += [(i, 0) for i in range(1, b.n - 1)]
        tile_bytes = butson._TILE_BYTES if tile is None else tile * b.n * _slot_bytes(b.m, b.n)
        with mock.patch.object(butson, "_TILE_BYTES", tile_bytes):
            for i, j in cells:
                bad = _with_entry(b, i, j, (b.exponents[i][j] + 1) % b.m)
                assert verify(bad) == verify_oracle(bad), (i, j)


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
        report = verify(_with_entry(fourier(12), 5, 7, 0))
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
        # m = 30 packs residues, and 21 of its 30 combine steps are
        # multiplications here
        assert not butson._layout(30, 30)[3]
        assert butson._residue_layout(30, 30)[1] == 9
        phases = [7 * k for k in range(30)]
        assert _kernel_agrees(30, exponents, phases)
        assert _kernel_agrees(30, [1] + exponents[1:], phases)
        assert _packed_agrees(30, exponents, phases)
        assert _packed_agrees(30, [1] + exponents[1:], phases)


def _is_prime(m):
    return m > 1 and all(m % d for d in range(2, int(m**0.5) + 1))


class TestLayoutChoice:
    """The kernel packs a row as m digits of W bits (the cyclic layout)
    when that slot is narrower than the residue slot; a tie keeps the
    residue layout."""

    @pytest.mark.parametrize("n", [30, 31, 62, 63, 272, 544, 2112])
    def test_narrower_slot_wins(self, n):
        ties = 0
        for m in range(2, 300):
            width, modulus, slot, cyclic = butson._layout(m, n)
            assert (width, modulus) == butson._embedding(m, n)
            residue = butson._residue_layout(m, n)[0]
            digits = (m * width + 7) // 8  # m digits of W bits, in whole bytes
            assert n < 1 << width  # a digit counts at most n columns
            assert slot == min(residue, digits), m
            assert cyclic == (digits < residue), m
            ties += digits == residue
        # n = 30 has ties (m = 2, 6, 14, ...), and each keeps residues
        assert ties or n != 30

    def test_named_orders(self):
        # (m, n): residue bytes, cyclic bytes
        slots = {
            (5, 20): (6, 4), (9, 72): (12, 8), (17, 272): (38, 20), (2, 64): (3, 2),
            (2, 30): (2, 2), (6, 12): (3, 3), (10, 40): (7, 8), (18, 144): (13, 18),
            (34, 544): (42, 43), (66, 2112): (62, 99),
        }
        for (m, n), (residue, digits) in slots.items():
            width, _, slot, cyclic = butson._layout(m, n)
            assert butson._residue_layout(m, n)[0] == residue
            assert (m * width + 7) // 8 == digits
            assert (slot, cyclic) == (min(residue, digits), digits < residue), (m, n)


class TestResidueSlots:
    """Slot j of a packed row holds at most n (M - 1)^2, M = Phi_m(2^W); the
    combine step e is a shift while w^e < M, else a multiplication."""

    @pytest.mark.parametrize("n", [30, 31, 62, 63, 544, 2112])
    def test_bound_fits_a_slot_no_wider_than_2mw(self, n):
        for m in range(2, 300):
            width, modulus = butson._embedding(m, n)
            slot, shifts = butson._residue_layout(m, n)
            bits = (n * (modulus - 1) ** 2).bit_length()
            assert bits <= 8 * slot < bits + 8, m
            assert bits <= 2 * m * width, m
            # steps e < shifts are the ones with w^e < M
            assert 1 << width * (shifts - 1) < modulus, m
            assert shifts == m or 1 << width * shifts > modulus, m

    @pytest.mark.parametrize("n", [30, 31, 62, 63, 544, 2112])
    def test_prime_m_combines_by_shifts_only(self, n):
        for m in filter(_is_prime, range(2, 300)):
            assert butson._residue_layout(m, n)[1] == m, m

    @pytest.mark.parametrize("n", [30, 31, 62, 63, 544, 2112])
    def test_composite_m_multiplies(self, n):
        for m in range(4, 300):
            if not _is_prime(m):
                assert butson._residue_layout(m, n)[1] < m, m
