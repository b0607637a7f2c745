"""The big-integer verifier against the pair-by-pair cyclotomic oracle.

verify decides from rows packed into big integers and tested modulo
Phi_m(2^W); verify_oracle tests every row and column pair with the
polynomial zero test.  Their reports must agree field by field.
"""

from unittest import mock

import pytest
from hypothesis import given, strategies as st

from bhmat import butson, errors
from bhmat.butson import ButsonMatrix, fourier, verify
from bhmat.latin import classical_lsesc_set
from bhmat.scarpis import PhiPlan, halving_family, phi

from oracles import ExponentCountVector, cyclotomic_poly, sum_equals, verify_oracle
from tiles import FLOOR, PackedTiles

# 1, 2, primes, prime powers and 30, then anything up to 40
ROOT_ORDERS = st.one_of(
    st.sampled_from([1, 2, 3, 5, 7, 31, 37, 4, 8, 9, 16, 25, 27, 32, 30]),
    st.integers(1, 40),
)


def _slot_bytes(m, n):
    """Bytes per packed row in butson._first_non_orthogonal."""
    return butson._layout(m, n)[2]


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
    @given(st.one_of(near_butson(), random_matrix()), st.sampled_from([1, 2, 3, None]))
    def test_random_small(self, b, tile):
        # tile 1 puts every row in its own tile
        with PackedTiles(butson, tile):
            assert verify(b) == verify_oracle(b)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_fourier(self, n):
        assert verify(fourier(n)) == verify_oracle(fourier(n))


@pytest.fixture(scope="module")
def constructions():
    return {
        "fourier": fourier(13),
        "phi": phi(PhiPlan(h=fourier(5), tensors=classical_lsesc_set(4))),
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
    # psi's BH(10,40) is the one construction with rows past the floor
    @pytest.mark.parametrize(
        "tile, kind",
        [(tile, kind) for tile in (3, 7) for kind in ("fourier", "phi", "psi")] + [(FLOOR, "psi")],
    )
    def test_small_tiles(self, constructions, kind, tile):
        b = constructions[kind]
        with PackedTiles(butson, tile) as packed:
            assert verify(b).ok
            assert packed.unit < b.n
            for i, j in _corruption_cells(b.n, packed.unit):
                for shift in (1, b.m // 2):
                    bad = _with_entry(b, i, j, (b.exponents[i][j] + shift) % b.m)
                    report = verify(bad)
                    assert not report.ok
                    assert report == verify_oracle(bad), (kind, i, j, shift)

    def test_default_tiles(self):
        b = phi(PhiPlan(h=fourier(17), tensors=classical_lsesc_set(16)))
        with PackedTiles(butson) as packed:
            assert verify(b).ok
        assert 1 < packed.unit < b.n - 1
        for i, j in _corruption_cells(b.n, packed.unit):
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
    """Odd m packs each row as a cyclic difference histogram of m W-bit
    digits, and m = 2 as one negacyclic digit; BH(17,272) and the
    Sylvester matrix of order 64 must give verify_oracle's report on
    corruptions on both sides of tile boundaries."""

    def test_tile_sizes(self):
        assert butson._layout(17, 272)[2:5] == (20, 17, 0)
        assert butson.tile_units(272 * 20) == 96
        assert butson._layout(2, 64)[2:4] == (2, 1)

    def test_bh_17_272_default_tiles(self):
        b = phi(PhiPlan(h=fourier(17), tensors=classical_lsesc_set(16)))
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
        bad = _with_row(b, 149, 199, 0)
        with PackedTiles(butson) as packed:
            assert butson._first_non_orthogonal(bad.exponents, b.m) == (150, 200)
        assert packed.tiles == [(0, 96), (96, 192), (192, 272)]

    @pytest.mark.parametrize("tile", [3, 7, FLOOR])
    def test_sylvester_small_tiles(self, tile):
        b = _sylvester(6)
        with PackedTiles(butson, tile) as packed:
            assert verify(b).ok
            assert packed.unit < b.n
            tile = packed.unit
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
        # fourier(13) and phi's BH(5,20) pack cyclic slots of m digits,
        # psi's BH(10,40) negacyclic slots of m/2
        b = constructions[kind]
        assert butson._layout(b.m, b.n)[3] == (b.m // 2 if kind == "psi" else b.m)
        with PackedTiles(butson, tile) as packed:
            for src, dst in _row_moves(b.n, tile):
                bad = _with_row(b, src, dst, 1)
                assert verify(bad) == verify_oracle(bad), (src, dst)
        assert (0, tile) in packed.tiles


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
        for b in (halving_family(2), halving_family(3)):
            bad = _with_entry(b, 0, 0, (b.exponents[0][0] + 1) % b.m)
            assert self._tiles(bad.exponents, b.m) == ((1, 2), [])
            assert self._tiles(tuple(zip(*bad.exponents)), b.m) == ((1, 2), [])

    def test_tile_sizes(self):
        b = halving_family(3)
        tile = 18
        tiles = [(j, min(j + tile, b.n)) for j in range(0, b.n, tile)]
        assert self._tiles(b.exponents, b.m, tile) == (None, tiles)
        # a broken column 20 is found by the scan of column 1
        bad = _with_entry(b, 5, 19, (b.exponents[5][19] + 1) % b.m)
        assert self._tiles(tuple(zip(*bad.exponents)), b.m, tile) == ((1, 20), [])

    def test_one_tile_is_not_split(self):
        b = halving_family(2)
        assert self._tiles(b.exponents, b.m) == (None, [(0, b.n)])

    def test_failure_after_row_1_stops_in_its_tile(self):
        b = halving_family(3)
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

    @pytest.mark.parametrize("tile", [1, 3, 7, None])
    def test_every_cell_of_first_and_last_row(self, constructions, tile):
        # and of column 1, so each input of the column-1 scan is corrupted once
        b = constructions["phi"]
        cells = [(i, j) for i in (0, b.n - 1) for j in range(b.n)]
        cells += [(i, 0) for i in range(1, b.n - 1)]
        with PackedTiles(butson, tile) as packed:
            assert verify(b).ok
            assert packed.tiles  # each one tile units long, or the last
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


def _kronecker(a, b):
    """The Kronecker product of two BH(m, .)."""
    rows = tuple(
        tuple((x + y) % a.m for x in row_a for y in row_b)
        for row_a in a.exponents
        for row_b in b.exponents
    )
    return ButsonMatrix(a.m, a.n * b.n, rows)


class TestEvenOrders:
    """Negacyclic slots at even m: a row replaced by a phase of another row
    passes the row-1 scan, so the packed pass must name the pair, on both
    sides of the first two tile boundaries, in verify_oracle's report
    (m = 2 in TestCyclicLayout::test_sylvester_small_tiles)."""

    MATRICES = {
        4: lambda: _kronecker(fourier(4), _kronecker(fourier(4), fourier(4))),
        6: lambda: _kronecker(fourier(6), fourier(6)),
        34: lambda: fourier(34),
        66: lambda: fourier(66),
    }

    @pytest.mark.parametrize("m", sorted(MATRICES))
    @pytest.mark.parametrize("tile", [3, 7, FLOOR])
    def test_rows_moved_across_small_tiles(self, m, tile):
        b = self.MATRICES[m]()
        assert butson._layout(b.m, b.n)[3] == m // 2
        with PackedTiles(butson, tile) as packed:
            assert verify(b).ok
            assert packed.unit < b.n
            for src, dst in _row_moves(b.n, packed.unit):
                bad = _with_row(b, src, dst, m // 2 + 1)
                report = verify(bad)
                assert report.bad_row_pair == (src + 1, dst + 1)
                assert report == verify_oracle(bad), (src, dst)

    def test_bh_34_544_default_tiles(self):
        # halving_family(4), the r = 4 output, packs 41-row tiles; sources
        # past row 2 would make the oracle test thousands of pairs
        b = halving_family(4)
        assert butson.matrix_digest(b) == (
            "sha256:8db6ec00d3dc09e7cb8d26740437dfe116f3e731b3071a1f1272450789e37834"
        )
        tile = 41
        for dst in (tile - 1, tile, 2 * tile - 1, 2 * tile):
            bad = _with_row(b, 1, dst, 3)
            with PackedTiles(butson) as packed:
                report = verify(bad)
            assert packed.unit == tile
            assert report.bad_row_pair == (2, dst + 1)
            assert report == verify_oracle(bad), dst

    def test_short_last_tile(self):
        # 34 rows in tiles of 5: the last tile holds 4, and row 34 a copy
        # of row 30 is met there
        b = fourier(34)
        with PackedTiles(butson, 5) as packed:
            assert verify(b).ok
            assert packed.tiles[-1] == (30, 34)
            for src in (29, 30, 31):
                bad = _with_row(b, src, 33, 0)
                assert verify(bad) == verify_oracle(bad), src


class TestSmallRootOrders:
    """m = 1 and m = 2, where a slot has one digit and no rotation."""

    def test_m1(self):
        assert verify(ButsonMatrix(1, 1, ((0,),))).ok
        b = ButsonMatrix(1, 4, ((0,) * 4,) * 4)
        assert verify(b) == verify_oracle(b) == butson.VerifyReport(False, (1, 2), (1, 2))
        # every pair fails at m = 1; the packed pass starts at row 2
        assert butson._first_packed_failure(b.exponents, 1) == (2, 3)

    def test_m2_accept(self):
        for b in (fourier(2), _sylvester(2), _sylvester(6)):
            assert verify(b).ok
            assert butson._first_packed_failure(b.exponents, 2) is None

    def test_m2_reject(self):
        b = _sylvester(3)
        for bad in (
            _with_entry(b, 5, 6, 1 - b.exponents[5][6]),
            _with_row(b, 2, 6, 1),
            _with_row(b, 1, 2, 0),
        ):
            report = verify(bad)
            assert not report.ok
            assert report == verify_oracle(bad)
        assert verify(_with_row(b, 2, 6, 1)).bad_row_pair == (3, 7)


def _never(dead, live, slot):
    return False


def _every(rows):
    """A trim rule that shifts out the dead slots once there are rows of them."""
    return lambda dead, live, slot: dead >= rows


# Trim rules the kernel must agree under: every row, every 2nd and 4th row,
# and the default rule without its byte floor (the 1/8 share alone).
TRIM_RULES = {
    "every row": {"_trim_pays": _every(1)},
    "every 2nd row": {"_trim_pays": _every(2)},
    "every 4th row": {"_trim_pays": _every(4)},
    "no byte floor": {"_TRIM_BYTES": 0},
}
DEFAULT_RULE = {"_TRIM_BYTES": butson._TRIM_BYTES}


def _trim_moves(n, tile):
    """(src, dst) for a row dst replaced by a phase of row src: dst = src + 1,
    the first slot left after a trim at row src; dst the last slot of src's
    tile; and dst on both sides of the first two tile boundaries."""
    moves = set(_row_moves(n, tile))
    for j0 in sorted({0, tile, (n - 1) // tile * tile}):
        end = min(j0 + tile, n) - 1
        for src in {j0 + 1, (j0 + end) // 2, end - 1}:
            if 1 <= src < end:
                moves |= {(src, src + 1), (src, end)}
    return sorted((src, dst) for src, dst in moves if 1 <= src < dst < n)


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

    MATRICES = {
        9: lambda: phi(PhiPlan(h=fourier(9), tensors=classical_lsesc_set(8))),
        17: lambda: fourier(17),
        10: lambda: halving_family(2),
        18: lambda: halving_family(3),
        34: lambda: fourier(34),
        2: lambda: _sylvester(6),
    }

    @staticmethod
    def _agrees(b, moves, patches):
        for src, dst in moves:
            bad = _with_row(b, src, dst, b.m // 2 + 1)
            with mock.patch.object(butson, "_trim_pays", _never):
                untrimmed = verify(bad)
            with mock.patch.multiple(butson, **patches):
                report = verify(bad)
            assert report.bad_row_pair == (src + 1, dst + 1), (src, dst)
            assert report == untrimmed, (src, dst)
            if src * b.n <= 4000:  # the oracle tests about src * n row pairs
                assert report == verify_oracle(bad), (src, dst)

    # BH(18,144) in small tiles is slow, and the other orders cover them
    @pytest.mark.parametrize(
        "m, tile",
        [(m, tile) for m in sorted(MATRICES) for tile in (1, 3, 7, None) if m != 18 or tile is None],
    )
    def test_forced_trims(self, m, tile):
        b = self.MATRICES[m]()
        with PackedTiles(butson, tile) as packed:
            for name, patches in TRIM_RULES.items():
                with mock.patch.multiple(butson, **patches):
                    assert verify(b).ok, name
                    assert butson._first_packed_failure(b.exponents, b.m) is None, name
            rows = packed.unit
            # forced trims every row everywhere; the other rules where each
            # is most likely to leave a trim just below a failure
            self._agrees(b, _trim_moves(b.n, rows), TRIM_RULES["every row"])
            for name in ("every 2nd row", "every 4th row", "no byte floor"):
                self._agrees(b, _trim_moves(b.n, rows)[::3], TRIM_RULES[name])

    @pytest.mark.parametrize("tile", [1, 3, 7, None])
    def test_m1(self, tile):
        # every pair fails at m = 1; under most rules row 2 sheds slots 1
        # and 2 before its first slot, 3, is searched
        b = ButsonMatrix(1, 12, ((0,) * 12,) * 12)
        with PackedTiles(butson, tile) as packed:
            for patches in TRIM_RULES.values():
                with mock.patch.multiple(butson, **patches):
                    assert butson._first_packed_failure(b.exponents, 1) == (2, 3)
                    assert verify(b) == verify_oracle(b)
        # a one-row tile is packed only once rows 2.. lie before it
        assert packed.tiles[0] == ((2, 3) if tile == 1 else (0, min(tile or b.n, b.n)))

    def test_default_rule_trims_bh_18_144(self):
        # one tile of 144 rows and 11-byte slots: a trim each 24 rows, 264
        # bytes, from row 24 on
        b = halving_family(3)
        assert _slot_bytes(b.m, b.n) == 11
        with PackedTiles(butson) as packed:
            trims = _trims(b)
        assert packed.tiles == [(0, b.n)]
        assert trims == [(24, 120), (24, 96), (24, 72), (24, 48), (24, 24)]
        # failures at the first slot left after each trim and at the last slot
        starts = [b.n - live for _, live in trims]
        self._agrees(b, [(s - 1, t) for s in starts for t in (s, b.n - 1)], DEFAULT_RULE)

    def test_default_rule_never_trims_small_matrices(self):
        small = [fourier(6), fourier(10), halving_family(1), halving_family(2)]
        small.append(phi(PhiPlan(h=fourier(5), tensors=classical_lsesc_set(4))))
        for b in small:
            assert _trims(b) == [], (b.m, b.n)

    def test_default_rule_across_tiles(self):
        # BH(17,272): tiles of 96, 96 and 80 rows, 20-byte slots; each tile
        # trims 13 rows (260 bytes) at a time along its diagonal
        b = phi(PhiPlan(h=fourier(17), tensors=classical_lsesc_set(16)))
        assert _slot_bytes(b.m, b.n) == 20
        with PackedTiles(butson) as packed:
            trims = _trims(b)
        assert packed.tiles == [(0, 96), (96, 192), (192, 272)]
        assert trims == [(13, live) for top in (83, 83, 67) for live in range(top, 0, -13)]
        # the first slot after the first trim of each tile, its tile's last
        # slot, and both sides of the first boundary
        moves = [(94, 95), (95, 96)]
        for start, end in [(13, 96), (109, 192), (205, 272)]:
            moves += [(start - 1, start), (start - 1, end - 1)]
        self._agrees(b, moves, DEFAULT_RULE)


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
