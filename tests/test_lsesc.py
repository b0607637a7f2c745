"""The LSESC and MOLS checks (one power-sum test, which the pair
predicates run on a cached column table per square and the family passes
pack a tile at a time, on the cells and the conjugates' cells) against the
row-pair and symbol-pair oracles, the cached conjugate itself, the
table-built classical families against their pinned texts, the family
order cap and the cap messages at sizes str() refuses.
"""

import gc
import hashlib
import itertools
import random
import weakref
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from bhmat import cli, errors, latin, scarpis
from bhmat.errors import PlanError
from bhmat.latin import enumerate_elements, make_field, prime_power
from bhmat.latin import (
    LatinSquare,
    are_lsesc,
    are_mols,
    classical_lsesc_set,
    conjugate_lsesc_mols,
    dump_latin_set,
)

from oracles import (
    are_lsesc_oracle, are_mols_oracle, element_value, field_add, field_mul, is_latin_oracle
)
from tiles import FLOOR, PackedTiles, count_conjugates

# The lazily built caches a LatinSquare keeps beside its fields.
CACHES = ("_conjugate", "_column_powers")

ORDERS = [2, 3, 4, 5, 7, 8, 9, 16]

# sha256 of dump_latin_set(classical_lsesc_set(q)).  Orders up to 32 were
# pinned from the per-cell tuple arithmetic, 25, 49, 64 and 81 from the
# log/antilog tables that replaced it; the digit-by-digit tables of
# latin._field_tables give the same texts.  128 and 256 were pinned from
# the validated squares and the per-cell str() writer, before the
# unchecked constructor and the symbol tables.  121, 125, 169 and 243, the
# odd-p orders past 81, were pinned while the modulus still came from the
# tuple field's trial division, before _field_tables searched for it.
FAMILY_SHA256 = {
    2: "426253437d6d3b5204bcb0af44efee9f4cd0a944915a6047eeda6cc3da9d3843",
    3: "098e50d236cbb6ac0868618823e0a69e935f0ac5daf114ddec65116c49f22025",
    4: "a9417eb48702fe3b88b474dd8ccef18833fb7f2cb5913b4bf1cab61c96e00dd9",
    5: "66ef829f848a871c02ea86d868e3b9519f0b8883af0f347fa3c029629f07442d",
    7: "40753991a5c2c541b90929f61f08a4b56ab33d31c17978be3a78cfd55ada607f",
    8: "0377c9f5c609e17bf2872480978ba3d983c4c465faeb6938b8c9e2c9e40a0bab",
    9: "91b404af3fb3748dd440ef2425f97a65a68ae35c6dce8f1115765ebcee9fb90c",
    16: "7a92b05a0e2ecda86d1a1c7043e64eb74074823267bdf3aa668e65705c336030",
    25: "e969048e5c2cc528e7cbea62b98747365fdf24ee1292ef6a69e3d0c36baa4c04",
    27: "5da1a177aeb44b0c306648a58fc3ddb0aeba61d403595a142f298ece0ad2c58a",
    32: "6ca2281e9398cc52005fe57afeb8446fb704c0b7dde97fd494f93b56612f932c",
    49: "2d47819f1e3902d178384b5a786b7591910efe52f0470ce2f36cc6acb4f415cf",
    64: "b34b7e9c386353b752173b9aead2f654c38fd763b3e8b72577d203ecce3c83c0",
    81: "5bd08c5c84c64d167c53ca119f7e24010d55c55c9154dad269a0ac2e7672743e",
    121: "93c1b4a882d43ff77d29621613782830f7279102f5b9a6340cd9ff09ed937c42",
    125: "2d3787a9a0292bbfbce01f4d0e146f516b2142ac85b94180d651884e582b63b6",
    128: "e36adc75a778e118d676f60a84a377ba0158f168cb5c9e47889bfa75ec06abf1",
    169: "d7ca887b6610b1b37d55d46fb0082cc07b6fceecb63a8722c5baed8366cadf2a",
    243: "6f00d4ab05defd9444e966a1c1b58d6a4f55ae19b2ea663252cecc40aa61a4a5",
    256: "af7e99335442f438bd0135c06ec25d207624efcd4d19932dca5cea8fab5051e5",
}


@lru_cache(maxsize=None)
def family(q):
    return tuple(classical_lsesc_set(q))


@lru_cache(maxsize=None)
def intercalates(q, index):
    """(i, i2, j, j2) with cells (i, j) = (i2, j2) and (i, j2) = (i2, j):
    swapping the two symbols of such a 2x2 subsquare keeps the square Latin."""
    c = family(q)[index].cells
    return [
        (i, i2, j, j2)
        for i, i2 in itertools.combinations(range(q), 2)
        for j, j2 in itertools.combinations(range(q), 2)
        if c[i][j] == c[i2][j2] and c[i][j2] == c[i2][j]
    ]


def swapped(square, i, i2, j, j2):
    cells = [list(row) for row in square.cells]
    cells[i][j], cells[i][j2] = cells[i][j2], cells[i][j]
    cells[i2][j], cells[i2][j2] = cells[i2][j2], cells[i2][j]
    return LatinSquare(square.n, tuple(map(tuple, cells)))


def isotope(square, rows, cols, symbols):
    """Row i moves to rows[i], column j to cols[j], symbol s becomes symbols[s-1]+1."""
    n = square.n
    cells = [[0] * n for _ in range(n)]
    for i, row in enumerate(square.cells):
        for j, v in enumerate(row):
            cells[rows[i]][cols[j]] = symbols[v - 1] + 1
    return LatinSquare(n, tuple(map(tuple, cells)))


def cached(square):
    return [name for name in CACHES if name in vars(square)]


def fresh(square):
    """An equal square whose caches are not built yet."""
    copy = LatinSquare(square.n, square.cells)
    assert cached(copy) == []
    return copy


def family_check_passes(squares):
    """phi/psi's family check, for a family of any order and size."""
    shape = (squares[0].n, len(squares))
    with mock.patch.object(scarpis, "family_shape", lambda kind, n: shape):
        try:
            scarpis._checked_family(squares, "phi", 0)
        except PlanError as exc:
            assert str(exc) == "squares 1 and 2 are not LSESC"
            return False
    return True


def assert_agree(a, b):
    """are_lsesc and are_mols against their oracles in both argument orders,
    first on squares whose caches are not built yet, then once they are,
    and the family check in both orders.  The conjugates' own conjugates
    are never built."""
    lsesc = {(0, 1): are_lsesc_oracle(a, b), (1, 0): are_lsesc_oracle(b, a)}
    mols = {(0, 1): are_mols_oracle(a, b), (1, 0): are_mols_oracle(b, a)}
    squares = (fresh(a), fresh(b))
    for _ in range(2):
        for x, y in lsesc:
            assert are_lsesc(squares[x], squares[y]) == lsesc[x, y]
            assert are_mols(squares[x], squares[y]) == mols[x, y]
    assert all(cached(square) == list(CACHES) for square in squares)
    assert all(cached(square._conjugate) == ["_column_powers"] for square in squares)
    assert family_check_passes([a, b]) == lsesc[0, 1]
    assert family_check_passes([b, a]) == lsesc[1, 0]
    return lsesc[0, 1]


class TestAgainstOracle:
    @pytest.mark.parametrize("q", ORDERS)
    def test_classical_families(self, q):
        squares = family(q)
        for a, b in itertools.product(squares, repeat=2):
            # distinct squares are LSESC; a square with itself never is
            assert assert_agree(a, b) == (a is not b)

    @given(st.data())
    def test_isotopes(self, data):
        q = data.draw(st.sampled_from(ORDERS))
        squares = family(q)
        a, b = (data.draw(st.sampled_from(squares)) for _ in range(2))
        perms = st.permutations(range(q))
        cols, symbols = data.draw(perms), data.draw(perms)
        a = isotope(a, data.draw(perms), cols, symbols)
        if not data.draw(st.booleans()):
            # moving B's columns or symbols apart from A's breaks most pairs
            cols, symbols = data.draw(perms), data.draw(perms)
        b = isotope(b, data.draw(perms), cols, symbols)
        assert_agree(a, b)

    @pytest.mark.parametrize("q", [4, 8])
    def test_every_intercalate_swap(self, q):
        squares = family(q)
        for index, square in enumerate(squares):
            for swap in intercalates(q, index):
                bad = swapped(square, *swap)
                for other in squares:
                    assert_agree(bad, other)  # and (other, bad)

    @given(st.data())
    def test_intercalate_swaps(self, data):
        q = data.draw(st.sampled_from([4, 8, 16]))
        index = data.draw(st.integers(0, q - 2))
        bad = swapped(family(q)[index], *data.draw(st.sampled_from(intercalates(q, index))))
        other = data.draw(st.sampled_from(family(q)))
        assert_agree(bad, other)
        assert_agree(bad, bad)


def cyclic(n, step):
    """The square (i + step j) mod n + 1, Latin when step is a unit mod n."""
    return LatinSquare(n, tuple(tuple((i + step * j) % n + 1 for j in range(n)) for i in range(n)))


class TestPastTheClassicalOrders:
    """The pair predicates against their oracles on squares that no
    classical family holds, at order 1, at 17, past the classical orders
    the other tests use, and at 65, whose sums 2^65 - 1 are past a machine
    word.  i + j and i + 2j mod an odd n are MOLS, and so are their
    isotopes under shared row and column moves; their conjugates are
    LSESC."""

    @pytest.mark.parametrize("n", [1, 17, 65])
    def test_cyclic_isotopes(self, n):
        rng = random.Random(n)

        def perm():
            return rng.sample(range(n), n)

        for _ in range(2):
            rows, cols = perm(), perm()
            a = isotope(cyclic(n, 1), rows, cols, perm())
            b = isotope(cyclic(n, 2), rows, cols, perm())
            assert are_mols(a, b) and are_mols(b, a)
            pairs = [(a, b), (a._conjugate, b._conjugate)]
            assert assert_agree(*pairs[1])
            assert_agree(a, b)
            for square in (a, a._conjugate):
                assert assert_agree(square, square) == (n == 1)
            if n > 1:  # a single exchange of two columns in one square
                j, j2 = rng.sample(range(n), 2)
                for first, second in pairs:
                    assert_agree(first, exchange_columns(second, j, j2))
                    assert_agree(exchange_columns(first, j, j2)._conjugate, second._conjugate)


class TestIndexCache:
    """The conjugate is built once per square, on first use, holds no
    reference back to it, and is invisible to == and hash."""

    @pytest.mark.parametrize("q", [5, 8, 9])
    def test_symbol_rows_are_the_conjugate_cells(self, q):
        for square in family(q):
            conjugate = square._conjugate
            for i, row in enumerate(square.cells):
                for k, s in enumerate(row):
                    assert conjugate.cells[s - 1][k] == i + 1
            assert conjugate_lsesc_mols(square) is conjugate
            assert conjugate == LatinSquare(q, conjugate.cells)
            # column k's table: 2^(cell (v, k) - 1) at row v, and 0 at 0
            assert conjugate._column_powers == tuple(
                (0, *(2 ** (v - 1) for v in column)) for column in zip(*conjugate.cells)
            )

    def test_filled_cache_keeps_eq_and_hash(self):
        a, b = family(7)[:2]
        filled, empty = fresh(a), fresh(a)
        assert are_lsesc(filled, b) and are_lsesc(b, filled)
        assert are_mols(filled, filled) is False
        assert cached(filled) == list(CACHES) and cached(empty) == []
        assert filled == empty and hash(filled) == hash(empty)
        assert {filled: 1}[empty] == 1
        assert filled != fresh(b)

    @pytest.mark.parametrize("check", [are_lsesc, are_mols])
    def test_order_mismatch_builds_no_index(self, check):
        small, large = fresh(family(4)[0]), fresh(family(5)[0])
        for first, second in ((small, large), (large, small)):
            with pytest.raises(ValueError, match="squares of orders .* in one family"):
                check(first, second)
        assert cached(small) == cached(large) == []

    def test_conjugate_then_check_builds_each_index_once(self, monkeypatch):
        built = count_conjugates(monkeypatch)
        squares = [fresh(s) for s in family(8)]
        conjugates = [conjugate_lsesc_mols(s) for s in squares]
        assert len(built) == 7
        assert all(are_lsesc(a, b) for a, b in itertools.combinations(squares, 2))
        assert latin.first_non_lsesc_pair(squares) is None
        latin.first_non_mols_pair(squares)
        assert len(built) == 7
        assert all(conjugate_lsesc_mols(s) is c for s, c in zip(squares, conjugates))
        assert [conjugate_lsesc_mols(c) for c in conjugates] == squares
        assert len(built) == 14

    def test_no_reference_cycle(self):
        # with the collector off, only reference counts free the family
        gc.disable()
        try:
            squares = [fresh(s) for s in family(8)]
            conjugates = [conjugate_lsesc_mols(s) for s in squares]
            assert latin.first_non_lsesc_pair(squares) is None
            latin.first_non_mols_pair(squares)
            assert are_lsesc(*squares[:2]) and are_mols(*conjugates[:2])
            conjugate_lsesc_mols(conjugates[0])
            refs = [weakref.ref(x) for x in squares + conjugates]
            del squares, conjugates
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()


class TestCheckedFamily:
    """phi's family check on slices names the first failing pair as before."""

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("row_copy", "squares 2 and 4 are not LSESC"),
            ("intercalate", "squares 1 and 3 are not LSESC"),
            ("duplicate_last", "squares 5 and 6 are not LSESC"),
        ],
    )
    def test_one_bad_square(self, bad, message):
        q = 7 if bad != "intercalate" else 8
        squares = list(family(q))
        if bad == "row_copy":
            squares[3] = isotope(squares[1], [1, 0, *range(2, q)], range(q), range(q))
        elif bad == "intercalate":
            squares[2] = swapped(squares[2], *intercalates(q, 2)[0])
        else:
            squares[5] = squares[4]
        with pytest.raises(PlanError) as info:
            scarpis._checked_family(squares, "phi", q + 1)
        assert str(info.value) == message

    def test_no_reconstruct(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("reconstruct called")

        monkeypatch.setattr(latin, "reconstruct", forbidden)
        monkeypatch.setattr(scarpis, "reconstruct", forbidden, raising=False)
        scarpis._checked_family(classical_lsesc_set(8), "phi", 9)


def first_failing(check, squares):
    """The first pair (a, b), a < b, 1-based in lexicographic order, that
    check rejects, tested pair by pair."""
    pairs = itertools.combinations(range(len(squares)), 2)
    return next(((a + 1, b + 1) for a, b in pairs if not check(squares[a], squares[b])), None)


def assert_family_agrees(squares, tile=None, oracle=True):
    """The packed family checks, and phi/psi's check on the slices, name
    the pair that are_lsesc and are_mols (and their oracles) reject first,
    packing squares in the tiles PackedTiles(latin, tile) sets."""
    n = squares[0].n
    lsesc = first_failing(are_lsesc, squares)
    mols = first_failing(are_mols, squares)
    if oracle:
        assert first_failing(are_lsesc_oracle, squares) == lsesc
        assert first_failing(are_mols_oracle, squares) == mols
    shape = (n, len(squares))
    with PackedTiles(latin, tile) as packed, mock.patch.object(
        scarpis, "family_shape", lambda kind, k: shape
    ):
        assert latin.first_non_lsesc_pair(squares) == lsesc
        assert latin.first_non_mols_pair(squares) == mols
        if lsesc is None:
            scarpis._checked_family(squares, "phi", 0)
        else:
            with pytest.raises(PlanError) as info:
                scarpis._checked_family(squares, "phi", 0)
            assert str(info.value) == "squares %d and %d are not LSESC" % lsesc
    assert packed.tiles or len(squares) == 1  # a lone square has no pair to pack
    return lsesc, mols


def exchange_columns(square, j, j2):
    cells = [list(row) for row in square.cells]
    for row in cells:
        row[j], row[j2] = row[j2], row[j]
    return LatinSquare(square.n, tuple(map(tuple, cells)))


TILES = [None, 1, 2, FLOOR]


class TestFamilyKernel:
    """first_non_lsesc_pair, first_non_mols_pair and _checked_family
    against are_lsesc, are_mols and the oracles taken pair by pair, at the
    default tile, at tiles of one and of two squares, and at tiles the
    floor sets."""

    @pytest.mark.parametrize("tile", TILES)
    @pytest.mark.parametrize("q", ORDERS)
    def test_classical_families(self, q, tile):
        assert assert_family_agrees(list(family(q)), tile) == (None, None)

    @pytest.mark.parametrize("tile", TILES)
    @pytest.mark.parametrize("q", [3, 4, 5, 8])
    def test_family_then_its_conjugates(self, q, tile):
        squares = list(family(q)) + [conjugate_lsesc_mols(s) for s in family(q)]
        assert assert_family_agrees(squares, tile) != (None, None)

    @pytest.mark.parametrize("tile", TILES)
    def test_one_square_and_order_one(self, tile):
        assert assert_family_agrees([family(5)[2]], tile) == (None, None)
        one = LatinSquare(1, ((1,),))
        assert assert_family_agrees([one], tile) == (None, None)
        # order-1 rows meet in their one column, and (1, 1) is every pair
        assert assert_family_agrees([one] * 4, tile) == (None, None)

    @given(st.data())
    def test_modified_families(self, data):
        q = data.draw(st.sampled_from([3, 4, 5, 7, 8, 9, 16]))
        squares = list(family(q))
        for _ in range(data.draw(st.integers(1, 2))):
            index = data.draw(st.integers(0, q - 2))
            square = squares[index]
            # intercalates are listed for the classical squares only
            classical = q % 2 == 0 and square is family(q)[index]
            kinds = ["columns", "repeat", "rows", "symbols"] + ["intercalate"] * classical
            kind = data.draw(st.sampled_from(kinds))
            if kind == "intercalate":
                swap = data.draw(st.sampled_from(intercalates(q, index)))
                squares[index] = swapped(square, *swap)
            elif kind == "columns":
                j, j2 = data.draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2, unique=True))
                squares[index] = exchange_columns(square, j, j2)
            elif kind == "repeat":
                squares[data.draw(st.integers(0, q - 2))] = square
            else:
                perm = data.draw(st.permutations(range(q)))
                same = list(range(q))
                args = (perm, same, same) if kind == "rows" else (same, same, perm)
                # moving rows keeps LSESC and breaks MOLS; symbols the reverse
                squares[index] = isotope(square, *args)
        assert_family_agrees(squares, data.draw(st.sampled_from(TILES)))

    def test_repeat_in_every_tile_position(self):
        squares = list(family(9))
        for b in range(1, 8):
            for a in range(b):
                copy = squares[:b] + [squares[a]] + squares[b + 1 :]
                for tile in TILES:
                    assert assert_family_agrees(copy, tile) == ((a + 1, b + 1),) * 2
        # b on both sides of the floor's first tile boundary: squares a + 1
        # to b - 1 cycle through the rest of the family, and b repeats a
        floor = errors._TILE_FLOOR
        for a in (0, 3, 6):
            for b in (floor - 1, floor, floor + 1):
                rest = itertools.islice(itertools.cycle(squares[a + 1 :]), floor + 4)
                copy = squares[: a + 1] + list(rest)
                copy[b] = squares[a]
                assert assert_family_agrees(copy, FLOOR) == ((a + 1, b + 1),) * 2

    def test_several_default_tiles(self):
        # q = 64 packs the floor's 32 squares a tile; the swapped last
        # square is reached in the second
        q = 64
        squares = classical_lsesc_set(q)
        c = squares[-1].cells
        swap = next(
            (0, i2, j, j2)
            for i2 in range(1, q)
            for j, j2 in itertools.combinations(range(q), 2)
            if c[0][j] == c[i2][j2] and c[0][j2] == c[i2][j]
        )
        squares[-1] = swapped(squares[-1], *swap)
        lsesc, mols = assert_family_agrees(squares, oracle=False)
        assert lsesc is not None and lsesc[1] == q - 1
        with PackedTiles(latin) as packed:
            assert latin.first_non_lsesc_pair(squares) == lsesc
        assert packed.tiles == [(0, 32), (32, q - 1)]

    def test_order_mismatch(self):
        for check in (latin.first_non_lsesc_pair, latin.first_non_mols_pair):
            with pytest.raises(ValueError, match="squares of orders 4 and 5 in one family"):
                check([family(4)[0], family(5)[0]])
            assert check([]) is None

    def test_no_pair_by_pair_calls(self, monkeypatch, tmp_path):
        calls = []

        def refuse(*args):
            raise AssertionError("pair tested")

        kernel = latin._first_unmet_pair

        def counting(*args):
            calls.append(len(args[0]))
            return kernel(*args)

        monkeypatch.setattr(latin, "are_lsesc", refuse)
        monkeypatch.setattr(latin, "are_mols", refuse)
        monkeypatch.setattr(latin, "_first_unmet_pair", counting)
        path = tmp_path / "q8.txt"
        latin.write_latin_set(family(8), path)
        assert cli.main(["lsesc", "check", str(path)]) == 0
        assert calls == [7, 7]  # LSESC, then MOLS, each one pass
        scarpis._checked_family(classical_lsesc_set(8), "phi", 9)
        assert calls == [7, 7, 7]

    def test_passes_read_the_cells_and_conjugates_themselves(self, monkeypatch):
        calls = []
        kernel = latin._first_unmet_pair

        def spy(keys, exponents, n):
            exponents = [list(e) for e in exponents]
            calls.append((keys, exponents))
            return kernel(keys, exponents, n)

        monkeypatch.setattr(latin, "_first_unmet_pair", spy)
        squares = [fresh(s) for s in family(9)]
        assert latin.first_non_lsesc_pair(squares) is None
        latin.first_non_mols_pair(squares)
        (lsesc_keys, lsesc_exponents), (mols_keys, mols_exponents) = calls
        assert len(lsesc_keys) == len(mols_keys) == len(squares)
        for a, s in enumerate(squares):
            conjugate = s._conjugate
            assert lsesc_keys[a] is s.cells and mols_keys[a] is conjugate.cells
            assert lsesc_exponents[a] == list(itertools.chain.from_iterable(conjugate.cells))
            assert mols_exponents[a] == list(itertools.chain.from_iterable(s.cells))


def count_is_latin(monkeypatch):
    """Record the order of every square latin.is_latin is called on."""
    calls = []
    real = latin.is_latin

    def counting(cells):
        calls.append(len(cells))
        return real(cells)

    monkeypatch.setattr(latin, "is_latin", counting)
    return calls


class TestValidatedOnce:
    """A square is validated where it enters: once per square read or
    built from cells, never for the library's own classical squares,
    conjugates and reconstructed squares, which are Latin by construction."""

    @pytest.mark.parametrize("q", [2, 7, 9, 16])
    def test_library_squares_are_not_validated(self, q, monkeypatch):
        calls = count_is_latin(monkeypatch)
        conjugates = [conjugate_lsesc_mols(s) for s in classical_lsesc_set(q)]
        [conjugate_lsesc_mols(c) for c in conjugates]
        assert calls == []

    def test_squares_read_or_built_from_cells_once_each(self, monkeypatch):
        text = dump_latin_set(family(9))
        calls = count_is_latin(monkeypatch)
        squares = latin.parse_latin_set(text)
        assert calls == [9] * 8
        LatinSquare(9, squares[0].cells)
        assert latin.reconstruct(squares[0]) == squares[0]
        assert calls == [9] * 9

    def test_cli(self, monkeypatch, tmp_path):
        calls = count_is_latin(monkeypatch)
        path, mols, f10 = (tmp_path / name for name in ("q9.txt", "mols9.txt", "f10.json"))
        assert cli.main(["lsesc", "classical", "9", str(path)]) == 0
        assert calls == []
        assert cli.main(["lsesc", "check", str(path)]) == 0
        assert calls == [9] * 8
        assert cli.main(["lsesc", "conjugate", str(path), str(mols)]) == 0
        assert calls == [9] * 16
        assert cli.main(["fourier", "10", str(f10)]) == 0
        out = str(tmp_path / "phi.json")
        assert cli.main(["construct", "phi", str(f10), "-o", out, "--lsesc", str(path)]) == 0
        assert calls == [9] * 24


class TestLibrarySquaresAreLatin:
    """The squares built without validation are Latin: each classical
    square and its conjugate passes the cell-by-cell oracle, equals the
    square that LatinSquare builds from its cells, with the same hash, and
    conjugates back.  At q = 128 and 256, where that takes seconds, both
    pass is_latin only."""

    @pytest.mark.parametrize("q", [q for q in sorted(FAMILY_SHA256) if q < 128])
    def test_classical_and_conjugate(self, q):
        for square in classical_lsesc_set(q):
            conjugate = conjugate_lsesc_mols(square)
            for s in (square, conjugate):
                assert is_latin_oracle(s.cells)
                validated = LatinSquare(s.n, s.cells)
                assert validated == s and hash(validated) == hash(s)
            assert conjugate_lsesc_mols(conjugate) == square

    @pytest.mark.parametrize("q", [128, 256])
    def test_classical_and_conjugate_at_the_caps(self, q):
        squares = classical_lsesc_set(q)
        while squares:  # one square and its index alive at a time
            square = squares.pop()
            assert latin.is_latin(square.cells)
            assert latin.is_latin(conjugate_lsesc_mols(square).cells)


class TestClassicalTables:
    @pytest.mark.parametrize("q", sorted(FAMILY_SHA256))
    def test_family_text_pinned(self, q):
        text = dump_latin_set(classical_lsesc_set(q))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FAMILY_SHA256[q]

    @pytest.mark.parametrize("q", [q for q in range(2, 82) if prime_power(q)])
    def test_tables_match_the_reference_field(self, q):
        p, r = prime_power(q)
        field = make_field(p, r)
        elements = enumerate_elements(field)
        _, plus, products = latin._field_tables(p, r)
        assert plus == [
            [element_value(field, field_add(field, a, b)) for b in elements]
            for a in elements
        ]
        assert products == [
            [element_value(field, field_mul(field, b, x)) for x in elements]
            for b in elements[1:]
        ]

    def test_family_needs_no_tuple_field(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("tuple field built")

        monkeypatch.setattr(latin, "make_field", forbidden)
        monkeypatch.setattr(latin, "GaloisField", forbidden)
        for q in (9, 27):
            text = dump_latin_set(classical_lsesc_set(q))
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FAMILY_SHA256[q]


class TestOrderCap:
    def test_default_cap(self):
        assert latin.CLASSICAL_ORDER_CAP == 2**8

    def test_over_cap_names_the_size_before_any_table(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("field built past the cap")

        monkeypatch.setattr(latin, "CLASSICAL_ORDER_CAP", 4)
        monkeypatch.setattr(latin, "_field_tables", forbidden)
        with pytest.raises(PlanError) as info:
            classical_lsesc_set(5)
        message = str(info.value)
        assert "order 5" in message
        assert "100 cells" in message  # (q - 1) q^2
        assert "cap is 4" in message

    def test_cap_admits_its_own_order(self, monkeypatch):
        monkeypatch.setattr(latin, "CLASSICAL_ORDER_CAP", 4)
        assert len(classical_lsesc_set(4)) == 3

    def test_cap_is_checked_before_the_prime_power_test(self, monkeypatch):
        # an under-cap int, a bool or a float that is not a prime power
        for q in (6, 1, True, 300.0):
            with pytest.raises(ValueError, match="not a prime power") as info:
                classical_lsesc_set(q)
            assert not isinstance(info.value, PlanError)

        def forbidden(q):
            raise AssertionError("trial division past the cap")

        # 2^61 - 1 is prime, and trial division up to its root took minutes
        monkeypatch.setattr(latin, "prime_power", forbidden)
        for q in (2**61 - 1, 10**14 + 31, 300, 257):
            with pytest.raises(PlanError, match=f"order {q} has .* cells; the order cap is 256$"):
                classical_lsesc_set(q)

    def test_cli_refuses_a_large_prime_before_trial_division(
        self, monkeypatch, tmp_path, capsys
    ):
        def forbidden(q):
            raise AssertionError("trial division past the cap")

        monkeypatch.setattr(latin, "prime_power", forbidden)
        out = tmp_path / "family.txt"
        assert cli.main(["lsesc", "classical", str(2**61 - 1), str(out)]) == 2
        assert "LSESC family of order 2305843009213693951 has" in capsys.readouterr().err
        assert not out.exists()

    def test_halving_family_fails_before_its_input(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("input built past the cap")

        monkeypatch.setattr(latin, "CLASSICAL_ORDER_CAP", 4)
        monkeypatch.setattr(scarpis, "fourier", forbidden)
        with pytest.raises(PlanError, match="order 8"):
            scarpis.halving_family(3)

    def test_cli_exits_2_and_writes_nothing(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(latin, "CLASSICAL_ORDER_CAP", 4)
        out = tmp_path / "family.txt"
        assert cli.main(["lsesc", "classical", "5", str(out)]) == 2
        assert "100 cells" in capsys.readouterr().err
        assert not out.exists()
