import errno
import itertools
import os
import stat
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bhmat import latin
from bhmat.errors import FormatError
from bhmat.latin import (
    LatinSquare,
    LatinTensor,
    are_lsesc,
    are_mols,
    classical_lsesc_set,
    classical_tensor_set,
    conjugate_lsesc_mols,
    dump_latin_set,
    encode,
    inflate,
    is_latin,
    parse_latin_set,
    read_latin_set,
    reconstruct,
    write_latin_set,
)

from oracles import all_latin_squares, exhaustive_complete_lsesc, is_latin_oracle

L2 = LatinSquare(2, ((1, 2), (2, 1)))
CYCLIC3 = LatinSquare(3, ((1, 2, 3), (2, 3, 1), (3, 1, 2)))


def agreement_counts(first, second):
    """Independent LSESC oracle: columns agreeing, per ordered row pair."""
    n = first.n
    return [
        sum(1 for j in range(n) if first.cells[i][j] == second.cells[k][j])
        for i in range(n)
        for k in range(n)
    ]


def square_strategy(n):
    """Random isotopes of the cyclic square of order n."""

    def build(row_perm, col_perm, sym_perm):
        cells = tuple(
            tuple((row_perm[i] + col_perm[j]) % n for j in range(n)) for i in range(n)
        )
        return LatinSquare(n, tuple(tuple(sym_perm[v] + 1 for v in row) for row in cells))

    return st.builds(
        build,
        st.permutations(range(n)),
        st.permutations(range(n)),
        st.permutations(range(n)),
    )


class TestIsLatin:
    def test_order2_square(self):
        assert is_latin(((1, 2), (2, 1)))

    def test_repeated_column_entries(self):
        assert not is_latin(((1, 1), (2, 2)))

    def test_cyclic_square(self):
        assert is_latin(((1, 2, 3), (2, 3, 1), (3, 1, 2)))

    def test_malformed_entries(self):
        with pytest.raises(ValueError):
            is_latin(((0, 1), (1, 0)))

    @given(st.data())
    def test_agrees_with_cell_by_cell_oracle(self, data):
        cells = data.draw(latin_like())
        assert _outcome(is_latin, cells) == _outcome(is_latin_oracle, cells)

    def test_row_order_decides(self):
        # a failing row ends the scan before a later malformed row
        assert not is_latin(((1, 1, 2), (0, 1, 2), (1, 2)))
        with pytest.raises(ValueError, match="ragged"):
            is_latin(((1, 2, 3), (1, 2), (0, 0, 0)))
        with pytest.raises(ValueError, match="1..3"):
            is_latin(((1, 2, 3), (1, 2, 4), (1, 2)))
        assert is_latin(((1.0, 2), (2, True)))
        # every row and column set is {1, 2}, but a row holds three cells
        with pytest.raises(ValueError, match="ragged"):
            is_latin(((1, 2), (2, 1, 1)))


# a few values that equal a symbol without being an int, and values out of range
ODD_CELLS = st.sampled_from([True, False, 1.0, 2.0, 2.5, -1, 0, float("nan")])


@st.composite
def latin_like(draw):
    """Isotopes of the cyclic square of order 0..5, then possibly broken:
    cells replaced (by ints in and out of range, bools or floats), rows
    copied over other rows, a row made ragged."""
    n = draw(st.integers(0, 5))
    cells = [list(row) for row in draw(square_strategy(n)).cells] if n else []
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["cell", "odd", "copy"]))
        if kind == "cell":
            cells[i][j] = draw(st.integers(-1, n + 1))
        elif kind == "odd":
            cells[i][j] = draw(ODD_CELLS)
        else:
            cells[i] = list(cells[j])
    if n and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        cells[i] = cells[i][:j] if draw(st.booleans()) else cells[i] + [j + 1]
    return tuple(tuple(row) for row in cells)


def _outcome(test, cells):
    try:
        return test(cells)
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestLsesc:
    def test_classical_q3_pair(self):
        first, second = classical_lsesc_set(3)
        assert all(c == 1 for c in agreement_counts(first, second))
        assert are_lsesc(first, second)

    def test_row_swapped_order2_pair_fails(self):
        other = LatinSquare(2, ((2, 1), (1, 2)))
        assert set(agreement_counts(L2, other)) == {0, 2}
        assert not are_lsesc(L2, other)

    def test_classical_q4_all_pairs(self):
        squares = classical_lsesc_set(4)
        for a, b in itertools.combinations(squares, 2):
            assert are_lsesc(a, b)

    def test_square_with_itself(self):
        assert not are_lsesc(CYCLIC3, CYCLIC3)

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            are_lsesc(L2, CYCLIC3)


class TestMols:
    def test_cyclic_mols_order3(self):
        other = LatinSquare(3, ((1, 2, 3), (3, 1, 2), (2, 3, 1)))
        pairs = {
            (CYCLIC3.cells[i][j], other.cells[i][j])
            for i in range(3)
            for j in range(3)
        }
        assert len(pairs) == 9
        assert are_mols(CYCLIC3, other)

    def test_square_with_itself(self):
        assert not are_mols(CYCLIC3, CYCLIC3)

    def test_no_orthogonal_mate_at_order2(self):
        other = LatinSquare(2, ((2, 1), (1, 2)))
        assert not are_mols(L2, other)
        assert not are_mols(L2, L2)


class TestConjugation:
    def test_order2_self_conjugate(self):
        assert conjugate_lsesc_mols(L2) == L2

    def test_definition_cell_wise(self):
        square = classical_lsesc_set(3)[1]  # b = 2
        image = conjugate_lsesc_mols(square)
        for i in range(3):
            for j in range(3):
                a = square.cells[i][j]
                assert image.cells[a - 1][j] == i + 1

    @given(square_strategy(4))
    def test_involution(self, square):
        assert conjugate_lsesc_mols(conjugate_lsesc_mols(square)) == square

    @given(square_strategy(5), square_strategy(5))
    def test_duality_equivalence(self, first, second):
        lsesc = are_lsesc(first, second)
        mols = are_mols(conjugate_lsesc_mols(first), conjugate_lsesc_mols(second))
        assert lsesc == mols

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
    def test_classical_sets_are_lsesc_and_conjugate_mols(self, q):
        squares = classical_lsesc_set(q)
        assert len(squares) == q - 1
        conjugates = [conjugate_lsesc_mols(s) for s in squares]
        for a, b in itertools.combinations(range(len(squares)), 2):
            assert are_lsesc(squares[a], squares[b])
            assert are_mols(conjugates[a], conjugates[b])


class TestClassicalSet:
    def test_q2_matches_order2_square(self):
        assert classical_lsesc_set(2) == [L2]

    def test_not_prime_power(self):
        with pytest.raises(ValueError):
            classical_lsesc_set(6)

    def test_cap(self):
        with pytest.raises(ValueError):
            classical_lsesc_set(2**13)


class TestExhaustiveSearch:
    def test_order2(self):
        assert exhaustive_complete_lsesc(2) == [L2]

    def test_order3(self):
        family = exhaustive_complete_lsesc(3)
        assert family is not None and len(family) == 2
        assert are_lsesc(*family)

    def test_order4(self):
        family = exhaustive_complete_lsesc(4)
        assert family is not None and len(family) == 3
        for a, b in itertools.combinations(family, 2):
            assert are_lsesc(a, b)

    def test_cap(self):
        with pytest.raises(ValueError):
            exhaustive_complete_lsesc(5)


def dense(perm):
    """0/1 matrix of a permutation given by its 0-based row images."""
    return tuple(tuple(1 if perm[i] == j else 0 for j in range(len(perm))) for i in range(len(perm)))


def frontal_slices(tensor):
    """Dense cube: [k][i][j] = 1 exactly when frontal slice k sends row i to j."""
    return [dense(sl) for sl in tensor.slices]


def horizontal_slices(tensor):
    cube, n, size = frontal_slices(tensor), tensor.n, tensor.size
    return [
        tuple(tuple(cube[k][i][j] for j in range(size)) for k in range(n))
        for i in range(size)
    ]


def lateral_slices(tensor):
    cube, n, size = frontal_slices(tensor), tensor.n, tensor.size
    return [
        tuple(tuple(cube[k][i][j] for k in range(n)) for i in range(size))
        for j in range(size)
    ]


def is_permutation_matrix(mat):
    return all(row.count(1) == 1 and row.count(0) == len(row) - 1 for row in mat) and all(
        col.count(1) == 1 for col in zip(*mat)
    )


def family_is_disjoint_permutations(mats):
    seen = set()
    for mat in mats:
        if not is_permutation_matrix(mat):
            return False
        for i, row in enumerate(mat):
            pos = (i, row.index(1))
            if pos in seen:
                return False
            seen.add(pos)
    return True


class TestEncode:
    def test_order2_slices(self):
        tensor = encode(L2)
        assert tensor.slices == ((0, 1), (1, 0))
        assert tensor.row_images(2) == (1, 0)
        assert type(tensor.row_images(1)) is tuple

    def test_slice_sums(self):
        tensor = encode(CYCLIC3)
        for sl in tensor.slices:
            assert sorted(sl) == [0, 1, 2]
        for mat in frontal_slices(tensor):
            assert all(sum(row) == 1 for row in mat)
            assert all(sum(col) == 1 for col in zip(*mat))

    def test_all_three_slice_families(self):
        squares = classical_lsesc_set(5) + list(all_latin_squares(4))
        for square in squares:
            tensor = encode(square)
            assert family_is_disjoint_permutations(frontal_slices(tensor))
            assert family_is_disjoint_permutations(horizontal_slices(tensor))
            assert family_is_disjoint_permutations(lateral_slices(tensor))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip_exhaustive(self, n):
        for square in all_latin_squares(n):
            assert reconstruct(encode(square)) == square


class TestInflate:
    def test_doubling_order2(self):
        doubled = inflate(encode(L2), 2)
        assert doubled.slices == ((0, 1, 2, 3), (1, 0, 3, 2))
        assert frontal_slices(doubled)[1] == (
            (0, 1, 0, 0),
            (1, 0, 0, 0),
            (0, 0, 0, 1),
            (0, 0, 1, 0),
        )

    def test_identity_inflation(self):
        t = encode(CYCLIC3)
        assert inflate(t, 1) == LatinTensor(t.n, t.slices)

    def test_slice_count_preserved(self):
        tensor = encode(CYCLIC3)
        assert inflate(tensor, 3).n == tensor.n
        assert inflate(tensor, 3).size == 3 * tensor.size

    def test_block_diagonal_structure(self):
        tensor = encode(CYCLIC3)
        big = inflate(tensor, 2)
        for small, large in zip(frontal_slices(tensor), frontal_slices(big)):
            for i in range(3):
                for j in range(3):
                    assert large[i][j] == small[i][j]
                    assert large[3 + i][3 + j] == small[i][j]
                    assert large[i][3 + j] == 0
                    assert large[3 + i][j] == 0
        assert family_is_disjoint_permutations(frontal_slices(big))


class TestReconstruct:
    def test_example_tensor(self):
        tensor = LatinTensor(2, ((0, 1), (1, 0)))
        assert reconstruct(tensor) == L2

    def test_frontal_permutation_permutes_columns(self):
        # reordering the frontal slices reorders the columns of the square
        tensor = encode(CYCLIC3)
        shuffled = LatinTensor(3, (tensor.slices[2], tensor.slices[0], tensor.slices[1]))
        expected = tuple(
            tuple(CYCLIC3.cells[i][k] for k in (2, 0, 1)) for i in range(3)
        )
        assert reconstruct(shuffled).cells == expected

    def test_symbol_relabel_permutes_slice_columns(self):
        # relabelling symbols acts on the j axis, i.e. on every row image
        relabel = {1: 2, 2: 3, 3: 1}
        relabelled = LatinSquare(
            3, tuple(tuple(relabel[v] for v in row) for row in CYCLIC3.cells)
        )
        tensor, target = encode(CYCLIC3), encode(relabelled)
        for k in range(3):
            for i in range(3):
                assert target.slices[k][i] == relabel[tensor.slices[k][i] + 1] - 1

    def test_rejects_inflated(self):
        with pytest.raises(ValueError):
            reconstruct(inflate(encode(L2), 2))

    def test_rejects_broken_tensor(self):
        with pytest.raises(ValueError):
            LatinTensor(2, ((0, 1), (0, 1)))  # not disjoint
        with pytest.raises(ValueError):
            LatinTensor(2, ((0, 0), (1, 1)))  # not permutations
        with pytest.raises(ValueError):
            LatinTensor(2, ((0, 2), (1, 0)))  # image out of range
        with pytest.raises(ValueError):
            LatinTensor(2, ((0, 1, 2), (1, 0)))  # ragged slices
        with pytest.raises(ValueError):
            LatinTensor(3, ((0, 1), (1, 0)))  # wrong slice count
        with pytest.raises(ValueError):
            LatinTensor(2, ((0, True), (1, 0)))  # bool image
        with pytest.raises(ValueError, match="permute 0..1"):
            LatinTensor(2, ((0, 1), (1.0, 0)))  # float image in a later slice
        with pytest.raises(ValueError, match="permute 0..1"):
            LatinTensor(2, ((1, 0), ("0", 1)))  # not comparable with an int


class TestUncheckedOutputs:
    """inflate and reconstruct build their outputs unchecked, from tensors
    checked where they entered; every output equals the one the checked
    constructors build from the same slices or cells."""

    def test_outputs_equal_the_checked_constructions(self, monkeypatch):
        tensors = [encode(s) for n in range(1, 5) for s in all_latin_squares(n)]
        tensors += [encode(s) for q in (5, 7, 8, 9, 16) for s in classical_lsesc_set(q)]
        cyclic = encode(CYCLIC3)
        tensors += [
            LatinTensor(2, ((0, 1), (1, 0))),
            LatinTensor(3, (cyclic.slices[2], cyclic.slices[0], cyclic.slices[1])),
        ]

        def forbidden(*args):
            raise AssertionError("output validated again")

        with monkeypatch.context() as patch:
            patch.setattr(latin, "is_latin", forbidden)
            patch.setattr(LatinTensor, "__post_init__", forbidden)
            squares = [reconstruct(t) for t in tensors]
            inflated = [(t, m, inflate(t, m)) for t in tensors for m in (1, 2, 3)]
            twice = [(t, inflate(t, 2)) for _, _, t in inflated[1::3]]  # inflated twice
        for tensor, square in zip(tensors, squares):
            assert type(square) is LatinSquare
            assert square == LatinSquare(tensor.n, square.cells)
            assert square.slices == tensor.slices
        for tensor, m, big in inflated + [(t, 2, big) for t, big in twice]:
            assert type(big) is LatinTensor and big.size == m * tensor.size
            assert big == LatinTensor(tensor.n, big.slices)


class TestFiles:
    def test_round_trip(self, tmp_path):
        squares = classical_lsesc_set(4)
        path = tmp_path / "set.txt"
        write_latin_set(squares, path)
        assert read_latin_set(path) == squares

    def test_dump_format(self):
        text = dump_latin_set([L2])
        assert text == "L 2\n1 2\n2 1\n"

    def test_empty_family_is_refused(self, tmp_path):
        # its text would be one newline, which parse_latin_set refuses
        with pytest.raises(FormatError, match="no Latin squares in file"):
            parse_latin_set("\n")
        with pytest.raises(ValueError, match="no Latin squares to write"):
            dump_latin_set([])
        path = tmp_path / "set.txt"
        with pytest.raises(ValueError, match="no Latin squares to write"):
            write_latin_set([], path)
        assert list(tmp_path.iterdir()) == []
        write_latin_set([L2], path)
        with pytest.raises(ValueError, match="no Latin squares to write"):
            write_latin_set([], path)
        assert [p.name for p in tmp_path.iterdir()] == ["set.txt"]
        assert path.read_text() == dump_latin_set([L2])

    def test_mixed_orders_are_refused(self, tmp_path):
        # its text would hold squares of two orders, which parse_latin_set refuses
        mixed = classical_lsesc_set(2) + classical_lsesc_set(3)
        with pytest.raises(ValueError, match="squares of orders 2 and 3 in one family"):
            dump_latin_set(mixed)
        path = tmp_path / "set.txt"
        with pytest.raises(ValueError, match="squares of orders 2 and 3 in one family"):
            write_latin_set(mixed, path)
        assert list(tmp_path.iterdir()) == []

    def test_parse_errors(self):
        with pytest.raises(FormatError):
            parse_latin_set("Q 2\n1 2\n2 1\n")
        with pytest.raises(FormatError):
            parse_latin_set("L 2\n1 2\n")
        with pytest.raises(FormatError):
            parse_latin_set("L 2\n1 2\n2 x\n")
        with pytest.raises(FormatError):
            parse_latin_set("\n\n")
        with pytest.raises(FormatError):
            parse_latin_set("L 2\n1 1\n2 2\n")  # not Latin
        with pytest.raises(FormatError, match="squares of orders 2 and 1 in one family"):
            parse_latin_set("L 2\n1 2\n2 1\n\nL 1\n1\n")

    def test_crlf_family_round_trip(self):
        squares = classical_lsesc_set(16)
        text = dump_latin_set(squares)
        assert parse_latin_set(text.replace("\n", "\r\n")) == squares
        assert parse_latin_set(text.replace("\n", "\r")) == squares

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("separator", [" ", "\t", " \t "])
    def test_whitespace_separator_lines(self, end, separator):
        squares = classical_lsesc_set(4)
        text = dump_latin_set(squares).replace("\n\n", f"\n{separator}\n")
        assert parse_latin_set(text.replace("\n", end)) == squares

    def test_whitespace_line_inside_square_is_a_separator(self):
        with pytest.raises(FormatError, match="order 2 needs 2 rows, got 1"):
            parse_latin_set("L 2\n1 2\n \n2 1\n")

    def test_failed_write_keeps_old_family(self, tmp_path, monkeypatch):
        path = tmp_path / "set.txt"
        write_latin_set(classical_lsesc_set(3), path)
        old = path.read_bytes()
        real = Path.write_text

        def half_then_fail(self, text, *args, **kwargs):
            real(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(Path, "write_text", half_then_fail)
        with pytest.raises(OSError) as failure:
            write_latin_set(classical_lsesc_set(4), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["set.txt"]
        assert f"'{path}'" in str(failure.value)

    def test_write_replaces_whole_file_with_umask_mode(self, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
        path = tmp_path / "set.txt"
        path.write_text("a longer stale family than the squares themselves " * 20)
        # a mode a new file would not get, which a write in place would keep
        path.chmod(mode ^ 0o004)
        write_latin_set([L2], path)
        assert path.read_text() == dump_latin_set([L2])
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert [p.name for p in tmp_path.iterdir()] == ["set.txt"]

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            LatinSquare(0, ())

    def test_square_entries_must_be_ints(self):
        with pytest.raises(ValueError):
            LatinSquare(2, ((1, 2.0), (2, 1)))
        with pytest.raises(ValueError):
            LatinSquare(2, ((True, 2), (2, True)))
        with pytest.raises(ValueError):
            LatinSquare(2, (("1", "2"), ("2", "1")))
        with pytest.raises(ValueError, match="ints"):
            LatinSquare(3, ((1, 2, 3), (2, 3, 1), (3, 1, False)))
        with pytest.raises(ValueError, match="ints"):
            LatinSquare(2, ((1, 2), (2, 1.0)))


def test_all_latin_squares_counts():
    assert sum(1 for _ in all_latin_squares(1)) == 1
    assert sum(1 for _ in all_latin_squares(2)) == 2
    assert sum(1 for _ in all_latin_squares(3)) == 12
    assert sum(1 for _ in all_latin_squares(4)) == 576


def test_classical_tensor_set_matches_squares():
    tensors = classical_tensor_set(3)
    squares = classical_lsesc_set(3)
    assert [reconstruct(t) for t in tensors] == squares
