import os
import stat

import pytest
from hypothesis import given, strategies as st

from bhmat import butson
from bhmat.butson import (
    ButsonMatrix,
    core,
    dephase,
    dump_matrix,
    extract_t,
    find_c1_pairs,
    find_c2_cells,
    fourier,
    matrix_digest,
    parse_matrix,
    permute_columns,
    read_matrix,
    verify,
    write_matrix,
)
from bhmat.errors import FormatError, PlanError
from bhmat.scarpis import check_t_properties

from golden import EXAMPLE2_PSI_F6, EXAMPLE2_T
from oracles import check_exponents_oracle, dot_counts, exponent_counts, sum_equals


class TestFourier:
    def test_order_cap(self, monkeypatch):
        assert butson.FOURIER_ORDER_CAP == 2**11
        monkeypatch.setattr(butson, "FOURIER_ORDER_CAP", 4)
        with pytest.raises(PlanError, match="order 5 has 25 cells; the order cap is 4"):
            fourier(5)
        assert fourier(4).n == 4

    def test_order3(self):
        assert fourier(3).exponents == ((0, 0, 0), (0, 1, 2), (0, 2, 1))

    def test_order2_is_hadamard(self):
        assert fourier(2).exponents == ((0, 0), (0, 1))

    def test_order6_sign_row(self):
        assert fourier(6).exponents[3] == (0, 3, 0, 3, 0, 3)

    def test_order1(self):
        assert fourier(1).exponents == ((0,),)

    @pytest.mark.parametrize("n", [2.5, 3.0, True])
    def test_rejects_non_int_order(self, n):
        with pytest.raises(ValueError, match="order must be an int"):
            fourier(n)


class TestVerify:
    @pytest.mark.parametrize("n", range(2, 65))
    def test_fourier_orthogonal(self, n):
        assert verify(fourier(n)).ok

    def test_perturbation_breaks_orthogonality(self):
        rows = [list(row) for row in fourier(3).exponents]
        rows[1][2] = (rows[1][2] + 1) % 3
        report = verify(ButsonMatrix(3, 3, tuple(tuple(r) for r in rows)))
        assert not report.ok
        assert report.bad_row_pair == (1, 2)
        assert report.bad_col_pair == (1, 3)

    def test_example2_output_is_butson(self):
        assert verify(ButsonMatrix(6, 12, EXAMPLE2_PSI_F6)).ok

    def test_root_order_cap(self, monkeypatch):
        assert butson.FOURIER_ORDER_CAP <= butson.ROOT_ORDER_CAP == 2**12

        def refuse(*args):
            raise AssertionError("layout built past the cap")

        monkeypatch.setattr(butson, "_layout", refuse)
        for m in (2**12 + 1, 10**6):
            b = ButsonMatrix(m, 2, ((0, 0), (0, m // 2)))
            with pytest.raises(PlanError, match=f"root order {m} is past the root order cap 4096"):
                verify(b)

    def test_root_order_at_the_cap_is_verified(self, monkeypatch):
        monkeypatch.setattr(butson, "ROOT_ORDER_CAP", 6)
        assert verify(fourier(6)).ok
        with pytest.raises(PlanError, match="root order 7"):
            verify(fourier(7))


class TestDephase:
    def test_fourier_already_dephased(self):
        for n in (2, 3, 4, 6):
            assert dephase(fourier(n)) == fourier(n)

    def test_idempotent_on_scaled_matrix(self):
        scaled = _scaled_fourier(5, seed=3)
        assert dephase(dephase(scaled)) == dephase(scaled)

    @pytest.mark.parametrize("n", [4, 7, 12, 24])
    def test_preserves_verification(self, n):
        scaled = _scaled_fourier(n, seed=11 + n)
        assert verify(scaled).ok
        normalised = dephase(scaled)
        assert verify(normalised).ok
        assert all(v == 0 for v in normalised.exponents[0])
        assert all(row[0] == 0 for row in normalised.exponents)


def _scaled_fourier(n, seed):
    """Fourier matrix with random row and column scalings; still a Butson matrix."""
    import random

    rng = random.Random(seed)
    rows = [list(row) for row in fourier(n).exponents]
    for i in range(n):
        shift = rng.randrange(n)
        rows[i] = [(v + shift) % n for v in rows[i]]
    for j in range(n):
        shift = rng.randrange(n)
        for i in range(n):
            rows[i][j] = (rows[i][j] + shift) % n
    return ButsonMatrix(n, n, tuple(tuple(r) for r in rows))


class TestCore:
    def test_core_of_fourier3(self):
        assert core(fourier(3)) == ((1, 2), (2, 1))

    @pytest.mark.parametrize("n", range(2, 25))
    def test_rows_sum_to_minus_one(self, n):
        for row in core(fourier(n)):
            assert sum_equals(exponent_counts(row, n), -1)

    @pytest.mark.parametrize("n", range(3, 25))
    def test_row_and_column_dots_are_minus_one(self, n):
        rows = core(fourier(n))
        cols = list(zip(*rows))
        for vectors in (rows, cols):
            for i in range(len(vectors)):
                for j in range(i + 1, len(vectors)):
                    assert sum_equals(dot_counts(vectors[i], vectors[j], n), -1)


class TestC1:
    def test_fourier6(self):
        assert find_c1_pairs(fourier(6)) == [(1, 4), (2, 5), (3, 6)]

    def test_fourier4(self):
        assert find_c1_pairs(fourier(4)) == [(1, 3), (2, 4)]

    def test_no_partner_rows(self):
        # orthogonal 2x2 over the 4th roots with no alternating partner
        b = ButsonMatrix(4, 2, ((0, 1), (1, 0)))
        assert verify(b).ok
        assert find_c1_pairs(b) == []

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            find_c1_pairs(fourier(5))

    @pytest.mark.parametrize("n", range(2, 33, 2))
    def test_fourier_pairs_are_exactly_half_shifts(self, n):
        expected = [(i, i + n // 2) for i in range(1, n // 2 + 1)]
        assert find_c1_pairs(fourier(n)) == expected


class TestC2:
    def test_fourier6_single_cell(self):
        assert find_c2_cells(fourier(6)) == [(4, 4)]

    def test_fourier8_empty(self):
        assert find_c2_cells(fourier(8)) == []

    def test_dephased_hadamard_nonempty(self):
        h4 = ButsonMatrix(2, 4, ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1), (0, 1, 1, 0)))
        cells = find_c2_cells(h4)
        assert cells
        assert all(h4.exponents[i - 1][j - 1] == 1 for i, j in cells)

    def test_odd_root_order_rejected(self):
        with pytest.raises(ValueError):
            find_c2_cells(fourier(3))

    @pytest.mark.parametrize("d", range(1, 17))
    def test_presence_iff_d_odd(self, d):
        cells = find_c2_cells(fourier(2 * d))
        assert bool(cells) == (d % 2 == 1)


class TestExtractT:
    def test_fourier6_sub_matrix(self):
        ext = extract_t(fourier(6), (4, 4))
        assert ext.t == EXAMPLE2_T

    def test_fourier6_permutations(self):
        f6 = fourier(6)
        ext = extract_t(f6, (4, 4))
        assert ext.row_perm == (1, 4, 3, 5, 2, 6)
        assert ext.col_perm == (1, 4, 3, 5, 2, 6)
        permuted = tuple(
            tuple(f6.exponents[r - 1][c - 1] for c in ext.col_perm) for r in ext.row_perm
        )
        assert permuted[1][:2] == (0, 3)
        assert ext.t == tuple(row[2:] for row in permuted[2:])

    @pytest.mark.parametrize("cell", [(4.0, 4.0), (4, 4.0)])
    def test_non_int_cell_is_not_a_witness(self, cell):
        with pytest.raises(PlanError, match="is not a C2 witness"):
            extract_t(fourier(6), cell)

    def test_split_views(self):
        ext = extract_t(fourier(6), (4, 4))
        assert ext.split == 2
        assert ext.c_rows == EXAMPLE2_T[:2]
        assert ext.d_rows == EXAMPLE2_T[2:]
        assert tuple(row[: ext.split] for row in ext.t) == tuple(row[:2] for row in EXAMPLE2_T)
        assert tuple(row[ext.split :] for row in ext.t) == tuple(row[2:] for row in EXAMPLE2_T)

    @pytest.mark.parametrize("d", [1, 3, 5, 7, 9, 11])
    def test_t_properties_hold(self, d):
        b = fourier(2 * d)
        cell = find_c2_cells(b)[0]
        check_t_properties(extract_t(b, cell), b.m)

    def test_invalid_cell(self):
        with pytest.raises(PlanError):
            extract_t(fourier(6), (1, 1))


class TestPermuteColumns:
    def test_round_trip(self):
        b = fourier(5)
        order = [3, 1, 2, 5, 4]
        inverse = [order.index(k) + 1 for k in range(1, 6)]
        assert permute_columns(permute_columns(b, order), inverse) == b

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            permute_columns(fourier(3), [1, 1, 2])


class TestFiles:
    def test_text_round_trip(self, tmp_path):
        b = fourier(6)
        path = tmp_path / "f6.txt"
        write_matrix(b, path, fmt="text")
        again, provenance = read_matrix(path)
        assert again == b and provenance is None
        write_matrix(again, tmp_path / "again.txt", fmt="text")
        assert (tmp_path / "f6.txt").read_bytes() == (tmp_path / "again.txt").read_bytes()

    def test_json_round_trip_with_provenance(self, tmp_path):
        b = fourier(4)
        path = tmp_path / "f4.json"
        write_matrix(b, path, provenance={"construction": "fourier", "plan": {"n": 4}})
        again, provenance = read_matrix(path)
        assert again == b
        assert provenance == {"construction": "fourier", "plan": {"n": 4}}

    def test_write_replaces_whole_file_with_umask_mode(self, tmp_path):
        path = tmp_path / "f5.json"
        path.write_text("a longer stale document than the matrix itself " * 20)
        write_matrix(fourier(5), path)
        assert path.read_text() == dump_matrix(fourier(5))
        umask = os.umask(0)
        os.umask(umask)
        fresh = tmp_path / "fresh.txt"
        write_matrix(fourier(3), fresh, fmt="text")
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f5.json", "fresh.txt"]

    def test_dump_is_deterministic(self):
        b = fourier(5)
        assert dump_matrix(b) == dump_matrix(b)
        assert dump_matrix(b, fmt="text") == dump_matrix(b, fmt="text")

    def test_digest_is_format_independent(self, tmp_path):
        b = fourier(7)
        write_matrix(b, tmp_path / "a.json", fmt="json")
        write_matrix(b, tmp_path / "b.txt", fmt="text")
        a, _ = read_matrix(tmp_path / "a.json")
        c, _ = read_matrix(tmp_path / "b.txt")
        assert matrix_digest(a) == matrix_digest(c) == matrix_digest(b)

    def test_parse_errors(self):
        with pytest.raises(FormatError):
            parse_matrix("")
        with pytest.raises(FormatError):
            parse_matrix("XX 3 3\n0 0 0\n")
        with pytest.raises(FormatError):
            parse_matrix("{not json")
        with pytest.raises(FormatError):
            parse_matrix('{"m": 3}')
        with pytest.raises(FormatError):
            parse_matrix("BH 3 3\n0 0\n0 0\n0 0\n")

    def test_repeated_json_key(self):
        with pytest.raises(FormatError, match="repeated key 'm'"):
            parse_matrix('{"m": 4, "n": 2, "exponents": [[0, 0], [0, 2]], "m": 8}')
        text = dump_matrix(fourier(2), provenance={"plan": {"n": 2}})
        with pytest.raises(FormatError, match="repeated key 'n'"):
            parse_matrix(text.replace('{"n":2}', '{"n":2,"n":3}'))


class TestValidation:
    def test_rejects_out_of_range_exponent(self):
        with pytest.raises(ValueError):
            ButsonMatrix(3, 2, ((0, 3), (0, 0)))

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            ButsonMatrix(3, 2, ((0, 0), (0,)))


@given(st.integers(2, 12))
def test_self_column_dot_is_order(n):
    b = fourier(n)
    for j in range(n):
        col = b.column(j)
        assert sum_equals(dot_counts(col, col, b.m), n)


# Cells that are not valid exponents: bools and floats equal to valid
# ints, negative and out-of-range ints, and values that are not numbers.
ODD_CELLS = st.one_of(
    st.booleans(),
    st.sampled_from([0.0, 1.0, 2.5, float("nan"), None, "1", (0,), [0]]),
    st.integers(-3, 12),
)


class TestValidationAgainstOracle:
    """ButsonMatrix's set-based exponent check names the same first
    offender, with the same message, as the cell-by-cell scan."""

    @given(st.data())
    def test_first_offender(self, data):
        m, n = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 5))
        valid = st.integers(0, m - 1)
        cells = st.one_of(valid, ODD_CELLS) if data.draw(st.booleans()) else valid
        rows = tuple(tuple(data.draw(cells) for _ in range(n)) for _ in range(n))
        try:
            check_exponents_oracle(rows, m)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                ButsonMatrix(m, n, rows)
            assert str(info.value) == str(exc)
        else:
            assert ButsonMatrix(m, n, rows).exponents == rows

    @pytest.mark.parametrize(
        "cell, message",
        [
            (True, "exponent True is not an int"),
            (1.0, "exponent 1.0 is not an int"),
            (-1, "exponent -1 out of range [0, 3)"),
            (3, "exponent 3 out of range [0, 3)"),
            ([0], "exponent [0] is not an int"),
        ],
    )
    def test_offender_after_its_equal_int(self, cell, message):
        # an int equal to the offender comes first, so a set of values
        # alone would merge the two
        rows = ((0, 1, 2), (2, cell, 1), (1, 2, 0))
        with pytest.raises(ValueError) as info:
            ButsonMatrix(3, 3, rows)
        assert str(info.value) == message
