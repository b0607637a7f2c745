"""psi's T check through verify's kernel against the pair-by-pair oracle.

check_t_properties borders T = [C; D] with two rows and two columns of +-1
and asks butson._first_non_orthogonal for the first failing row pair;
check_t_oracle tests each of the four identities with sum_equals.  They
must reject exactly the same extractions.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, strategies as st

from bhmat.butson import (
    ButsonMatrix,
    TExtraction,
    extract_t,
    find_c2_cells,
    fourier,
    verify,
)
from bhmat.errors import PlanError
from bhmat.scarpis import check_t_properties

from oracles import check_t_oracle


def _rejects(check, ext, m):
    try:
        check(ext, m)
    except PlanError:
        return True
    return False


def _agree(ext, m):
    """Whether both checks reject ext; fails the test if they disagree."""
    rejected = _rejects(check_t_properties, ext, m)
    assert rejected == _rejects(check_t_oracle, ext, m)
    return rejected


def _negated(b, rows):
    """b with the given 0-based rows multiplied by -1."""
    half = b.m // 2
    return ButsonMatrix(
        b.m,
        b.n,
        tuple(
            tuple((v + half) % b.m for v in row) if i in rows else row
            for i, row in enumerate(b.exponents)
        ),
    )


def _fourier_t(n):
    f = fourier(n)
    return extract_t(f, find_c2_cells(f)[0])


def _with_rows(ext, rows):
    """ext with T's rows replaced: rows maps a 0-based row index to a new row."""
    t = tuple(rows.get(i, row) for i, row in enumerate(ext.t))
    return dataclasses.replace(ext, t=t)


def _swapped(row, a, b):
    row = list(row)
    row[a], row[b] = row[b], row[a]
    return tuple(row)


def test_every_fourier_c2_cell_passes_both():
    checked = 0
    for n in range(6, 35, 2):
        f = fourier(n)
        for cell in find_c2_cells(f):
            assert not _agree(extract_t(f, cell), n)
            checked += 1
    # F_n has one C2 cell when n = 2 mod 4 and none when 4 divides n
    assert checked == 8


@pytest.mark.parametrize("n, failures", [(6, 4), (10, 16)])
def test_balanced_row_pair_negations(n, failures):
    rejected = 0
    for pair in itertools.combinations(range(n), 2):
        b = _negated(fourier(n), pair)
        assert verify(b).ok
        for cell in find_c2_cells(b):
            try:
                ext = extract_t(b, cell)
            except PlanError:
                continue  # unbalanced partition: the T check is never reached
            rejected += _agree(ext, n)
    assert rejected == failures


@given(st.sampled_from([6, 10, 14, 18]), st.data())
def test_single_entry_corruption(n, data):
    ext = _fourier_t(n)
    size = 2 * ext.split
    i = data.draw(st.integers(0, size - 1), label="row")
    j = data.draw(st.integers(0, size - 1), label="column")
    old = ext.t[i][j]
    new = data.draw(st.integers(0, n - 1).filter(lambda e: e != old), label="value")
    row = ext.t[i][:j] + (new,) + ext.t[i][j + 1 :]
    # the half sum of row i moves by zeta^new - zeta^old != 0
    assert _agree(_with_rows(ext, {i: row}), n)


@given(st.sampled_from([6, 10, 14, 18]), st.data())
def test_swap_within_a_half(n, data):
    # a swap inside one half keeps every half sum, so only the dot
    # products can fail
    ext = _fourier_t(n)
    s = ext.split
    i = data.draw(st.integers(0, 2 * s - 1), label="row")
    lo = data.draw(st.sampled_from([0, s]), label="half")
    a, b = data.draw(
        st.lists(st.integers(lo, lo + s - 1), min_size=2, max_size=2, unique=True),
        label="positions",
    )
    _agree(_with_rows(ext, {i: _swapped(ext.t[i], a, b)}), n)


T6 = _fourier_t(6)


@pytest.mark.parametrize(
    "ext, message",
    [
        (
            extract_t(_negated(fourier(6), (1, 2)), (4, 4)),
            "row 1 of C lacks its half sums",
        ),
        (
            _with_rows(T6, {3: tuple((v + 1) % 6 for v in T6.t[3])}),
            "row 2 of D lacks its half sums",
        ),
        (_with_rows(T6, {1: T6.t[0]}), "rows 1,2 of C do not dot to -2"),
        (_with_rows(T6, {3: T6.t[2]}), "rows 1,2 of D do not dot to -2"),
        (
            _with_rows(T6, {2: _swapped(T6.t[2], 0, 1)}),
            "row 1 of C vs row 1 of D is not orthogonal",
        ),
    ],
    ids=["c-half-sums", "d-half-sums", "c-dots", "d-dots", "c-vs-d"],
)
def test_failing_pair_names_its_rows(ext, message):
    with pytest.raises(PlanError, match=message):
        check_t_properties(ext, 6)
    with pytest.raises(PlanError):
        check_t_oracle(ext, 6)


def test_odd_root_order_is_a_value_error():
    # a +-1 border needs m/2; PlanError is a ValueError too, so pin the type
    ext = TExtraction(t=((0, 0), (0, 1)), split=1, row_perm=(), col_perm=())
    with pytest.raises(ValueError, match="even root order") as caught:
        check_t_properties(ext, 3)
    assert caught.type is ValueError
