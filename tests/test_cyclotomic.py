import importlib
import math
import random

import pytest
from hypothesis import given, strategies as st

import bhmat
from oracles import (
    ExponentCountVector,
    IntPolynomial,
    approx_sum,
    cyclotomic_poly,
    dot_counts,
    exponent_counts,
    poly_mul,
    sum_equals,
)


def naive_poly_mul(a, b):
    """Independent convolution, used only to derive expected values."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def naive_poly_div(num, den):
    """Independent long division by a monic divisor; returns (quotient, remainder)."""
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for top in range(len(num) - 1, len(den) - 2, -1):
        f = num[top]
        if f == 0:
            continue
        shift = top - (len(den) - 1)
        quot[shift] = f
        for k, c in enumerate(den):
            num[shift + k] -= f * c
    return quot, num[: len(den) - 1]


class TestCyclotomicPoly:
    def test_base_case(self):
        assert cyclotomic_poly(1).coefficients == (-1, 1)

    def test_phi4_against_division_oracle(self):
        # (x^4 - 1) / ((x - 1)(x + 1)) computed independently
        den = naive_poly_mul([-1, 1], [1, 1])
        quot, rem = naive_poly_div([-1, 0, 0, 0, 1], den)
        assert rem == [0, 0]
        assert quot == [1, 0, 1]
        assert cyclotomic_poly(4).coefficients == (1, 0, 1)

    def test_phi6_against_division_oracle(self):
        den = naive_poly_mul(naive_poly_mul([-1, 1], [1, 1]), [1, 1, 1])
        quot, rem = naive_poly_div([-1, 0, 0, 0, 0, 0, 1], den)
        assert all(r == 0 for r in rem)
        assert quot == [1, -1, 1]
        assert cyclotomic_poly(6).coefficients == (1, -1, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic_poly(0)

    def test_divisor_product_identity_up_to_64(self):
        for m in range(1, 65):
            product = IntPolynomial((1,))
            for d in range(1, m + 1):
                if m % d == 0:
                    product = poly_mul(product, cyclotomic_poly(d))
            expected = IntPolynomial((-1,) + (0,) * (m - 1) + (1,))
            assert product == expected, f"divisor product broken at m={m}"


class TestDotCounts:
    def test_self_product(self):
        row = (0, 3, 1, 4, 2)
        c = dot_counts(row, row, 5)
        assert c.counts == (5, 0, 0, 0, 0)

    def test_against_all_ones(self):
        c = dot_counts((0, 1, 2), (0, 0, 0), 3)
        assert c.counts == (1, 1, 1)

    def test_fourier3_rows_2_and_3(self):
        # differences (0-0, 1-2, 2-1) mod 3, worked by hand
        c = dot_counts((0, 1, 2), (0, 2, 1), 3)
        assert c.counts == (1, 1, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dot_counts((0, 1), (0,), 3)

    def test_exponent_out_of_range(self):
        with pytest.raises(ValueError):
            dot_counts((0, 3), (0, 0), 3)


class TestSumEquals:
    def test_full_orbit_is_zero(self):
        assert sum_equals(ExponentCountVector(3, (1, 1, 1)), 0)

    def test_two_primitive_cube_roots(self):
        c = ExponentCountVector(3, (0, 1, 1))
        re, im = approx_sum(c)
        assert abs(re - (-1)) < 1e-12 and abs(im) < 1e-12
        assert sum_equals(c, -1)
        assert not sum_equals(c, 0)

    def test_cancelling_sixth_roots(self):
        c = ExponentCountVector(6, (0, 2, 0, 0, 2, 0))
        re, im = approx_sum(c)
        assert abs(re) < 1e-12 and abs(im) < 1e-12
        assert sum_equals(c, 0)

    def test_m_equals_one(self):
        assert sum_equals(ExponentCountVector(1, (4,)), 4)
        assert not sum_equals(ExponentCountVector(1, (4,)), 3)


class TestApproxSum:
    def test_all_in_first_position(self):
        assert approx_sum(ExponentCountVector(5, (7, 0, 0, 0, 0))) == (7.0, 0.0)

    def test_i_plus_minus_i(self):
        re, im = approx_sum(ExponentCountVector(4, (0, 1, 0, 1)))
        assert abs(re) < 1e-12 and abs(im) < 1e-12

    def test_cube_root_orbit(self):
        re, im = approx_sum(ExponentCountVector(3, (1, 1, 1)))
        assert abs(re) < 1e-12 and abs(im) < 1e-12


def test_reference_is_not_in_the_package():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("bhmat.cyclotomic")
    removed = (
        "ExponentCountVector",
        "IntPolynomial",
        "conjugate_exponent",
        "cyclotomic_poly",
        "dot_counts",
        "exponent_counts",
        "negate_exponent",
        "sum_equals",
    )
    assert [name for name in removed if hasattr(bhmat, name)] == []


def _random_count_vector(rng, max_m=24, max_total=32):
    m = rng.randint(1, max_m)
    counts = [0] * m
    for _ in range(rng.randint(0, max_total)):
        counts[rng.randrange(m)] += 1
    return ExponentCountVector(m, tuple(counts))


def test_exact_test_agrees_with_float_oracle():
    rng = random.Random(20240811)
    for _ in range(10_000):
        c = _random_count_vector(rng)
        re, im = approx_sum(c)
        for v in (-2, -1, 0, 1):
            float_says = math.hypot(re - v, im) < 1e-9
            assert sum_equals(c, v) == float_says, (c, v)


@given(st.integers(1, 24), st.lists(st.integers(0, 23), min_size=1, max_size=32))
def test_self_dot_equals_length(m, raw):
    row = tuple(v % m for v in raw)
    assert sum_equals(dot_counts(row, row, m), len(row))


@given(st.integers(1, 20), st.data())
def test_dot_counts_total_is_row_length(m, data):
    n = data.draw(st.integers(1, 16))
    a = tuple(data.draw(st.integers(0, m - 1)) for _ in range(n))
    b = tuple(data.draw(st.integers(0, m - 1)) for _ in range(n))
    assert dot_counts(a, b, m).total == n


def test_exponent_counts_matches_manual():
    c = exponent_counts((4, 2, 2, 4), 6)
    assert c.counts == (0, 0, 2, 0, 2, 0)
    with pytest.raises(ValueError):
        exponent_counts((6,), 6)


def test_count_vector_validation():
    with pytest.raises(ValueError):
        ExponentCountVector(3, (1, 1))
    with pytest.raises(ValueError):
        ExponentCountVector(3, (1, -1, 0))
    with pytest.raises(ValueError):
        ExponentCountVector(0, ())
