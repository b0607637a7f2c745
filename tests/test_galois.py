import pytest

from bhmat.latin import CLASSICAL_ORDER_CAP, enumerate_elements, make_field, prime_power
from bhmat.latin import classical_lsesc_set

from oracles import IntPolynomial, element_value, field_add, field_mul, is_irreducible_oracle

PRIME_POWERS_UP_TO_64 = [
    q for q in range(2, 65) if prime_power(q) is not None
]
PRIME_POWERS_UP_TO_256 = [q for q in range(2, 257) if prime_power(q) is not None]


def test_prime_power_decomposition():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_is_prime_small():
    assert [p for p in range(20) if prime_power(p) == (p, 1)] == [2, 3, 5, 7, 11, 13, 17, 19]


@pytest.mark.parametrize("q", [2.5, 7.5, 4.0, 7.0, True])
def test_non_int_is_neither_prime_nor_prime_power(q):
    assert prime_power(q) is None
    with pytest.raises(ValueError, match=f"{q} is not a prime power"):
        classical_lsesc_set(q)
    for p, r in [(q, 1), (2, q)]:
        with pytest.raises(ValueError):
            make_field(p, r)


class TestMakeField:
    def test_gf2_modulus_is_x(self):
        assert make_field(2, 1).modulus == (0, 1)

    def test_gf4_modulus(self):
        # x^2 + x + 1 is the only irreducible monic quadratic over F_2
        assert make_field(2, 2).modulus == (1, 1, 1)

    def test_gf3_elements(self):
        field = make_field(3, 1)
        assert enumerate_elements(field) == [(0,), (1,), (2,)]

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            make_field(4, 1)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            make_field(2, 21)

    @pytest.mark.parametrize(
        "p, r", [(2, 10**9), (3, 10**8), (257, 1), (2, 9), ((10**9 + 7) * (10**9 + 9), 1)]
    )
    def test_past_the_cap_fails_fast(self, p, r):
        # before p^r is computed or p, prime or not, is trial-divided
        with pytest.raises(ValueError, match=f"exceeds cap {CLASSICAL_ORDER_CAP}$"):
            make_field(p, r)

    @pytest.mark.parametrize("q", PRIME_POWERS_UP_TO_256)
    def test_modulus_is_the_first_irreducible(self, q):
        p, r = prime_power(q)
        candidates = (
            IntPolynomial(tuple(v // p**k % p for k in range(r)) + (1,)) for v in range(q)
        )
        first = next(f for f in candidates if is_irreducible_oracle(f, p))
        assert make_field(p, r).modulus == first.coefficients


class TestEnumeration:
    def test_gf2(self):
        assert enumerate_elements(make_field(2, 1)) == [(0,), (1,)]

    def test_gf4_digit_order(self):
        assert enumerate_elements(make_field(2, 2)) == [(0, 0), (1, 0), (0, 1), (1, 1)]

    @pytest.mark.parametrize("q", PRIME_POWERS_UP_TO_64)
    def test_distinct_with_zero_first(self, q):
        p, r = prime_power(q)
        field = make_field(p, r)
        elements = enumerate_elements(field)
        assert len(set(elements)) == q
        assert elements[0] == (0,) * r
        assert [element_value(field, e) for e in elements] == list(range(q))


class TestArithmetic:
    def test_add_in_gf2(self):
        field = make_field(2, 1)
        assert field_add(field, (1,), (1,)) == (0,)

    def test_x_squared_in_gf4(self):
        field = make_field(2, 2)
        x = (0, 1)
        assert field_mul(field, x, x) == (1, 1)

    def test_multiply_by_zero(self):
        field = make_field(3, 2)
        zero = (0, 0)
        for a in enumerate_elements(field):
            assert field_mul(field, a, zero) == zero


@pytest.mark.parametrize("q", PRIME_POWERS_UP_TO_64)
def test_group_laws_exhaustive(q):
    """Associativity, identities and inverses for both operations, all of GF(q)."""
    p, r = prime_power(q)
    field = make_field(p, r)
    elements = enumerate_elements(field)
    index = {e: i for i, e in enumerate(elements)}
    add = [[index[field_add(field, a, b)] for b in elements] for a in elements]
    mul = [[index[field_mul(field, a, b)] for b in elements] for a in elements]

    zero, one = 0, index[(1,) + (0,) * (r - 1)]
    rng = range(q)
    for a in rng:
        assert add[a][zero] == a
        assert mul[a][one] == a
        assert mul[a][zero] == zero
        assert zero in add[a]  # additive inverse exists
        if a != zero:
            assert one in mul[a]  # multiplicative inverse exists
    for a in rng:
        add_a, mul_a = add[a], mul[a]
        for b in rng:
            ab_add, ab_mul = add_a[b], mul_a[b]
            add_row_b, mul_row_b = add[b], mul[b]
            for c in rng:
                assert add[ab_add][c] == add_a[add_row_b[c]]
                assert mul[ab_mul][c] == mul_a[mul_row_b[c]]


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_commutativity_and_distributivity(q):
    p, r = prime_power(q)
    field = make_field(p, r)
    elements = enumerate_elements(field)
    for a in elements:
        for b in elements:
            assert field_add(field, a, b) == field_add(field, b, a)
            assert field_mul(field, a, b) == field_mul(field, b, a)
            for c in elements:
                left = field_mul(field, a, field_add(field, b, c))
                right = field_add(
                    field, field_mul(field, a, b), field_mul(field, a, c)
                )
                assert left == right
