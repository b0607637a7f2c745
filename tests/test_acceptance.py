"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is exact (integer arithmetic) unless a tolerance is
stated inline.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

from bhmat.butson import (
    ButsonMatrix,
    dephase,
    extract_t,
    find_c1_pairs,
    find_c2_cells,
    fourier,
    verify,
)
from bhmat.latin import (
    are_lsesc,
    are_mols,
    classical_lsesc_set,
    conjugate_lsesc_mols,
)
from bhmat.scarpis import PhiPlan, PsiPlan, halving_family, phi, psi

from golden import EXAMPLE1_DEPHASED, EXAMPLE2_PSI_F6, EXAMPLE2_T
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


@contextmanager
def criterion(number, label, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {label}")
        raise
    elapsed = time.monotonic() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (budget {budget}s)"
    print(f"criterion {number}: PASS - {label} ({elapsed:.2f}s)")


def test_criterion_1_example1_golden():
    with criterion(1, "phi(F_3) dephased equals the published order-6 matrix", budget=1.0):
        out = phi(PhiPlan(h=fourier(3), tensors=classical_lsesc_set(2)))
        assert dephase(out).exponents == EXAMPLE1_DEPHASED


def test_criterion_2_example2_golden():
    with criterion(2, "psi(F_6) equals the published order-12 matrix and its T", budget=1.0):
        assert extract_t(fourier(6), (4, 4)).t == EXAMPLE2_T
        plan = PsiPlan(h=fourier(6), tensors=classical_lsesc_set(2), c1_pair=(1, 4), c2_cell=(4, 4))
        assert psi(plan).exponents == EXAMPLE2_PSI_F6


def test_criterion_3_phi_property_suite():
    with criterion(3, "phi verifies for n in {3,4,5,8,9} and every deleted row", budget=30.0):
        for n in (3, 4, 5, 8, 9):
            family = classical_lsesc_set(n - 1)
            for t in range(1, n + 1):
                out = phi(PhiPlan(h=fourier(n), tensors=family, deleted_row=t))
                assert (out.m, out.n) == (n, n * (n - 1))
                assert verify(out).ok


def test_criterion_4_halving_family():
    with criterion(4, "halving_family yields BH(2(2^r+1), 2^(r+1)(2^r+1)) for r in {1,2,3}", budget=300.0):
        for r, (m, n) in ((1, (6, 12)), (2, (10, 40)), (3, (18, 144))):
            out = halving_family(r)
            assert (out.m, out.n) == (m, n)
            assert verify(out).ok


def _sylvester(k):
    h = ((0,),)
    for _ in range(k):
        top = tuple(row + row for row in h)
        bottom = tuple(row + tuple((v + 1) % 2 for v in row) for row in h)
        h = top + bottom
    return ButsonMatrix(2, 2**k, h)


def test_criterion_5_hadamard_specialisations():
    with criterion(5, "order-4 pair -> order-12 Hadamard; order-8 inputs -> order-24", budget=5.0):
        g4 = _sylvester(2)
        h4 = ButsonMatrix(2, 4, tuple(g4.exponents[i] for i in (0, 2, 3, 1)))
        assert g4 != h4
        h12 = phi(PhiPlan(h=h4, tensors=classical_lsesc_set(3), g=g4))
        assert (h12.m, h12.n) == (2, 12) and verify(h12).ok

        g8 = _sylvester(3)
        h8 = ButsonMatrix(2, 8, tuple(g8.exponents[i] for i in (0, 4, 1, 5, 2, 6, 3, 7)))
        h24 = psi(PsiPlan(h=h8, tensors=classical_lsesc_set(3), g=g8))
        assert (h24.m, h24.n) == (2, 24) and verify(h24).ok


def test_criterion_6_t_extraction_invariants():
    with criterion(6, "T = [C; D] satisfies the four exact properties for F_2d, d odd <= 9"):
        for d in (1, 3, 5, 7, 9):
            b = fourier(2 * d)
            ext = extract_t(b, find_c2_cells(b)[0])
            m, split = b.m, ext.split
            c_rows, d_rows = ext.c_rows, ext.d_rows
            for rows in (c_rows, d_rows):
                for u, v in itertools.combinations(rows, 2):
                    assert sum_equals(dot_counts(u, v, m), -2)
            for u in c_rows:
                for v in d_rows:
                    assert sum_equals(dot_counts(u, v, m), 0)
            for u in c_rows:
                assert sum_equals(exponent_counts(u[:split], m), -1)
                assert sum_equals(exponent_counts(u[split:], m), -1)
            for u in d_rows:
                assert sum_equals(exponent_counts(u[:split], m), -1)
                assert sum_equals(exponent_counts(u[split:], m), 1)


def test_criterion_7_condition_scan():
    with criterion(7, "C1 pairs are the half-shift pairs; C2 present iff n/2 odd"):
        for n in range(2, 33, 2):
            expected = [(i, i + n // 2) for i in range(1, n // 2 + 1)]
            assert find_c1_pairs(fourier(n)) == expected
        for d in range(1, 17):
            assert bool(find_c2_cells(fourier(2 * d))) == (d % 2 == 1)


def test_criterion_8_cyclotomic_oracles():
    with criterion(8, "exact zero test agrees with the float oracle; divisor products check out"):
        rng = random.Random(987654321)
        for _ in range(10_000):
            m = rng.randint(1, 24)
            counts = [0] * m
            for _ in range(rng.randint(0, 32)):
                counts[rng.randrange(m)] += 1
            vector = ExponentCountVector(m, tuple(counts))
            re, im = approx_sum(vector)
            for v in (-2, -1, 0, 1):
                assert sum_equals(vector, v) == (math.hypot(re - v, im) < 1e-9)
        for m in range(1, 65):
            product = IntPolynomial((1,))
            for d in range(1, m + 1):
                if m % d == 0:
                    product = poly_mul(product, cyclotomic_poly(d))
            assert product == IntPolynomial((-1,) + (0,) * (m - 1) + (1,))


def test_criterion_9_lsesc_mols_duality():
    with criterion(9, "classical families are LSESC, conjugates are MOLS, conjugation involutes", budget=10.0):
        for q in (2, 3, 4, 5, 7, 8, 9):
            squares = classical_lsesc_set(q)
            assert len(squares) == q - 1
            conjugates = [conjugate_lsesc_mols(s) for s in squares]
            for square, image in zip(squares, conjugates):
                assert conjugate_lsesc_mols(image) == square
            for a, b in itertools.combinations(range(q - 1), 2):
                assert are_lsesc(squares[a], squares[b])
                assert are_mols(conjugates[a], conjugates[b])
