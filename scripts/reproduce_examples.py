"""Rebuild the two published example matrices and print them.

Output shows exponent arrays (entry e stands for the e-th power of the
primitive m-th root of unity) together with the exact verification verdict.
"""

import sys

from bhmat import (
    PhiPlan,
    PsiPlan,
    classical_lsesc_set,
    dephase,
    extract_t,
    find_c1_pairs,
    find_c2_cells,
    fourier,
    phi,
    psi,
    verify,
)
from bhmat.cli import exit_status


def show(label, matrix):
    print(f"{label}: BH({matrix.m},{matrix.n}), verified={verify(matrix).ok}")
    for row in matrix.exponents:
        print("  " + " ".join(f"{v:2d}" for v in row))
    print()


def main():
    family2 = tuple(classical_lsesc_set(2))

    out1 = phi(PhiPlan(h=fourier(3), tensors=family2))
    show("phi(F_3) raw", out1)
    show("phi(F_3) dephased", dephase(out1))

    f6 = fourier(6)
    print("F_6 C1 pairs:", find_c1_pairs(f6))
    print("F_6 C2 cells:", find_c2_cells(f6))
    ext = extract_t(f6, (4, 4))
    print("row order:", ext.row_perm, " column order:", ext.col_perm)
    print("T = [C; D]:")
    for row in ext.t:
        print("  " + " ".join(f"{v:2d}" for v in row))
    print()

    show("psi(F_6)", psi(PsiPlan(h=f6, tensors=family2)))


if __name__ == "__main__":
    sys.exit(exit_status(main))
