"""Frozen expected values shared by several test modules.

EXAMPLE1_* is the order-6 output of the first construction applied to the
order-3 Fourier matrix (raw block assembly and its normalised form).
EXAMPLE2_* is the order-12 output of the second construction applied to
the order-6 Fourier matrix, plus the extracted T sub-matrix.
sylvester builds the Sylvester Hadamard matrices.
"""

from bhmat.butson import ButsonMatrix


def sylvester(k):
    """The Sylvester Hadamard matrix of order 2^k, as a BH(2, 2^k): entry
    (i, j) is -1 to the number of bits that i and j share."""
    n = 1 << k
    return ButsonMatrix(2, n, tuple(tuple(bin(i & j).count("1") % 2 for j in range(n)) for i in range(n)))

EXAMPLE1_RAW = (
    (0, 0, 1, 1, 2, 2),
    (0, 0, 2, 2, 1, 1),
    (1, 2, 1, 2, 1, 2),
    (1, 2, 2, 1, 2, 1),
    (2, 1, 1, 2, 2, 1),
    (2, 1, 2, 1, 1, 2),
)

EXAMPLE1_DEPHASED = (
    (0, 0, 0, 0, 0, 0),
    (0, 0, 1, 1, 2, 2),
    (0, 1, 2, 0, 1, 2),
    (0, 1, 0, 2, 2, 1),
    (0, 2, 1, 2, 1, 0),
    (0, 2, 2, 1, 0, 1),
)

EXAMPLE2_T = ((4, 2, 2, 4), (2, 4, 4, 2), (2, 4, 1, 5), (4, 2, 5, 1))

EXAMPLE2_PSI_F6 = (
    (0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5),
    (0, 0, 2, 2, 4, 4, 0, 0, 2, 2, 4, 4),
    (0, 0, 4, 4, 2, 2, 0, 0, 4, 4, 2, 2),
    (0, 0, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1),
    (4, 2, 2, 4, 4, 2, 2, 4, 4, 2, 2, 4),
    (4, 2, 2, 4, 2, 4, 4, 2, 2, 4, 4, 2),
    (2, 4, 1, 5, 2, 4, 1, 5, 2, 4, 1, 5),
    (2, 4, 1, 5, 4, 2, 5, 1, 4, 2, 5, 1),
    (2, 4, 4, 2, 4, 2, 2, 4, 2, 4, 4, 2),
    (2, 4, 4, 2, 2, 4, 4, 2, 4, 2, 2, 4),
    (4, 2, 5, 1, 2, 4, 1, 5, 4, 2, 5, 1),
    (4, 2, 5, 1, 4, 2, 5, 1, 2, 4, 1, 5),
)
