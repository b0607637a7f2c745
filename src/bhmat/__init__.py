"""Exact construction and verification of Butson-Hadamard matrices.

The library grows BH(m, n) inputs into BH(m, n(n-1)) and, for even n and m,
BH(m, n(n/2-1)) outputs, using complete families of Latin squares eligible
for the construction.  All orthogonality checking is exact: verify tests
each row pair modulo Phi_m(2^W) in integer arithmetic, never in floats.
"""

from .butson import (
    ButsonMatrix,
    TExtraction,
    VerifyReport,
    core,
    dephase,
    extract_t,
    find_c1_pairs,
    find_c2_cells,
    fourier,
    matrix_digest,
    permute_columns,
    read_matrix,
    verify,
    write_matrix,
)
from .errors import FormatError, PlanError, VerificationError
from .latin import (
    FieldElement,
    GaloisField,
    LatinSquare,
    LatinTensor,
    are_lsesc,
    are_mols,
    classical_lsesc_set,
    classical_tensor_set,
    conjugate_lsesc_mols,
    encode,
    enumerate_elements,
    inflate,
    is_latin,
    make_field,
    prime_power,
    read_latin_set,
    reconstruct,
    write_latin_set,
)
from .scarpis import (
    PhiPlan,
    PsiPlan,
    check_t_properties,
    halving_family,
    count_phi_outputs,
    count_psi_outputs,
    phi,
    psi,
)

__version__ = "0.1.0"
