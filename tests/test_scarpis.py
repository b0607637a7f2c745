import itertools
import tracemalloc

import pytest

from bhmat.butson import (
    ButsonMatrix,
    dephase,
    find_c1_pairs,
    find_c2_cells,
    fourier,
    matrix_digest,
    permute_columns,
    verify,
)
from bhmat import latin, scarpis
from bhmat.errors import PlanError, VerificationError, size_text
from bhmat.latin import classical_lsesc_set, inflate
from bhmat.scarpis import (
    PhiPlan,
    PsiPlan,
    halving_family,
    count_phi_outputs,
    count_psi_outputs,
    phi,
    psi,
    psi_with_plan,
)

from golden import EXAMPLE1_DEPHASED, EXAMPLE1_RAW, EXAMPLE2_PSI_F6
from oracles import exhaustive_complete_lsesc
from tiles import count_conjugates


def plan_f3():
    return PhiPlan(h=fourier(3), tensors=classical_lsesc_set(2))


class TestPhi:
    def test_example1_raw_assembly(self):
        out = phi(plan_f3())
        assert out.exponents == EXAMPLE1_RAW
        assert out.exponents[2] == (1, 2, 1, 2, 1, 2)

    def test_example1_after_dephasing(self):
        assert dephase(phi(plan_f3())).exponents == EXAMPLE1_DEPHASED

    def test_order_and_root_order(self):
        out = phi(plan_f3())
        assert (out.m, out.n) == (3, 6)

    def test_f5_with_gf4_family(self):
        out = phi(PhiPlan(h=fourier(5), tensors=classical_lsesc_set(4)))
        assert (out.m, out.n) == (5, 20)
        assert verify(out).ok

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 9, 10])
    def test_every_deleted_row_verifies(self, n):
        family = classical_lsesc_set(n - 1)
        for t in range(1, n + 1):
            out = phi(PhiPlan(h=fourier(n), tensors=family, deleted_row=t))
            assert (out.m, out.n) == (n, n * (n - 1))

    def test_two_input_form_degenerates(self):
        h = fourier(4)
        family = classical_lsesc_set(3)
        assert phi(PhiPlan(h=h, tensors=family, g=h)) == phi(PhiPlan(h=h, tensors=family))

    def test_two_distinct_inputs(self):
        h = fourier(4)
        g = ButsonMatrix(4, 4, tuple(fourier(4).exponents[i] for i in (0, 2, 1, 3)))
        out = phi(PhiPlan(h=h, tensors=classical_lsesc_set(3), g=g))
        assert verify(out).ok
        # the top band comes from g, not h
        assert out.exponents[0] == tuple(v for v in g.exponents[1] for _ in range(3))

    def test_wrong_family_size(self):
        with pytest.raises(PlanError):
            phi(PhiPlan(h=fourier(5), tensors=classical_lsesc_set(2)))

    def test_family_not_lsesc(self):
        square = exhaustive_complete_lsesc(3)[0]
        with pytest.raises(PlanError):
            phi(PhiPlan(h=fourier(4), tensors=(square, square)))

    def test_unverified_input(self):
        broken = ButsonMatrix(3, 3, ((0, 0, 0), (0, 1, 1), (0, 2, 1)))
        with pytest.raises(VerificationError):
            phi(PhiPlan(h=broken, tensors=classical_lsesc_set(2)))

    def test_input_verified_before_family_check(self):
        broken = ButsonMatrix(3, 3, ((0, 0, 0), (0, 1, 1), (0, 2, 1)))
        with pytest.raises(VerificationError, match="input H"):
            phi(PhiPlan(h=broken, tensors=()))
        with pytest.raises(VerificationError, match="input G"):
            phi(PhiPlan(h=fourier(3), g=broken, tensors=()))

    def test_deleted_row_out_of_range(self):
        with pytest.raises(PlanError):
            phi(PhiPlan(h=fourier(3), tensors=classical_lsesc_set(2), deleted_row=4))

    @pytest.mark.parametrize("row", [True, 2.0])
    def test_deleted_row_not_an_int(self, row):
        with pytest.raises(PlanError, match=f"deleted row {row} is not an int"):
            phi(PhiPlan(h=fourier(3), tensors=classical_lsesc_set(2), deleted_row=row))

    def test_order_too_small(self):
        with pytest.raises(PlanError):
            phi(PhiPlan(h=fourier(2), tensors=()))


class TestPsi:
    def test_example2_full_matrix(self):
        out = psi(PsiPlan(h=fourier(6), tensors=classical_lsesc_set(2)))
        assert out.exponents == EXAMPLE2_PSI_F6
        assert out.exponents[0] == (0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5)

    def test_no_inflate(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("inflate called")

        monkeypatch.setattr(latin, "inflate", forbidden)
        monkeypatch.setattr(scarpis, "inflate", forbidden, raising=False)
        out = psi(PsiPlan(h=fourier(6), tensors=classical_lsesc_set(2)))
        assert out.exponents == EXAMPLE2_PSI_F6

    def test_resolve_fills_first_choices(self):
        # the first C1 pair is the x-source's, the first C2 cell H's; G is
        # F_6 with rows 1 and 2 swapped, whose first C1 pair is (1, 5)
        h, family = fourier(6), classical_lsesc_set(2)
        g = ButsonMatrix(6, 6, (h.exponents[1], h.exponents[0], *h.exponents[2:]))
        for x_source, pair in ((None, (1, 4)), (g, (1, 5))):
            out, used = psi_with_plan(PsiPlan(h=h, tensors=family, g=x_source))
            assert used == PsiPlan(h=h, tensors=family, g=x_source, c1_pair=pair, c2_cell=(4, 4))
            assert out == psi(used)

    @pytest.mark.parametrize("pair", [(1, 4), (2, 5), (3, 6)])
    def test_every_c1_pair_of_f6(self, pair):
        out = psi(PsiPlan(h=fourier(6), tensors=classical_lsesc_set(2), c1_pair=pair))
        assert (out.m, out.n) == (6, 12)

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_every_c1_pair_verifies(self, d):
        n = 2 * d
        h = fourier(n)
        family = classical_lsesc_set(n // 2 - 1)
        for pair in find_c1_pairs(h):
            out = psi(PsiPlan(h=h, tensors=family, c1_pair=pair))
            assert (out.m, out.n) == (n, n * (n // 2 - 1))

    def test_f10_with_gf4_family(self):
        out = psi(PsiPlan(h=fourier(10), tensors=classical_lsesc_set(4)))
        assert (out.m, out.n) == (10, 40)

    def test_f10_with_exhaustive_family(self):
        family = exhaustive_complete_lsesc(4)
        out = psi(PsiPlan(h=fourier(10), tensors=family))
        assert (out.m, out.n) == (10, 40)

    def test_two_input_form_degenerates(self):
        h = fourier(6)
        family = classical_lsesc_set(2)
        assert psi(PsiPlan(h=h, tensors=family, g=h)) == psi(PsiPlan(h=h, tensors=family))

    def test_two_distinct_inputs(self):
        h = fourier(6)
        g = ButsonMatrix(6, 6, tuple(fourier(6).exponents[i] for i in (5, 4, 3, 2, 1, 0)))
        out = psi(PsiPlan(h=h, tensors=classical_lsesc_set(2), g=g))
        assert verify(out).ok and (out.m, out.n) == (6, 12)

    def test_no_c2_cell(self):
        with pytest.raises(PlanError, match="C2"):
            psi(PsiPlan(h=fourier(8), tensors=classical_lsesc_set(3)))

    def test_invalid_explicit_choices(self):
        family = classical_lsesc_set(2)
        with pytest.raises(PlanError):
            psi(PsiPlan(h=fourier(6), tensors=family, c1_pair=(1, 2)))
        with pytest.raises(PlanError):
            psi(PsiPlan(h=fourier(6), tensors=family, c2_cell=(1, 1)))
        # each equals a valid choice on F_6, since 1.0 == True == 1
        for choice in ({"c1_pair": (1.0, 4.0)}, {"c1_pair": (True, 4)}, {"c2_cell": (4.0, 4.0)}):
            with pytest.raises(PlanError, match="is not a C[12]"):
                psi(PsiPlan(h=fourier(6), tensors=family, **choice))

    def test_input_verified_before_c1_c2_search(self):
        rows = [list(r) for r in fourier(6).exponents]
        rows[3][3] = 0  # removes the only C2 cell and breaks orthogonality
        broken = ButsonMatrix(6, 6, tuple(tuple(r) for r in rows))
        with pytest.raises(VerificationError, match="input H"):
            psi(PsiPlan(h=broken, tensors=()))

    def test_odd_order_rejected(self):
        with pytest.raises(PlanError):
            psi(PsiPlan(h=fourier(5), tensors=()))

    def test_t_check_reached_from_verified_input(self):
        # F_6 with rows 2 and 3 negated verifies, keeps its C2 cell (4, 4)
        # with a balanced partition, and its T fails the check
        rows = [
            tuple((v + 3) % 6 for v in row) if i in (1, 2) else row
            for i, row in enumerate(fourier(6).exponents)
        ]
        h = ButsonMatrix(6, 6, tuple(rows))
        assert verify(h).ok and find_c2_cells(h) == [(4, 4)]
        with pytest.raises(PlanError, match="of C"):
            psi(PsiPlan(h=h, tensors=classical_lsesc_set(2)))


class TestOutputOrderCap:
    def test_default_cap_keeps_r5_and_stops_phi_on_f65(self):
        # psi on F_66 (r = 5) makes order 2112; phi on F_65 would make 4160
        assert 66 * 32 <= scarpis.OUTPUT_ORDER_CAP < 65 * 64
        with pytest.raises(PlanError, match="order 4160 has 17305600 cells"):
            phi(PhiPlan(h=fourier(65), tensors=()))

    def test_after_input_check_before_family_check_and_assembly(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("assembled past the cap")

        monkeypatch.setattr(scarpis, "_assemble", refuse)
        monkeypatch.setattr(scarpis, "OUTPUT_ORDER_CAP", 29)
        # the empty families would fail the family check
        with pytest.raises(PlanError, match="phi output of order 30 has 900 cells"):
            phi(PhiPlan(h=fourier(6), tensors=()))
        broken = ButsonMatrix(6, 6, ((0,) * 6,) * 6)
        with pytest.raises(VerificationError, match="input H"):
            phi(PhiPlan(h=broken, tensors=()))
        monkeypatch.setattr(scarpis, "OUTPUT_ORDER_CAP", 11)
        with pytest.raises(PlanError, match="psi output of order 12 has 144 cells"):
            psi(PsiPlan(h=fourier(6), tensors=()))

    def test_output_at_the_cap_is_built(self, monkeypatch):
        monkeypatch.setattr(scarpis, "OUTPUT_ORDER_CAP", 12)
        assert psi(PsiPlan(h=fourier(6), tensors=classical_lsesc_set(2))).n == 12


class TestHalvingFamily:
    def test_r1_is_the_f6_construction(self):
        out = halving_family(1)
        assert out.exponents == EXAMPLE2_PSI_F6
        assert (out.m, out.n) == (6, 12)

    def test_r2(self):
        out = halving_family(2)
        assert (out.m, out.n) == (10, 40)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            halving_family(0)

    @pytest.mark.parametrize("r", [True, 1.0])
    def test_rejects_non_int(self, r):
        with pytest.raises(ValueError, match="r must be a positive int"):
            halving_family(r)

    @pytest.mark.parametrize("r", [6, 7, 8, 9])
    def test_output_cap_before_any_input_is_built(self, monkeypatch, r):
        def refuse(*args):
            raise AssertionError("built past the output order cap")

        for name in ("classical_lsesc_set", "fourier", "verify"):
            monkeypatch.setattr(scarpis, name, refuse)
        with pytest.raises(PlanError, match="output order cap"):
            halving_family(r)

    @pytest.mark.parametrize(
        "r, message",
        [
            (6, "psi output of order 8320 has 69222400 cells"),
            (7, "psi output of order 33024 has 1090584576 cells"),
            (64, "psi output of order <130-bit int> has <259-bit int> cells"),
            (65, "halving_family r = 65: "
                 "psi output of order <132-bit int> has <263-bit int> cells"),
        ],
    )
    def test_output_cap_message(self, r, message):
        # past r = 64 the message names r; its sizes are family_shape's
        with pytest.raises(PlanError) as info:
            halving_family(r)
        assert str(info.value) == f"{message}; the output order cap is 4096"
        if r > 64:
            with pytest.raises(PlanError) as shape:
                scarpis.family_shape("psi", 2 * (2**r + 1))
            assert str(info.value) == f"halving_family r = {r}: {shape.value}"

    def test_huge_r_refused_before_2_to_the_r(self):
        tracemalloc.start()
        try:
            with pytest.raises(PlanError, match="the output order cap is 4096"):
                halving_family(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


# Each cap refused at a size whose decimal str() refuses (past 4300
# digits), and the cap messages' size text on both sides of its width.
HUGE_SIZE_CALLS = [
    (halving_family, (10000,), "the output order cap is 4096"),
    (classical_lsesc_set, (2**20000,), "the order cap is 256"),
    (fourier, (10**5000,), "the order cap is 2048"),
    (scarpis.family_shape, ("phi", 10**3000), "the output order cap is 4096"),
    (scarpis.family_shape, ("psi", 2 * 10**3000), "the output order cap is 4096"),
    (latin.make_field, (10**5000, 10**5000), "exceeds cap 256"),
    (verify, (ButsonMatrix(m=10**5000, n=1, exponents=((0,),)),), "root order cap 4096"),
]


class TestCapMessagesAtHugeSizes:
    @pytest.mark.parametrize("call, args, cap", HUGE_SIZE_CALLS)
    def test_refused_by_bit_length(self, call, args, cap):
        with pytest.raises(PlanError, match=cap) as info:
            call(*args)
        assert "-bit int>" in str(info.value)

    def test_size_text_width(self):
        assert size_text(2**64 - 1) == "18446744073709551615"
        assert size_text(2**64) == "<65-bit int>"
        assert size_text(10**5000) == "<16610-bit int>"
        with pytest.raises(PlanError, match="order 2049 has 4198401 cells;"):
            fourier(2049)


class TestAssemblyDigests:
    """Outputs pinned by digest, beyond the two worked examples: a permuted
    two-input phi with an inner deleted row, a two-input psi on a later C1
    pair, psi with the family's squares in reverse order, and the second
    halving_family member."""

    def test_phi_two_inputs_inner_deleted_row(self):
        f9 = fourier(9)
        h = permute_columns(f9, [1, 3, 2, 4, 5, 6, 7, 8, 9])
        g = ButsonMatrix(9, 9, tuple(reversed(f9.exponents)))
        out = phi(PhiPlan(h=h, g=g, tensors=classical_lsesc_set(8), deleted_row=4))
        assert (out.m, out.n) == (9, 72)
        assert matrix_digest(out) == (
            "sha256:4cbb187d8a150e6d6b470a541d2acbf300ae7dd6b0dd71a7e44747f406371a31"
        )

    def test_psi_two_inputs_second_c1_pair(self):
        f10 = fourier(10)
        g = ButsonMatrix(10, 10, tuple(reversed(f10.exponents)))
        pair = find_c1_pairs(g)[1]
        assert pair == (2, 7)
        out = psi(PsiPlan(h=f10, g=g, c1_pair=pair, tensors=classical_lsesc_set(4)))
        assert (out.m, out.n) == (10, 40)
        assert matrix_digest(out) == (
            "sha256:47d93b1b73abc2e5ddcc714b36e24face6b475f67c185f6b2d775931cdf18716"
        )

    def test_psi_reversed_family(self):
        family = tuple(reversed(classical_lsesc_set(4)))
        out = psi(PsiPlan(h=fourier(10), tensors=family))
        assert (out.m, out.n) == (10, 40)
        assert matrix_digest(out) == (
            "sha256:2b2c0861eaa396bbd70dba77028153753781bac22fe98fa281f543e3119544f5"
        )

    def test_halving_family_r2(self):
        assert matrix_digest(halving_family(2)) == (
            "sha256:cea480ccf9035776976ad24741d63a7d1ecd84134c2b09a23518fe24215eda69"
        )


class TestHadamardSpecialisations:
    def sylvester(self, k):
        # doubling in exponent form: H_{2n} = [[H, H], [H, -H]]
        h = ((0,),)
        for _ in range(k):
            top = tuple(row + row for row in h)
            bottom = tuple(row + tuple((v + 1) % 2 for v in row) for row in h)
            h = top + bottom
        return ButsonMatrix(2, 2**k, h)

    def test_phi_on_order4_pair_gives_order12_hadamard(self):
        g = self.sylvester(2)
        h = ButsonMatrix(2, 4, tuple(g.exponents[i] for i in (0, 2, 3, 1)))
        assert g != h and verify(h).ok
        out = phi(PhiPlan(h=h, tensors=classical_lsesc_set(3), g=g))
        assert (out.m, out.n) == (2, 12)
        assert all(v in (0, 1) for row in out.exponents for v in row)

    def test_psi_on_order8_gives_order24_hadamard(self):
        h8 = self.sylvester(3)
        out = psi(PsiPlan(h=h8, tensors=classical_lsesc_set(3)))
        assert (out.m, out.n) == (2, 24)
        assert all(v in (0, 1) for row in out.exponents for v in row)


class TestSquaresAreTheTensors:
    """phi and psi take the squares of the family themselves: they build
    no LatinTensor, refuse one with a PlanError, and build each square's
    conjugate at most once."""

    def test_no_tensor_built(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("LatinTensor built")

        monkeypatch.setattr(latin.LatinTensor, "__post_init__", forbidden)
        out = halving_family(2)
        assert (out.m, out.n) == (10, 40)
        assert phi(PhiPlan(fourier(5), classical_lsesc_set(4))).n == 20

    @pytest.mark.parametrize("member", ["cubic tensor", "inflated tensor", "square of order 3"])
    def test_member_not_a_square_of_the_order(self, member):
        square = classical_lsesc_set(2)[0]
        family = ({
            "cubic tensor": inflate(square, 1),
            "inflated tensor": inflate(square, 2),
            "square of order 3": classical_lsesc_set(3)[0],
        }[member],)
        message = "family member 1 is not a Latin square of order 2"
        with pytest.raises(PlanError, match=message):
            phi(PhiPlan(h=fourier(3), tensors=family))
        with pytest.raises(PlanError, match=message):
            psi(PsiPlan(h=fourier(6), tensors=family))

    def test_index_built_once(self, monkeypatch):
        built = count_conjugates(monkeypatch)
        squares = classical_lsesc_set(4)
        assert latin.first_non_lsesc_pair(squares) is None
        assert len(built) == 3
        assert phi(PhiPlan(h=fourier(5), tensors=tuple(squares))).n == 20
        # conjugating after the checks hands back the conjugates they built
        assert all(latin.conjugate_lsesc_mols(s) is s._conjugate for s in squares)
        assert len(built) == 3


class TestCounts:
    def test_phi_formula(self):
        assert count_phi_outputs(1, 1, 4) == 4
        assert count_phi_outputs(0, 7, 9) == 0
        assert count_phi_outputs(2, 3, 5) == 90

    def test_phi_formula_overcounts_equivalence(self):
        # six distinct dephased order-4 Hadamard matrices exist (row shuffles
        # of one), yet order 12 has a single equivalence class: the formula
        # counts far more than 24 matrices.
        h4 = ButsonMatrix(2, 4, (
            (0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1), (0, 1, 1, 0),
        ))
        variants = set()
        for perm in itertools.permutations(range(1, 4)):
            rows = (h4.exponents[0],) + tuple(h4.exponents[i] for i in perm)
            variant = ButsonMatrix(2, 4, rows)
            assert verify(variant).ok
            variants.add(variant)
        assert len(variants) == 6
        assert count_phi_outputs(1, len(variants), 4) == 144 > 24

    def test_psi_formula(self):
        assert count_psi_outputs(1, 1, [3]) == 3
        assert count_psi_outputs(1, 1, []) == 0
        assert count_psi_outputs(2, 3, [1, 2]) == 18
        assert count_psi_outputs(2, 3, (d for d in [3, 2])) == 30

    def test_psi_formula_with_f6_dh(self):
        d_h = len(find_c1_pairs(fourier(6)))
        assert d_h == 3
        assert count_psi_outputs(1, 1, [d_h]) == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            count_phi_outputs(-1, 1, 4)
        with pytest.raises(ValueError):
            count_psi_outputs(1, 1, [-2])


# The last public functions that took a bool or a float for an int: each
# returned a coerced answer or died with a TypeError.
@pytest.mark.parametrize(
    "call",
    [
        lambda: count_phi_outputs(1, 1, 2.5),
        lambda: count_phi_outputs(True, 1, 3),
        lambda: count_psi_outputs(1.5, 1, [2]),
        lambda: count_psi_outputs(1, 1, [True]),
        lambda: permute_columns(fourier(2), (True, 2)),
        lambda: permute_columns(fourier(2), (1.0, 2.0)),
        lambda: inflate(classical_lsesc_set(2)[0], True),
        lambda: inflate(classical_lsesc_set(2)[0], 2.0),
        lambda: latin.LatinTensor(True, ((0,),)),
        lambda: latin.LatinTensor(1.0, ((0,),)),
    ],
    ids=["phi-count-float", "phi-count-bool", "psi-count-float", "psi-dh-bool",
         "permute-bool", "permute-float", "inflate-bool", "inflate-float",
         "tensor-bool", "tensor-float"],
)
def test_non_int_argument_is_refused(call):
    with pytest.raises(ValueError):
        call()
