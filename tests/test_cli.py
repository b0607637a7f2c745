import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bhmat import butson, latin, scarpis
from bhmat.butson import ButsonMatrix, fourier, permute_columns, read_matrix, write_matrix
from bhmat.cli import build_parser, decimal_ints, exit_status, main
from bhmat.errors import FormatError, PlanError, VerificationError
from bhmat.latin import LatinSquare, classical_lsesc_set, dump_latin_set, read_latin_set

from golden import EXAMPLE1_DEPHASED, EXAMPLE2_PSI_F6
from oracles import (
    are_lsesc_oracle,
    reference_latin_set,
    reference_matrix,
    verify_oracle,
)


def run(*argv):
    return main([str(a) for a in argv])


def _count_verify(monkeypatch):
    """Record (m, n) of every matrix verify is called on."""
    calls = []
    real = butson.verify

    def counting(b):
        calls.append((b.m, b.n))
        return real(b)

    monkeypatch.setattr(butson, "verify", counting)
    monkeypatch.setattr(scarpis, "verify", counting)
    return calls


def _count_scans(monkeypatch):
    """Record "C1" or "C2" for every find_c1_pairs or find_c2_cells call."""
    calls = []
    for name, kind in (("find_c1_pairs", "C1"), ("find_c2_cells", "C2")):
        real = getattr(butson, name)

        def counting(b, real=real, kind=kind):
            calls.append(kind)
            return real(b)

        monkeypatch.setattr(butson, name, counting)
        monkeypatch.setattr(scarpis, name, counting)
    return calls


class TestFourierCommand:
    def test_writes_json(self, tmp_path, capsys):
        out = tmp_path / "f3.json"
        assert run("fourier", 3, out) == 0
        matrix, provenance = read_matrix(out)
        assert matrix.exponents == ((0, 0, 0), (0, 1, 2), (0, 2, 1))
        assert provenance["construction"] == "fourier"
        assert "wrote BH(3,3)" in capsys.readouterr().out

    def test_writes_text(self, tmp_path):
        out = tmp_path / "f1.txt"
        assert run("fourier", 1, out, "--format", "text") == 0
        assert out.read_text() == "BH 1 1\n0\n"

    def test_order_above_cap_is_plan_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(butson, "FOURIER_ORDER_CAP", 4)
        out = tmp_path / "f5.json"
        assert run("fourier", 5, out) == 2
        assert not out.exists()
        assert "order 5 has 25 cells" in capsys.readouterr().err
        assert run("fourier", 4, out) == 0

    @pytest.mark.parametrize("name", ["missing/x.json", "directory"])
    def test_failed_write_names_target(self, tmp_path, capsys, name):
        (tmp_path / "directory").mkdir()
        out = tmp_path / name
        assert run("fourier", 4, out) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"'{out}'" in captured.err and ".tmp" not in captured.err
        assert [p.name for p in tmp_path.rglob("*")] == ["directory"]

    def test_round_trip_bit_exact(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert run("fourier", 5, first) == 0
        matrix, provenance = read_matrix(first)
        write_matrix(matrix, second, provenance=provenance)
        assert first.read_bytes() == second.read_bytes()


class TestVerifyCommand:
    def test_fourier12_passes(self, tmp_path):
        path = tmp_path / "f12.json"
        run("fourier", 12, path)
        assert run("verify", path) == 0

    def test_corrupted_file_fails_with_pair(self, tmp_path, capsys):
        rows = [list(r) for r in fourier(3).exponents]
        rows[1][2] = (rows[1][2] + 1) % 3
        path = tmp_path / "bad.txt"
        path.write_text("BH 3 3\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
        assert run("verify", path) == 1
        out = capsys.readouterr().out
        assert "rows (1, 2)" in out

    def test_analyze_f6(self, tmp_path, capsys):
        path = tmp_path / "f6.json"
        run("fourier", 6, path)
        assert run("verify", path, "--analyze") == 0
        out = capsys.readouterr().out
        assert "C1 pairs: (1,4) (2,5) (3,6)" in out
        assert "C2 cells: (4,4)" in out
        assert "d_H = 3" in out

    def test_parse_failure_exit_code(self, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_text("not a matrix\n")
        assert run("verify", path) == 3

    @pytest.mark.parametrize(
        "doc",
        [
            {"m": 2, "n": 2, "exponents": [[0, 0], [0, 1.0]]},
            {"m": 2, "n": 2, "exponents": [[0, 0], [0, 1.5]]},
            {"m": 2, "n": 2, "exponents": [[0, 0], [False, True]]},
            {"m": 2, "n": 2, "exponents": [[0, 0], [0, "1"]]},
            {"m": 2.0, "n": 2, "exponents": [[0, 0], [0, 1]]},
            {"m": 2, "n": True, "exponents": [[0]]},
            {"m": "2", "n": 2, "exponents": [[0, 0], [0, 1]]},
        ],
        ids=["float-int", "float", "bool", "string", "float-m", "bool-n", "string-m"],
    )
    def test_non_int_json_fields_exit_code(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert run("verify", path) == 3

    def test_repeated_json_key_exit_code(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text('{"m": 4, "n": 2, "exponents": [[0, 0], [0, 2]], "m": 8}')
        assert run("verify", path) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "repeated key 'm'" in captured.err

    def test_missing_file_exit_code(self, tmp_path):
        assert run("verify", tmp_path / "absent.json") == 3

    def test_root_order_past_cap_exit_code(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("BH 1000000 2\n0 0\n0 1\n")
        assert run("verify", path) == 2
        assert "root order 1000000 is past" in capsys.readouterr().err


class TestConstructCommand:
    def test_phi_example1(self, tmp_path):
        src = tmp_path / "f3.json"
        out = tmp_path / "ex1.json"
        run("fourier", 3, src)
        assert run("construct", "phi", src, "-o", out, "--dephase") == 0
        matrix, provenance = read_matrix(out)
        assert matrix.exponents == EXAMPLE1_DEPHASED
        assert provenance["construction"] == "phi"
        assert provenance["dephased"] is True
        assert run("verify", out) == 0

    def test_psi_example2(self, tmp_path):
        src = tmp_path / "f6.json"
        out = tmp_path / "ex2.json"
        run("fourier", 6, src)
        assert run("construct", "psi", src, "-o", out) == 0
        matrix, provenance = read_matrix(out)
        assert matrix.exponents == EXAMPLE2_PSI_F6
        assert provenance["plan"]["c1_pair"] == [1, 4]
        assert provenance["plan"]["c2_cell"] == [4, 4]

    def test_psi_without_c2_is_plan_error(self, tmp_path, capsys):
        src = tmp_path / "f8.json"
        run("fourier", 8, src)
        assert run("construct", "psi", src, "-o", tmp_path / "x.json") == 2
        assert "C2" in capsys.readouterr().err

    def test_deterministic_bytes(self, tmp_path):
        src = tmp_path / "f6.json"
        run("fourier", 6, src)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert run("construct", "psi", src, "-o", first) == 0
        assert run("construct", "psi", src, "-o", second) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_two_input_phi(self, tmp_path):
        g_path, h_path = tmp_path / "g.json", tmp_path / "h.json"
        run("fourier", 4, h_path)
        g = permute_columns(fourier(4), [1, 3, 2, 4])
        write_matrix(g, g_path)
        out = tmp_path / "out.json"
        assert run("construct", "phi", g_path, h_path, "-o", out) == 0
        assert run("verify", out) == 0

    def test_lsesc_from_file(self, tmp_path):
        family = tmp_path / "family.txt"
        assert run("lsesc", "classical", 4, family) == 0
        src = tmp_path / "f5.json"
        run("fourier", 5, src)
        out = tmp_path / "bh20.json"
        assert run("construct", "phi", src, "-o", out, "--lsesc", family) == 0
        assert run("verify", out) == 0

    def test_lsesc_file_builds_no_tensor(self, tmp_path, monkeypatch):
        family, src = tmp_path / "family.txt", tmp_path / "f5.json"
        run("lsesc", "classical", 4, family)
        run("fourier", 5, src)

        def forbidden(self):
            raise AssertionError("LatinTensor built")

        monkeypatch.setattr(latin.LatinTensor, "__post_init__", forbidden)
        out = tmp_path / "bh20.json"
        assert run("construct", "phi", src, "-o", out, "--lsesc", family) == 0
        assert run("construct", "phi", src, "-o", tmp_path / "c.json") == 0
        assert read_matrix(out)[0] == read_matrix(tmp_path / "c.json")[0]

    @pytest.mark.parametrize(
        "kind, option",
        [
            ("phi", ["--c1-pair", "1", "2"]),
            ("phi", ["--c2-cell", "3", "3"]),
            ("psi", ["--delete-row", "9"]),
            ("psi", ["--delete-row", "1"]),
            ("psi", ["--d"]),
            ("psi", ["--de"]),
            ("phi", ["--c", "1", "2"]),
            ("phi", ["--del", "2"]),
        ],
        ids=[
            "phi-c1-pair", "phi-c2-cell", "psi-delete-row", "psi-delete-row-1",
            "psi-d", "psi-de", "phi-c", "phi-del",
        ],
    )
    def test_option_of_the_other_construction(self, tmp_path, kind, option):
        # each kind's parser knows only its own options, and whole names
        # only, so argparse refuses the other kind's and every prefix, with
        # the top-level usage line
        src, out = tmp_path / "f.json", tmp_path / "o.json"
        run("fourier", 5 if kind == "phi" else 6, src)
        code, stdout, stderr = run_until_exit("construct", kind, src, "-o", out, *option)
        assert (code, stdout) == (2, "")
        assert stderr.startswith("usage: bhmat [-h]")
        assert stderr.endswith(f"bhmat: error: unrecognized arguments: {' '.join(option)}\n")
        assert not out.exists()

    def test_lsesc_file_wrong_order(self, tmp_path):
        family = tmp_path / "family.txt"
        run("lsesc", "classical", 3, family)
        src = tmp_path / "f5.json"
        run("fourier", 5, src)
        assert run("construct", "phi", src, "-o", tmp_path / "x.json", "--lsesc", family) == 2

    def test_lsesc_file_mixed_orders_exit_3(self, tmp_path, capsys):
        # the order-3 square fits phi on F_4; the order-2 one makes the
        # file malformed, as `lsesc check` says too
        mixed = tmp_path / "m.txt"
        mixed.write_text("L 3\n1 2 3\n2 3 1\n3 1 2\n\nL 2\n1 2\n2 1\n")
        src, out = tmp_path / "f4.json", tmp_path / "o.json"
        run("fourier", 4, src)
        capsys.readouterr()
        message = "error: squares of orders 3 and 2 in one family\n"
        assert run("construct", "phi", src, "-o", out, "--lsesc", mixed) == 3
        assert capsys.readouterr() == ("", message)
        assert not out.exists()
        assert run("lsesc", "check", mixed) == 3
        assert capsys.readouterr() == ("", message)

    def test_unavailable_classical_family(self, tmp_path):
        src = tmp_path / "f7.json"
        run("fourier", 7, src)
        # order 6 is not a prime power, so no classical family exists
        assert run("construct", "phi", src, "-o", tmp_path / "x.json") == 2

    def test_pre_permute_short_of_the_order(self, tmp_path, capsys):
        # an empty list is refused like any other, never skipped
        src, out = tmp_path / "f6.json", tmp_path / "out.json"
        run("fourier", 6, src)
        capsys.readouterr()
        for text, listed in (("1,2", "[1, 2]"), ("", "[]"), (" , ", "[]")):
            assert run("construct", "phi", src, "-o", out, "--pre-permute-cols", text) == 2
            assert capsys.readouterr() == ("", f"error: not a permutation of 1..6: {listed}\n")
            assert not out.exists()

    def test_pre_permute_bad_token_before_any_input_is_read(self, tmp_path):
        out = tmp_path / "out.json"
        code, stdout, stderr = run_until_exit(
            "construct", "psi", tmp_path / "missing.json", "-o", out, "--pre-permute-cols", "1,x"
        )
        assert (code, stdout) == (2, "")
        assert stderr.startswith("usage: bhmat construct psi")
        assert stderr.endswith(
            "error: argument --pre-permute-cols: not an ASCII decimal integer: 'x'\n"
        )
        assert not out.exists()

    def test_pre_permute_restores_c1(self, tmp_path):
        # swapping columns 2 and 3 of F_6 kills C1 but keeps C2;
        # the explicit permutation flag restores it before planning
        shuffled = permute_columns(fourier(6), [1, 3, 2, 4, 5, 6])
        src = tmp_path / "shuffled.json"
        write_matrix(shuffled, src)
        out = tmp_path / "out.json"
        assert run("construct", "psi", src, "-o", out) == 2
        assert run("construct", "psi", src, "-o", out, "--pre-permute-cols", "1,3,2,4,5,6") == 0
        matrix, provenance = read_matrix(out)
        assert matrix.exponents == EXAMPLE2_PSI_F6
        assert provenance["plan"]["pre_permuted_cols"] == [1, 3, 2, 4, 5, 6]

    def test_unverified_input_exit_code(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("BH 3 3\n0 0 0\n0 1 1\n0 2 1\n")
        assert run("construct", "phi", path, "-o", tmp_path / "x.json") == 1

    def test_corrupted_input_without_c2_exits_1(self, tmp_path, capsys):
        # entry (4,4) is F_6's only C2 witness; zeroing it also breaks
        # orthogonality, and the verification failure must win
        rows = [list(r) for r in fourier(6).exponents]
        rows[3][3] = 0
        bad = ButsonMatrix(6, 6, tuple(tuple(r) for r in rows))
        assert not butson.find_c2_cells(bad)
        path = tmp_path / "bad.json"
        write_matrix(bad, path)
        assert run("construct", "psi", path, "-o", tmp_path / "x.json") == 1
        captured = capsys.readouterr()
        assert "input H failed exact verification" in captured.err
        assert "FAIL" not in captured.out

    def test_each_matrix_verified_once(self, tmp_path, monkeypatch):
        calls = _count_verify(monkeypatch)
        src = tmp_path / "f5.json"
        run("fourier", 5, src)
        assert run("construct", "phi", src, "-o", tmp_path / "out.json") == 0
        assert calls == [(5, 5), (5, 20)]

    def test_equal_inputs_verified_once(self, tmp_path, monkeypatch):
        # the two inputs are loaded separately, so they are equal, not identical
        calls = _count_verify(monkeypatch)
        src = tmp_path / "f6.json"
        run("fourier", 6, src)
        assert run("construct", "psi", src, src, "-o", tmp_path / "out.json") == 0
        assert calls == [(6, 6), (6, 12)]

    @pytest.mark.parametrize(
        "choice, digest",
        [
            ((), "89c1684cdcb2e79b3c2392b0ffbaeca97ddaf50920ba2c40357583717ac8a75c"),
            (
                ("--c1-pair", 2, 5, "--c2-cell", 4, 4),
                "74d9a6fe5112f378c413272317f73c7ae8d2bb799431045e338493ac86f6b06f",
            ),
        ],
        ids=["first", "chosen"],
    )
    def test_c1_and_c2_scanned_once(self, tmp_path, monkeypatch, choice, digest):
        # the provenance names the pair and cell from that one scan
        calls = _count_scans(monkeypatch)
        src, out = tmp_path / "f6.json", tmp_path / "out.json"
        run("fourier", 6, src)
        assert run("construct", "psi", src, *choice, "-o", out) == 0
        assert sorted(calls) == ["C1", "C2"]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_text_output_format(self, tmp_path):
        src = tmp_path / "f3.json"
        run("fourier", 3, src)
        out = tmp_path / "ex1.txt"
        assert run("construct", "phi", src, "-o", out, "--format", "text") == 0
        matrix, provenance = read_matrix(out)
        assert provenance is None and matrix.n == 6

    @pytest.mark.parametrize(
        "kind, n, message",
        [
            ("phi", 2, "phi needs order >= 3"),
            ("psi", 4, "psi needs order >= 6"),
            ("psi", 2, "psi needs order >= 6"),
        ],
    )
    def test_small_order_names_the_order(self, tmp_path, capsys, kind, n, message):
        src = tmp_path / "small.json"
        run("fourier", n, src)
        assert run("construct", kind, src, "-o", tmp_path / "x.json") == 2
        assert message in capsys.readouterr().err

    def test_t_check_failure_is_plan_error(self, tmp_path, capsys):
        # F_6 with rows 2 and 3 negated verifies and has the C2 cell (4, 4),
        # but the T behind that cell fails the check
        rows = [list(r) for r in fourier(6).exponents]
        for i in (1, 2):
            rows[i] = [(v + 3) % 6 for v in rows[i]]
        src = tmp_path / "negated.json"
        write_matrix(ButsonMatrix(6, 6, tuple(tuple(r) for r in rows)), src)
        out = tmp_path / "x.json"
        assert run("construct", "psi", src, "-o", out) == 2
        assert "of C" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_write_keeps_old_output(self, tmp_path, monkeypatch):
        src = tmp_path / "f3.json"
        run("fourier", 3, src)
        out = tmp_path / "out.json"
        out.write_bytes(b"old bytes\n")

        def refuse(*args):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        assert run("construct", "phi", src, "-o", out) == 3
        assert out.read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f3.json", "out.json"]


class TestCountCommand:
    def test_phi(self, capsys):
        # mols * card^2 * n; for (1, 1, 4) that is 4
        assert run("count", "phi", "--mols", 1, "--card", 1, "--n", 4) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_psi(self, capsys):
        assert run("count", "psi", "--mols", 1, "--card2", 1, "--dh", 3) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_psi_multiple_dh(self, capsys):
        assert run("count", "psi", "--mols", 2, "--card2", 3, "--dh", 1, 2) == 0
        assert capsys.readouterr().out.strip() == "18"

    def test_zero_mols(self, capsys):
        assert run("count", "phi", "--mols", 0, "--card", 9, "--n", 5) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_missing_arguments(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv, missing in [
            (("count", "phi", "--mols", 1), "--card, --n"),
            (("count", "psi", "--mols", 1, "--card2", 2), "--dh"),
            # a prefix is not the option it begins
            (("count", "phi", "--mols", 1, "--car", 2, "--n", 3), "--card"),
            (("count", "psi", "--mo", 1, "--card2", 1, "--dh", 3), "--mols"),
        ]:
            code, stdout, stderr = run_until_exit(*argv)
            assert (code, stdout) == (2, "")
            assert stderr.startswith(f"usage: bhmat count {argv[1]} [-h]")
            assert stderr.endswith(f"error: the following arguments are required: {missing}\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "kind, given, option",
        [
            ("phi", ["--card", "1", "--n", "3"], ["--card2", "5"]),
            ("phi", ["--card", "1", "--n", "3"], ["--dh", "2"]),
            ("psi", ["--card2", "1", "--dh", "3"], ["--card", "1"]),
            ("psi", ["--card2", "1", "--dh", "3"], ["--n", "4"]),
            ("phi", ["--card", "1", "--n", "3"], ["--car", "2"]),
            ("phi", ["--card", "1", "--n", "3"], ["--c", "2"]),
        ],
        ids=["phi-card2", "phi-dh", "psi-card", "psi-n", "phi-car", "phi-c"],
    )
    def test_option_of_the_other_kind(self, tmp_path, monkeypatch, kind, given, option):
        # psi's --card is not read as an abbreviation of --card2, nor phi's
        # --car as one of --card
        monkeypatch.chdir(tmp_path)
        code, stdout, stderr = run_until_exit("count", kind, "--mols", 1, *given, *option)
        assert (code, stdout) == (2, "")
        assert stderr.startswith("usage: bhmat [-h]")
        assert stderr.endswith(f"bhmat: error: unrecognized arguments: {' '.join(option)}\n")
        assert not any(tmp_path.iterdir())


class TestLsescCommand:
    def test_classical_q2(self, tmp_path):
        out = tmp_path / "q2.txt"
        assert run("lsesc", "classical", 2, out) == 0
        assert out.read_text() == "L 2\n1 2\n2 1\n"

    def test_check_classical4(self, tmp_path, capsys):
        out = tmp_path / "q4.txt"
        run("lsesc", "classical", 4, out)
        assert run("lsesc", "check", out) == 0
        stdout = capsys.readouterr().out
        assert "pairwise LSESC: yes" in stdout

    def test_check_mixed_orders_exit_3_before_any_pair(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("pair tested")

        for name in ("are_lsesc", "are_mols", "first_non_lsesc_pair", "first_non_mols_pair"):
            monkeypatch.setattr(latin, name, refuse)
        # the first pair is not LSESC: a pair-by-pair check would exit 1
        path = tmp_path / "mixed.txt"
        path.write_text("L 2\n1 2\n2 1\n\nL 2\n1 2\n2 1\n\nL 1\n1\n")
        assert run("lsesc", "check", path) == 3
        out, err = capsys.readouterr()
        assert out == "" and "in one family" in err

    def test_check_failing_family(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("L 2\n1 2\n2 1\n\nL 2\n2 1\n1 2\n")
        assert run("lsesc", "check", path) == 1
        assert "pairwise LSESC: no" in capsys.readouterr().out

    def test_conjugate_mixed_orders_exit_3_and_write_nothing(self, tmp_path, capsys):
        path, out = tmp_path / "mixed.txt", tmp_path / "conjugated.txt"
        path.write_text("L 2\n1 2\n2 1\n\nL 3\n1 2 3\n2 3 1\n3 1 2\n")
        assert run("lsesc", "conjugate", path, out) == 3
        assert capsys.readouterr() == ("", "error: squares of orders 2 and 3 in one family\n")
        assert not out.exists()

    def test_conjugate_involution_bytes(self, tmp_path):
        q5, once, twice = tmp_path / "q5.txt", tmp_path / "c1.txt", tmp_path / "c2.txt"
        run("lsesc", "classical", 5, q5)
        assert run("lsesc", "conjugate", q5, once) == 0
        assert run("lsesc", "conjugate", once, twice) == 0
        assert q5.read_bytes() == twice.read_bytes()

    def test_not_prime_power(self, tmp_path):
        assert run("lsesc", "classical", 6, tmp_path / "x.txt") == 2

    def test_float_cell_exit_code(self, tmp_path):
        path = tmp_path / "float.txt"
        path.write_text("L 2\n1 2\n2 1.0\n")
        assert run("lsesc", "check", path) == 3

    def test_order_zero_exit_code(self, tmp_path, capsys):
        path = tmp_path / "empty-square.txt"
        path.write_text("L 0\n")
        assert run("lsesc", "check", path) == 3
        assert "pairwise LSESC" not in capsys.readouterr().out


def crlf_blank_lines(d):
    """bad.txt: family.txt with CRLF line ends and whitespace-only separator lines."""
    text = (d / "family.txt").read_text().replace("\n\n", "\n \t\n")
    (d / "bad.txt").write_bytes(text.replace("\n", "\r\n").encode())


def swap_last_intercalate(d):
    """bad.txt: family.txt with an intercalate (2 x 2 subsquare) of its last
    square swapped: still Latin, no longer LSESC with the others."""
    *squares, last = read_latin_set(d / "family.txt")
    c = [list(row) for row in last.cells]
    pairs = list(itertools.combinations(range(last.n), 2))
    i, i2, j, j2 = next((i, i2, j, j2) for i, i2 in pairs for j, j2 in pairs
                        if c[i][j] == c[i2][j2] and c[i][j2] == c[i2][j])
    c[i][j], c[i][j2], c[i2][j], c[i2][j2] = c[i][j2], c[i][j], c[i2][j2], c[i2][j]
    latin.write_latin_set([*squares, LatinSquare(last.n, c)], d / "bad.txt")


def shift_entry(d, i, j):
    """bad.json: bh.json with its 1-based entry (i, j) moved to the next root."""
    doc = json.loads((d / "bh.json").read_text())
    doc["exponents"][i - 1][j - 1] = (doc["exponents"][i - 1][j - 1] + 1) % doc["m"]
    (d / "bad.json").write_text(json.dumps(doc))


def copy_row(d, source, target):
    """bad.json: bh.json with its 1-based row target overwritten by row source."""
    doc = json.loads((d / "bh.json").read_text())
    doc["exponents"][target - 1] = doc["exponents"][source - 1]
    (d / "bad.json").write_text(json.dumps(doc))


Q4 = "lsesc classical 4 {d}/family.txt"
Q64 = "lsesc classical 64 {d}/family.txt"
PSI18 = ["fourier 18 {d}/f.json", "construct psi {d}/f.json -o {d}/bh.json"]

# Each case: the steps that make its input (commands that exit 0, or a
# function (d, *args) that writes a file in d), the command under test, its
# exit code, lines its stdout holds, and files in d that then hold the same
# bytes.
MADE_INPUT_CASES = {
    "conjugate-in-place": (
        [Q4, "lsesc conjugate {d}/family.txt {d}/mols.txt"],
        "lsesc conjugate {d}/mols.txt {d}/mols.txt", 0, [], ["family.txt", "mols.txt"],
    ),
    "crlf-blank-separators": (
        [Q4, (crlf_blank_lines,)], "lsesc check {d}/bad.txt", 0, ["pairwise LSESC: yes"], [],
    ),
    "classical-25": (
        ["lsesc classical 25 {d}/family.txt"], "lsesc check {d}/family.txt", 0,
        ["squares: 24, order 25", "pairwise LSESC: yes"], [],
    ),
    "classical-64": (
        [Q64], "lsesc check {d}/family.txt", 0,
        ["squares: 63, order 64", "pairwise LSESC: yes"], [],
    ),
    "classical-64-last-square-swapped": (
        [Q64, (swap_last_intercalate,)], "lsesc check {d}/bad.txt", 1,
        ["pairwise LSESC: no"], [],
    ),
    "psi-f10-family-file": (
        [Q4, "fourier 10 {d}/f.json", "construct psi {d}/f.json -o {d}/c.txt --format text"],
        "construct psi {d}/f.json -o {d}/out.txt --format text --lsesc {d}/family.txt", 0, [],
        ["c.txt", "out.txt"],
    ),
    "bh18-entry-71-91": (
        [*PSI18, (shift_entry, 71, 91)], "verify {d}/bad.json", 1, ["rows (1, 71)"], [],
    ),
    "bh18-row-100-is-row-60": (
        [*PSI18, (copy_row, 60, 100)], "verify {d}/bad.json", 1, ["rows (60, 100)"], [],
    ),
    "bh18-entry-1-1": (
        [*PSI18, (shift_entry, 1, 1)], "verify {d}/bad.json", 1,
        ["rows (1, 2)", "columns (1, 2)"], [],
    ),
    "bh17-row-200-is-row-150": (
        ["fourier 17 {d}/f.json", "construct phi {d}/f.json -o {d}/bh.json", (copy_row, 150, 200)],
        "verify {d}/bad.json", 1, ["rows (150, 200)"], [],
    ),
}


@pytest.mark.parametrize("case", MADE_INPUT_CASES)
def test_command_on_made_input(tmp_path, capsys, case):
    steps, command, code, lines, same = MADE_INPUT_CASES[case]

    def argv(text):
        return [arg.format(d=tmp_path) for arg in text.split()]

    for step in steps:
        if isinstance(step, str):
            assert run(*argv(step)) == 0
        else:
            step[0](tmp_path, *step[1:])
    capsys.readouterr()
    assert run(*argv(command)) == code
    out = capsys.readouterr().out
    assert all(line in out for line in lines)
    assert len({(tmp_path / name).read_bytes() for name in same}) <= 1


# Tokens that int() would coerce to the digit d: an underscore, a sign and
# an Arabic-Indic digit.
COERCIBLE_TOKENS = {
    "underscore": lambda d: f"0_{d}",
    "plus": lambda d: f"+{d}",
    "arabic-indic": lambda d: chr(0x660 + d),
}


@pytest.mark.parametrize("form", COERCIBLE_TOKENS)
@pytest.mark.parametrize(
    "command, text",
    [
        ("verify", "BH {2} 2\n0 0\n0 1\n"),
        ("verify", "BH 2 2\n0 {0}\n0 1\n"),
        ("lsesc check", "L {2}\n1 2\n2 1\n"),
        ("lsesc check", "L 2\n1 2\n2 {1}\n"),
    ],
    ids=["bh-header", "bh-exponent", "l-header", "l-cell"],
)
def test_coercible_token_exit_code(tmp_path, capsys, form, command, text):
    token = COERCIBLE_TOKENS[form]
    assert [int(token(d)) for d in range(3)] == [0, 1, 2]
    path = tmp_path / "coerced.txt"
    path.write_text(text.format(*map(token, range(3))), encoding="utf-8")
    assert run(*command.split(), path) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "{bad}"),
        ("construct", "psi", "{bad}", "-o", "{out}"),
        ("construct", "phi", "{f5}", "-o", "{out}", "--lsesc", "{bad}"),
        ("lsesc", "check", "{bad}"),
        ("lsesc", "conjugate", "{bad}", "{out}"),
    ],
    ids=["verify", "construct", "construct-lsesc", "lsesc-check", "lsesc-conjugate"],
)
def test_undecodable_file_exit_code(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    f5 = tmp_path / "f5.json"
    run("fourier", 5, f5)
    out = tmp_path / "out.json"
    paths = {"bad": bad, "f5": f5, "out": out}
    assert run(*(arg.format(**paths) for arg in argv)) == 3
    assert "UTF-8" in capsys.readouterr().err
    assert not out.exists()


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


# python -m bhmat once for each exit code, then each example script.
@pytest.mark.parametrize(
    "argv, code, line",
    [
        ("-m bhmat verify {d}/psi.json", 0, "ok: BH(6,12)"),
        ("-m bhmat verify {d}/flat.txt", 1, "FAIL: rows (1, 2)"),
        ("-m bhmat fourier 0 {d}/out.json", 2, "error: order must be positive"),
        ("-m bhmat verify {d}/bad.txt", 3, "error: bad matrix body"),
        ("{scripts}/reproduce_examples.py", 0, "psi(F_6): BH(6,12), verified=True"),
        ("{scripts}/scan_fourier_conditions.py", 0, "6    3          1         yes  (1,4)"),
        ("{scripts}/scan_fourier_conditions.py --max-order 130", 0,
         " 130   65          1          no  (1,66)"),
        ("{scripts}/build_family.py", 0, "r=3: BH(18,144)"),
        ("{scripts}/build_family.py --max-r +1", 2, "not an ASCII decimal integer: '+1'"),
        ("{scripts}/build_family.py --max-r 1_0", 2, "not an ASCII decimal integer: '1_0'"),
        ("{scripts}/scan_fourier_conditions.py --max-order \u0663\u0662", 2,
         "not an ASCII decimal integer: '\u0663\u0662'"),
    ],
    ids=["exit-0", "exit-1", "exit-2", "exit-3", "reproduce-examples",
         "scan-fourier-conditions", "scan-fourier-conditions-past-the-cap", "build-family",
         "build-family-plus", "build-family-underscore", "scan-fourier-conditions-arabic-indic"],
)
def test_separate_process(tmp_path, argv, code, line):
    assert run("fourier", 6, tmp_path / "f6.json") == 0
    assert run("construct", "psi", tmp_path / "f6.json", "-o", tmp_path / "psi.json") == 0
    (tmp_path / "flat.txt").write_text("BH 2 2\n0 0\n0 0\n")
    (tmp_path / "bad.txt").write_text("BH 2 2\n0 x\n")
    argv = [arg.format(d=tmp_path, scripts=SCRIPTS) for arg in argv.split()]
    result = subprocess.run([sys.executable, *argv], capture_output=True, text=True)
    assert result.returncode == code
    assert line in (result.stdout if code < 2 else result.stderr)
    assert not (tmp_path / "out.json").exists()


# Each command writes to a pipe whose reader is gone, as under `| head -1`
# once head has exited: it ends with status 1, writes nothing to stderr, and
# writes the same {out} file as a run on an open stdout.
@pytest.mark.parametrize(
    "argv",
    ["{scripts}/reproduce_examples.py",
     "{scripts}/scan_fourier_conditions.py --max-order 6",
     "{scripts}/build_family.py --max-r 1",
     "{scripts}/build_family.py --max-r 1 --outdir {out}",
     "-m bhmat fourier 6 {out}",
     "-m bhmat verify {d}/f6.json",
     "-m bhmat verify {d}/flat.txt",
     "-m bhmat verify --analyze {d}/f6.json",
     "-m bhmat construct phi {d}/f3.json -o {out}",
     "-m bhmat construct psi {d}/f6.json -o {out}",
     "-m bhmat count phi --mols 1 --card 6 --n 4",
     "-m bhmat count psi --mols 1 --card2 1 --dh 3",
     "-m bhmat lsesc classical 4 {out}",
     "-m bhmat lsesc check {d}/family.txt",
     "-m bhmat lsesc conjugate {d}/family.txt {out}"],
    ids=["reproduce-examples", "scan-fourier-conditions", "build-family",
         "build-family-outdir", "fourier", "verify-pass", "verify-fail", "verify-analyze",
         "construct-phi", "construct-psi", "count-phi", "count-psi", "lsesc-classical",
         "lsesc-check", "lsesc-conjugate"],
)
def test_script_on_closed_stdout(tmp_path, argv):
    assert run("fourier", 3, tmp_path / "f3.json") == 0
    assert run("fourier", 6, tmp_path / "f6.json") == 0
    assert run("lsesc", "classical", 4, tmp_path / "family.txt") == 0
    (tmp_path / "flat.txt").write_text("BH 2 2\n0 0\n0 0\n")

    def run_to(out, **streams):
        args = [arg.format(d=tmp_path, scripts=SCRIPTS, out=out) for arg in argv.split()]
        return subprocess.run([sys.executable, *args], text=True, **streams)

    normal = run_to(tmp_path / "normal", capture_output=True)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_to(tmp_path / "closed", stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert normal.returncode in (0, 1) and normal.stdout and normal.stderr == ""
    assert result.returncode == 1
    assert result.stderr == ""
    assert written(tmp_path / "closed") == written(tmp_path / "normal")


def written(path):
    """The bytes of the file at path, of each file in it if it is a
    directory, or None if there is nothing there."""
    if path.is_dir():
        return {child.name: child.read_bytes() for child in path.iterdir()}
    return path.read_bytes() if path.exists() else None


def test_provenance_records_reproducible_plan(tmp_path):
    src = tmp_path / "f6.json"
    out = tmp_path / "out.json"
    run("fourier", 6, src)
    run("construct", "psi", src, "-o", out)
    doc = json.loads(out.read_text())
    plan = doc["provenance"]["plan"]
    # re-running the recorded plan reproduces the same bytes
    again = tmp_path / "again.json"
    assert (
        run(
            "construct", "psi", src, "-o", again,
            "--c1-pair", *plan["c1_pair"], "--c2-cell", *plan["c2_cell"],
        )
        == 0
    )
    assert out.read_bytes() == again.read_bytes()


# Each argv succeeds when every {dN} is the plain digit N.
@pytest.mark.parametrize("form", COERCIBLE_TOKENS)
@pytest.mark.parametrize(
    "argv",
    [
        ("fourier", "{d6}", "{out}"),
        ("lsesc", "classical", "{d4}", "{out}"),
        ("construct", "phi", "{f3}", "-o", "{out}", "--delete-row", "{d2}"),
        ("construct", "psi", "{f6}", "-o", "{out}", "--c1-pair", "1", "{d4}"),
        ("construct", "psi", "{f6}", "-o", "{out}", "--c2-cell", "{d4}", "4"),
        ("construct", "psi", "{f6}", "-o", "{out}", "--pre-permute-cols", "1,2,3,4,5,{d6}"),
        ("count", "phi", "--mols", "{d1}", "--card", "1", "--n", "4"),
        ("count", "psi", "--mols", "1", "--card2", "1", "--dh", "3", "{d2}"),
    ],
    ids=["fourier", "lsesc-classical", "delete-row", "c1-pair", "c2-cell",
         "pre-permute-cols", "count-phi", "count-psi"],
)
def test_coercible_argument_exit_code(tmp_path, capsys, form, argv):
    paths = {"f3": tmp_path / "f3.json", "f6": tmp_path / "f6.json"}
    run("fourier", 3, paths["f3"])
    run("fourier", 6, paths["f6"])
    out = tmp_path / "out.json"
    digits = {f"d{d}": str(d) for d in range(10)}
    assert run(*(arg.format(out=out, **paths, **digits) for arg in argv)) == 0
    out.unlink(missing_ok=True)
    capsys.readouterr()
    digits = {f"d{d}": COERCIBLE_TOKENS[form](d) for d in range(10)}
    try:
        code = run(*(arg.format(out=out, **paths, **digits) for arg in argv))
    except SystemExit as exc:  # argparse's exit on a bad argument
        code = exc.code
    assert code == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


def raising(exc):
    def program():
        raise exc
    return program


# A BrokenPipeError repoints the caller's fd 1 at devnull, so it is tested
# only in a separate process (test_script_on_closed_stdout).
@pytest.mark.parametrize(
    "program, code, err",
    [
        (lambda: None, 0, ""),
        (lambda: 0, 0, ""),
        (lambda: 1, 1, ""),
        (raising(VerificationError("rows (1, 2)")), 1, "error: rows (1, 2)\n"),
        (raising(FormatError("bad matrix body")), 3, "error: bad matrix body\n"),
        (raising(PlanError("no C2 cell")), 2, "error: no C2 cell\n"),
        (raising(ValueError("order must be positive")), 2, "error: order must be positive\n"),
        (raising(FileNotFoundError(2, "No such file", "x.json")), 3,
         "error: [Errno 2] No such file: 'x.json'\n"),
        (raising(OSError("disk full")), 3, "error: disk full\n"),
    ],
    ids=["none", "zero", "one", "verification", "format", "plan", "value",
         "file-not-found", "os"],
)
def test_exit_status(capsys, program, code, err):
    assert exit_status(program) == code
    assert capsys.readouterr() == ("", err)


def test_broken_pipe_leaves_no_descriptor_open():
    # in a separate process, since each BrokenPipeError repoints fd 1
    code = (
        "import os, sys\n"
        "from bhmat.cli import exit_status\n"
        "def program():\n"
        "    raise BrokenPipeError\n"
        "free = os.open(os.devnull, os.O_RDONLY)\n"
        "os.close(free)\n"
        "codes = [exit_status(program), exit_status(program)]\n"
        "print(codes, os.open(os.devnull, os.O_RDONLY) == free, file=sys.stderr)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "[1, 1] True\n")


def test_exit_status_passes_other_exceptions():
    for exc in (SystemExit(2), KeyError("k"), RuntimeError("r")):
        with pytest.raises(type(exc)):
            exit_status(raising(exc))


def test_parse_permutation_is_strict():
    # --pre-permute-cols only parses: butson.permute_columns checks the order
    assert decimal_ints("1, 3 2") == [1, 3, 2]
    assert decimal_ints("2,2") == [2, 2]
    assert decimal_ints("") == []
    for text in ("+1, 0_2, \u0663", "1 2 -3", "1,,2,3x"):
        with pytest.raises(argparse.ArgumentTypeError, match="not an ASCII decimal integer"):
            decimal_ints(text)


def test_output_order_cap(tmp_path, capsys, monkeypatch):
    src = tmp_path / "f3.json"
    out = tmp_path / "out.json"
    run("fourier", 3, src)
    monkeypatch.setattr(scarpis, "OUTPUT_ORDER_CAP", 5)
    assert run("construct", "phi", src, "-o", out) == 2
    assert "phi output of order 6 has 36 cells" in capsys.readouterr().err
    assert not out.exists()


def test_output_order_cap_before_the_family(tmp_path, capsys, monkeypatch):
    # the cap is family_shape's, so construct refuses before it builds or
    # reads a family, and before the input is verified
    src, out = tmp_path / "f6.json", tmp_path / "out.json"
    run("fourier", 6, src)
    capsys.readouterr()

    def refuse(*args):
        raise AssertionError("built a family past the cap")

    monkeypatch.setattr(scarpis, "OUTPUT_ORDER_CAP", 11)
    monkeypatch.setattr(latin, "classical_lsesc_set", refuse)
    monkeypatch.setattr(butson, "verify", refuse)
    monkeypatch.setattr(scarpis, "verify", refuse)
    message = "error: psi output of order 12 has 144 cells; the output order cap is 11\n"
    for lsesc in ("classical", tmp_path / "missing.txt"):
        assert run("construct", "psi", src, "-o", out, "--lsesc", lsesc) == 2
        assert capsys.readouterr() == ("", message)
        assert not out.exists()


def run_captured(*argv):
    """main() with stdout and stderr captured; an exception escaping main
    fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def run_until_exit(*argv):
    """main() on argv, which must raise SystemExit, as argparse does for
    --help and a bad argument: (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv])
    return exc.value.code, out.getvalue(), err.getvalue()


def run_fresh(*argv):
    """python -m bhmat on argv in a new process: (exit status, stdout, stderr)."""
    result = subprocess.run(
        [sys.executable, "-m", "bhmat", *map(str, argv)], capture_output=True, text=True
    )
    return result.returncode, result.stdout, result.stderr


class TestParserReuse:
    """main builds its parser once per process, and no call leaves state
    behind that changes a later one: each call answers as a fresh
    process does."""

    def test_every_subcommand_on_one_parser(self, tmp_path, monkeypatch):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        f3, f6, out = tmp_path / "f3.json", tmp_path / "f6.json", tmp_path / "out.json"
        fam, mols = tmp_path / "fam.txt", tmp_path / "mols.txt"
        calls = [
            ("fourier", 3, f3),
            ("fourier", 6, f6),
            ("verify", f6),
            ("verify", "--analyze", f6),
            ("construct", "phi", f3, "-o", out),
            ("construct", "psi", f6, "-o", out),
            ("count", "phi", "--mols", 1, "--card", 1, "--n", 4),
            ("count", "psi", "--mols", 1, "--card2", 1, "--dh", 3, 2),
            ("lsesc", "classical", 4, fam),
            ("lsesc", "check", fam),
            ("lsesc", "conjugate", fam, mols),
        ]
        assert run_captured(*calls[0])[0] == 0
        first = len(built)
        assert first > 0
        for argv in calls[1:]:
            assert run_captured(*argv)[0] == 0, argv
        assert len(built) == first
        info = build_parser.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, len(calls) - 1, 1)

    def test_verify_after_analyze_prints_no_analysis(self, tmp_path):
        f6 = tmp_path / "f6.json"
        run_captured("fourier", 6, f6)
        code, out, err = run_captured("verify", "--analyze", f6)
        assert (code, err) == (0, "") and "C1 pairs:" in out and "C2 cells:" in out
        assert run_captured("verify", f6) == (0, "ok: BH(6,6)\n", "")

    def test_plain_construct_after_a_chosen_pair_matches_a_fresh_process(self, tmp_path):
        f6 = tmp_path / "f6.json"
        chosen, plain, fresh = (tmp_path / f"{name}.json" for name in ("chosen", "plain", "fresh"))
        run_captured("fourier", 6, f6)
        assert run_captured("construct", "psi", f6, "-o", chosen, "--c1-pair", 2, 5)[0] == 0
        code, out, err = run_captured("construct", "psi", f6, "-o", plain)
        assert (code, err) == (0, "") and "C1 pair (1, 4)" in out
        fresh_out = out.replace(str(plain), str(fresh))
        assert run_fresh("construct", "psi", f6, "-o", fresh) == (0, fresh_out, "")
        assert plain.read_bytes() == fresh.read_bytes() != chosen.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            "fourier x {d}/out.json",
            "construct psi {d}/f6.json",
            "construct psi {d}/f6.json -o {d}/out.json --c1-pair 1",
            "count psi --mols 1 --dh",
            "lsesc",
            "nosuch",
        ],
        ids=["bad-type", "missing-option", "short-nargs", "empty-nargs", "no-action",
             "no-command"],
    )
    def test_argument_error_then_valid_call(self, tmp_path, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        f6 = tmp_path / "f6.json"
        run_captured("fourier", 6, f6)
        argv = argv.format(d=tmp_path).split()
        error = run_until_exit(*argv)
        assert error[0] == 2 and error[1] == "" and "error:" in error[2]
        assert run_until_exit(*argv) == error == run_fresh(*argv)
        assert run_captured("verify", f6) == (0, "ok: BH(6,6)\n", "")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize(
        "command",
        ["", "fourier", "verify", "construct", "construct phi", "construct psi", "count",
         "count phi", "count psi", "lsesc", "lsesc classical", "lsesc check",
         "lsesc conjugate"],
    )
    def test_help_twice_matches_a_fresh_process(self, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [*command.split(), "--help"]
        first = run_until_exit(*argv)
        assert first[0] == 0 and first[1].startswith("usage: bhmat") and first[2] == ""
        assert run_until_exit(*argv) == first == run_fresh(*argv)


def test_import_builds_no_parser():
    code = "import bhmat.cli; print(bhmat.cli.build_parser.cache_info().currsize)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "0\n", "")


def run_on_text(command, text, expect):
    """Write text to a file, run the command on it, and return
    (exit code, stdout, stderr) with expect(path), the test's own reading
    of the same file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_captured(*command.split(), path)
        assert "Traceback" not in err
        return code, out, err, expect(path)


def expected_verify(path):
    """The exit code of `verify`: 3 for a file that the reference parser
    rejects, else 0 or 1 as the pair-by-pair oracle decides."""
    parsed = reference_matrix(path)
    if parsed is None:
        return 3
    return 0 if verify_oracle(ButsonMatrix(*parsed)).ok else 1


def expected_lsesc_check(path):
    """The exit code of `lsesc check`: 3 for a file that the reference
    parser rejects or whose squares differ in order, else 0 or 1 as the
    LSESC oracle decides."""
    parsed = reference_latin_set(path)
    if parsed is None or len({len(rows) for rows in parsed}) > 1:
        return 3
    squares = [LatinSquare(len(rows), rows) for rows in parsed]
    pairs = itertools.combinations(squares, 2)
    return 0 if all(are_lsesc_oracle(a, b) for a, b in pairs) else 1


@st.composite
def butson_matrices(draw):
    """Fourier matrices with rows and columns permuted and every row and
    column multiplied by a root of unity."""
    n = draw(st.integers(1, 12))
    f = fourier(n).exponents
    rows, cols = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
    shifts = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    row_shift, col_shift = draw(shifts), draw(shifts)
    return ButsonMatrix(n, n, tuple(
        tuple((f[rows[i]][cols[j]] + row_shift[i] + col_shift[j]) % n for j in range(n))
        for i in range(n)
    ))


def isotope(square, rows, cols, symbols):
    """Cell (i, j) is symbols[cell (rows[i], cols[j]) - 1] + 1."""
    n = square.n
    return LatinSquare(n, tuple(
        tuple(symbols[square.cells[rows[i]][cols[j]] - 1] + 1 for j in range(n))
        for i in range(n)
    ))


@st.composite
def lsesc_families(draw):
    """Some squares of a classical family, with one column and one symbol
    permutation for all of them and the rows of each permuted on its own;
    every pair stays LSESC."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    perm = st.permutations(range(q))
    cols, symbols = draw(perm), draw(perm)
    chosen = draw(st.lists(st.sampled_from(classical_lsesc_set(q)), min_size=1, unique_by=id))
    return [isotope(square, draw(perm), cols, symbols) for square in chosen]


@st.composite
def latin_square_lists(draw):
    """Isotopes of classical squares, each with its own permutations, of
    one order or of mixed orders: pairs of one order are mostly not LSESC."""
    orders = st.sampled_from([1, 2, 3, 4, 5])
    squares = []
    for q in draw(
        st.lists(orders, min_size=1, max_size=4)
        | orders.flatmap(lambda q: st.lists(st.just(q), min_size=2, max_size=4))
    ):
        perm = st.permutations(range(q))
        square = LatinSquare(1, ((1,),)) if q == 1 else draw(
            st.sampled_from(classical_lsesc_set(q))
        )
        squares.append(isotope(square, draw(perm), draw(perm), draw(perm)))
    return squares


# Garbage keeps every number below 100, so that the pair-by-pair oracles
# stay fast; a root order past butson.ROOT_ORDER_CAP exits 2 (see
# TestVerifyCommand).
SMALL_INTS = st.integers(-2, 99)
TOKENS = st.sampled_from(
    ["BH", "L", "x", "-1", "+1", "1.0", "0_1", "٣", "{", "}", "[", "]", ",", '"m":']
) | SMALL_INTS.map(str)
JUNK = st.characters(blacklist_categories=("Cs",)).filter(lambda c: not c.isdigit())


@st.composite
def token_soup(draw):
    lines = draw(st.lists(st.lists(TOKENS, max_size=6), max_size=8))
    ends = st.sampled_from(["\n", "\n\n", "\r\n", "\r", "\n \n", "\n\t\n", " "])
    return "".join(" ".join(line) + draw(ends) for line in lines)


@st.composite
def one_edit(draw, texts):
    """A valid text with one character deleted, replaced or inserted
    (no digit is inserted, so numbers stay small), or cut short."""
    text = draw(texts)
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["delete", "replace", "insert", "cut"]))
    if edit == "cut":
        return text[:at]
    chars = " \n+" if edit == "insert" else " \n0123456789"
    char = draw(JUNK | st.sampled_from(chars))
    return text[:at] + (char if edit != "delete" else "") + text[at + (edit != "insert"):]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | SMALL_INTS | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=5),
    max_leaves=30,
)
JSON_DOCS = st.dictionaries(
    st.sampled_from(["m", "n", "exponents", "provenance", "x"]), JSON_VALUES
).map(json.dumps)

MATRIX_TEXTS = st.builds(
    butson.dump_matrix, butson_matrices(), st.sampled_from(["json", "text"])
)
FAMILY_TEXTS = lsesc_families().map(dump_latin_set)


def family_text(squares):
    """The text dump_latin_set writes for squares of one order, also for
    squares of mixed orders, which it refuses to write."""
    return "\n".join(dump_latin_set([square]) for square in squares)


class TestParserFuzz:
    """Both parsers through the CLI: valid texts exit 0, garbage exits 0, 1
    or 3 as the oracles decide, and nothing escapes main.  A family whose
    squares differ in order is malformed: exit 3 before any pair is
    tested."""

    @settings(deadline=None)
    @given(butson_matrices(), st.sampled_from(["json", "text"]))
    def test_valid_matrix_round_trip(self, matrix, fmt):
        text = butson.dump_matrix(matrix, fmt)
        code, out, err, parsed = run_on_text("verify", text, read_matrix)
        assert (code, out, err) == (0, f"ok: BH({matrix.m},{matrix.n})\n", "")
        assert parsed[0] == matrix

    @settings(deadline=None)
    @given(lsesc_families())
    def test_valid_family_round_trip(self, squares):
        text = dump_latin_set(squares)
        code, out, err, parsed = run_on_text("lsesc check", text, read_latin_set)
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == [
            f"squares: {len(squares)}, order {squares[0].n}",
            "pairwise LSESC: yes",
        ]
        assert parsed == squares

    @settings(deadline=None)
    @given(st.one_of(token_soup(), one_edit(MATRIX_TEXTS), JSON_DOCS, one_edit(JSON_DOCS)))
    @example("BH 2 1\n+1\n")
    @example("BH 2 1\n\u0661\n")
    def test_verify_garbage(self, text):
        code, out, err, expected = run_on_text("verify", text, expected_verify)
        assert code == expected
        assert (err == "") == (code != 3)

    @settings(deadline=None)
    @given(st.one_of(
        token_soup(), one_edit(FAMILY_TEXTS), latin_square_lists().map(family_text)
    ))
    @example("L 1\n+1\n")
    @example("L 1\n\u0661\n")
    def test_lsesc_check_garbage(self, text):
        code, out, err, expected = run_on_text("lsesc check", text, expected_lsesc_check)
        assert code == expected
        assert (err == "") == (code in (0, 1))

    @pytest.mark.parametrize("end", ["\x85", "\x0b", "\x0c", "\x1c", "\x1e", "\u2028", "\u2029"])
    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("verify", "BH 2 2\n0 0{}0 1\n", "must form an 2x2 array"),
            ("lsesc check", "L 2\n1 2{}2 1\n", "needs 2 rows, got 1"),
        ],
        ids=["matrix", "family"],
    )
    def test_only_lf_crlf_and_cr_end_lines(self, command, text, message, end):
        # str.splitlines would end a line at each of these, so that both
        # files would hold a 2 x 2 square
        expect = expected_verify if command == "verify" else expected_lsesc_check
        code, out, err, expected = run_on_text(command, text.format(end), expect)
        assert (code, out, expected) == (3, "", 3)
        assert message in err

    def test_mixed_orders_exit_3(self):
        text = "L 1\n1\n\nL 2\n1 2\n2 1\n"
        code, out, err, expected = run_on_text("lsesc check", text, expected_lsesc_check)
        assert (code, out, err) == (3, "", "error: squares of orders 1 and 2 in one family\n")
        assert expected == 3

    @pytest.mark.parametrize(
        "text",
        [
            '{"m": ' + "1" * 5000 + ', "n": 1, "exponents": [[0]]}',
            '{"m": ' + "[" * 100_000 + "]" * 100_000 + "}",
        ],
        ids=["int-past-digit-limit", "nested-past-recursion-limit"],
    )
    def test_json_past_python_limits_exit_3(self, text):
        code, out, err, _ = run_on_text("verify", text, lambda path: None)
        assert (code, out) == (3, "")
        assert err.startswith("error: bad JSON: ")


# One token, put into the first cell of the first block or the last cell
# of the last block, of the classical q = 8 family (`lsesc check`) and of
# F_8 in the text format (`verify`).  The texts read through symbol
# tables, with the strict decimal check for any block that misses them
# (errors.parse_rows); each outcome below was recorded from the reader
# that called parse_decimals on every line.  SAME: the untouched family
# or matrix; an int v: F_8 with that cell set to v; a str: the
# FormatError text, printed after "error: ".
SAME = None
FAMILY8_TEXT = dump_latin_set(classical_lsesc_set(8))
F8_TEXT = butson.dump_matrix(fourier(8), "text")
NOT_DECIMAL = "not all ASCII decimal integers: "
LATIN_TOKEN_CASES = [
    ("01", "first", 0, SAME),
    ("01", "last", 3, "bad square block: not a Latin square"),
    ("007", "first", 3, "bad square block: not a Latin square"),
    ("007", "last", 3, "bad square block: not a Latin square"),
    ("+1", "first", 3, f"bad square block: {NOT_DECIMAL}'+1 2 3 4 5 6 7 8'"),
    ("+1", "last", 3, f"bad square block: {NOT_DECIMAL}'8 1 3 6 7 2 4 +1'"),
    ("1_0", "first", 3, f"bad square block: {NOT_DECIMAL}'1_0 2 3 4 5 6 7 8'"),
    ("1_0", "last", 3, f"bad square block: {NOT_DECIMAL}'8 1 3 6 7 2 4 1_0'"),
    ("١", "first", 3, f"bad square block: {NOT_DECIMAL}'١ 2 3 4 5 6 7 8'"),
    ("١", "last", 3, f"bad square block: {NOT_DECIMAL}'8 1 3 6 7 2 4 ١'"),
    ("0", "first", 3, "bad square block: entries must lie in 1..8"),
    ("0", "last", 3, "bad square block: entries must lie in 1..8"),
    ("9", "first", 3, "bad square block: entries must lie in 1..8"),
    ("9", "last", 3, "bad square block: entries must lie in 1..8"),
    ("1" * 30, "first", 3, "bad square block: entries must lie in 1..8"),
    ("1" * 30, "last", 3, "bad square block: entries must lie in 1..8"),
]
MATRIX_TOKEN_CASES = [
    ("01", "first", 1, 1),
    ("01", "last", 0, SAME),
    ("007", "first", 1, 7),
    ("007", "last", 1, 7),
    ("+1", "first", 3, f"bad matrix body: {NOT_DECIMAL}'+1 0 0 0 0 0 0 0'"),
    ("+1", "last", 3, f"bad matrix body: {NOT_DECIMAL}'0 7 6 5 4 3 2 +1'"),
    ("1_0", "first", 3, f"bad matrix body: {NOT_DECIMAL}'1_0 0 0 0 0 0 0 0'"),
    ("1_0", "last", 3, f"bad matrix body: {NOT_DECIMAL}'0 7 6 5 4 3 2 1_0'"),
    ("١", "first", 3, f"bad matrix body: {NOT_DECIMAL}'١ 0 0 0 0 0 0 0'"),
    ("١", "last", 3, f"bad matrix body: {NOT_DECIMAL}'0 7 6 5 4 3 2 ١'"),
    ("0", "first", 0, SAME),
    ("0", "last", 1, 0),
    ("8", "first", 3, "bad matrix body: exponent 8 out of range [0, 8)"),
    ("8", "last", 3, "bad matrix body: exponent 8 out of range [0, 8)"),
    ("1" * 30, "first", 3, f"bad matrix body: exponent {'1' * 30} out of range [0, 8)"),
    ("1" * 30, "last", 3, f"bad matrix body: exponent {'1' * 30} out of range [0, 8)"),
]
WHITESPACE = {
    "tabs": lambda text: text.replace(" ", "\t"),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "trailing-blanks": lambda text: text.replace("\n", " \t \n"),
}


def with_token(text, where, token):
    """text with the first cell of its first row, or the last cell of its
    last row, replaced by token."""
    lines = text.split("\n")
    k = 1 if where == "first" else len(lines) - 2
    cells = lines[k].split(" ")
    cells[0 if where == "first" else -1] = token
    lines[k] = " ".join(cells)
    return "\n".join(lines)


def outcome_of(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return str(exc)


class TestTokenTables:
    @pytest.mark.parametrize("token, where, code, expected", LATIN_TOKEN_CASES)
    def test_family_token(self, token, where, code, expected):
        text = with_token(FAMILY8_TEXT, where, token)
        got, out, err, parsed = run_on_text(
            "lsesc check", text, lambda path: outcome_of(read_latin_set, path)
        )
        assert (got, err) == (code, "" if code == 0 else f"error: {expected}\n")
        assert parsed == (classical_lsesc_set(8) if expected is SAME else expected)

    @pytest.mark.parametrize("token, where, code, expected", MATRIX_TOKEN_CASES)
    def test_matrix_token(self, token, where, code, expected):
        text = with_token(F8_TEXT, where, token)
        got, out, err, parsed = run_on_text(
            "verify", text, lambda path: outcome_of(lambda p: read_matrix(p)[0], path)
        )
        assert (got, err) == (code, f"error: {expected}\n" if code == 3 else "")
        if isinstance(expected, int):
            rows = [list(row) for row in fourier(8).exponents]
            rows[0 if where == "first" else 7][0 if where == "first" else 7] = expected
            expected = ButsonMatrix(8, 8, tuple(map(tuple, rows)))
        assert parsed == (fourier(8) if expected is SAME else expected)

    @pytest.mark.parametrize("space", WHITESPACE)
    def test_whitespace(self, space):
        for command, text, read, value in (
            ("lsesc check", FAMILY8_TEXT, read_latin_set, classical_lsesc_set(8)),
            ("verify", F8_TEXT, lambda p: read_matrix(p)[0], fourier(8)),
        ):
            code, out, err, parsed = run_on_text(command, WHITESPACE[space](text), read)
            assert (code, err, parsed) == (0, "", value)

    def test_exponents_past_the_root_order_cap(self):
        # the table stops at the cap; tokens past it are read by parse_decimals
        m = butson.ROOT_ORDER_CAP + 2
        text = f"BH {m} 2\n0 {m - 1}\n{m - 2} 4095\n"
        assert butson.parse_matrix(text)[0] == ButsonMatrix(m, 2, ((0, m - 1), (m - 2, 4095)))
        code, out, err, _ = run_on_text("verify", text, lambda path: None)
        assert (code, out) == (2, "")
