import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import cli_corpus
from bhmat import butson, latin, scarpis
from bhmat.butson import ButsonMatrix, fourier, read_matrix, write_matrix
from bhmat.cli import build_parser, decimal_ints, exit_status, main
from bhmat.errors import FormatError, PlanError, VerificationError
from bhmat.latin import LatinSquare, classical_lsesc_set, dump_latin_set, read_latin_set

from oracles import are_lsesc_oracle, reference_latin_set, reference_matrix, verify_oracle

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
RECORD = cli_corpus.recorded()


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="session")
def corpus_inputs(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("corpus-inputs")
    cli_corpus.build_inputs(inputs)
    return inputs


@pytest.fixture
def corpus(corpus_inputs, tmp_path_factory):
    """Check corpus rows: each outcome is the recorded one, and a row of
    cli_corpus.SAME writes the bytes of its input file or of its row."""

    def check(*rows):
        for row in rows:
            d = tmp_path_factory.mktemp(row)
            assert cli_corpus.run_row(cli_corpus.ROWS[row], corpus_inputs, d) == RECORD[row]
            if row in cli_corpus.SAME:
                (written,) = RECORD[row]["files"].values()
                source = cli_corpus.SAME[row]
                if source in RECORD:
                    assert list(RECORD[source]["files"].values()) == [written]
                else:
                    assert hashlib.sha256((corpus_inputs / source).read_bytes()).hexdigest() == written

    return check


@pytest.mark.parametrize("row", cli_corpus.ROWS)
def test_corpus_row(corpus, row):
    corpus(row)


def test_corpus_record_is_of_these_rows():
    assert list(RECORD) == list(cli_corpus.ROWS)


def test_readme_commands_are_rows():
    # each line of the block under "## Command line", less its comment, is
    # the argv of a row that exits 0
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line\n\n```\n")[1].split("```")[0]
    argvs = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert argvs and all(argv[0] == "bhmat" for argv in argvs)
    for argv in argvs:
        codes = [outcome["code"] for outcome in RECORD.values() if outcome["argv"] == argv[1:]]
        assert codes and set(codes) == {0}, argv


def _spy(monkeypatch, *names):
    """Record (name, m, n) of each call of the butson functions names on a
    matrix, made through butson or scarpis."""
    calls = []
    for name in names:
        real = getattr(butson, name)

        def spying(b, real=real, name=name):
            calls.append((name, b.m, b.n))
            return real(b)

        monkeypatch.setattr(butson, name, spying)
        monkeypatch.setattr(scarpis, name, spying)
    return calls


# The tests named after one command keep their names as one-liners: each
# checks the corpus rows that hold its commands.
class TestFourierCommand:
    def test_writes_json(self, corpus): corpus("fourier-3")
    def test_writes_text(self, corpus): corpus("fourier-1-text")

    @pytest.mark.parametrize("name", ["missing/x.json", "directory"])
    def test_failed_write_names_target(self, corpus, name):
        missing = name != "directory"
        corpus("fourier-into-a-missing-directory" if missing else "fourier-onto-a-directory")

    def test_order_above_cap_is_plan_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(butson, "FOURIER_ORDER_CAP", 4)
        out = tmp_path / "f5.json"
        assert run("fourier", 5, out) == 2
        assert not out.exists()
        assert "order 5 has 25 cells" in capsys.readouterr().err
        assert run("fourier", 4, out) == 0

    def test_round_trip_bit_exact(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert run("fourier", 5, first) == 0
        matrix, provenance = read_matrix(first)
        write_matrix(matrix, second, provenance=provenance)
        assert first.read_bytes() == second.read_bytes()


class TestVerifyCommand:
    def test_fourier12_passes(self, corpus): corpus("verify-f12")
    def test_corrupted_file_fails_with_pair(self, corpus): corpus("verify-corrupted-f3")
    def test_analyze_f6(self, corpus): corpus("verify-f6-analyze")
    def test_parse_failure_exit_code(self, corpus): corpus("verify-garbage")
    def test_repeated_json_key_exit_code(self, corpus): corpus("verify-repeated-key")
    def test_missing_file_exit_code(self, corpus): corpus("verify-missing-file")
    def test_root_order_past_cap_exit_code(self, corpus): corpus("verify-root-order-past-the-cap")

    @pytest.mark.parametrize("doc", cli_corpus.NON_INT_DOCS)
    def test_non_int_json_fields_exit_code(self, corpus, doc): corpus(f"verify-json-{doc}")


class TestConstructCommand:
    def test_psi_without_c2_is_plan_error(self, corpus): corpus("construct-psi-f8-no-c2")
    def test_deterministic_bytes(self, corpus): corpus("construct-psi-f6")
    def test_two_input_phi(self, corpus): corpus("construct-phi-two-inputs")
    def test_lsesc_from_file(self, corpus): corpus("construct-phi-f5-family-file")
    def test_lsesc_file_wrong_order(self, corpus): corpus("construct-phi-family-of-wrong-order")
    def test_unavailable_classical_family(self, corpus): corpus("construct-phi-no-classical-family")
    def test_unverified_input_exit_code(self, corpus): corpus("construct-phi-unverified")
    def test_text_output_format(self, corpus): corpus("construct-phi-f3-text")
    def test_t_check_failure_is_plan_error(self, corpus): corpus("construct-psi-t-check-fails")

    def test_pre_permute_bad_token_before_any_input_is_read(self, corpus):
        corpus("construct-psi-pre-permute-bad-token")

    def test_corrupted_input_without_c2_exits_1(self, corpus):
        corpus("construct-psi-unverified-without-c2")

    def test_phi_example1(self, corpus):
        corpus("construct-phi-f3-dephase", "construct-phi-f3-dephase-text")

    def test_psi_example2(self, corpus):
        corpus("construct-psi-f6", "construct-psi-f6-text")

    def test_lsesc_file_mixed_orders_exit_3(self, corpus):
        corpus("construct-phi-mixed-family", "lsesc-check-mixed-3-2")

    def test_pre_permute_short_of_the_order(self, corpus):
        corpus(*(f"construct-phi-pre-permute-{case}" for case in ("short", "empty", "blank")))

    def test_pre_permute_restores_c1(self, corpus):
        corpus("construct-psi-shuffled", "construct-psi-shuffled-pre-permute",
               "construct-psi-shuffled-pre-permute-text")

    @pytest.mark.parametrize(
        "option",
        ["phi-c1-pair", "phi-c2-cell", "psi-delete-row", "psi-delete-row-1", "psi-d", "psi-de",
         "phi-c", "phi-del"],
    )
    def test_option_of_the_other_construction(self, corpus, option):
        corpus(f"construct-{option}")

    @pytest.mark.parametrize(
        "kind, n, message",
        [
            ("phi", 2, "phi needs order >= 3"),
            ("psi", 4, "psi needs order >= 6"),
            ("psi", 2, "psi needs order >= 6"),
        ],
    )
    def test_small_order_names_the_order(self, corpus, kind, n, message):
        corpus(f"construct-{kind}-f{n}")

    def test_lsesc_file_builds_no_tensor(self, corpus, monkeypatch):
        def forbidden(self):
            raise AssertionError("LatinTensor built")

        monkeypatch.setattr(latin.LatinTensor, "__post_init__", forbidden)
        corpus("construct-phi-f5-family-file", "construct-phi-f5-text",
               "construct-phi-f5-family-file-text")

    def test_each_matrix_verified_once(self, corpus, monkeypatch):
        calls = _spy(monkeypatch, "verify")
        corpus("construct-phi-f5")
        assert calls == [("verify", 5, 5), ("verify", 5, 20)]

    def test_equal_inputs_verified_once(self, corpus, monkeypatch):
        # the two inputs are loaded separately, so they are equal, not identical
        calls = _spy(monkeypatch, "verify")
        corpus("construct-psi-f6-twice")
        assert calls == [("verify", 6, 6), ("verify", 6, 12)]

    @pytest.mark.parametrize("row", ["construct-psi-f6", "construct-psi-f6-chosen"],
                             ids=["first", "chosen"])
    def test_c1_and_c2_scanned_once(self, corpus, monkeypatch, row):
        # the provenance names the pair and cell from that one scan
        calls = _spy(monkeypatch, "find_c1_pairs", "find_c2_cells")
        corpus(row)
        assert sorted(name for name, _, _ in calls) == ["find_c1_pairs", "find_c2_cells"]

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
    def test_phi(self, corpus): corpus("count-phi")
    def test_psi(self, corpus): corpus("count-psi")
    def test_psi_multiple_dh(self, corpus): corpus("count-psi-two-dh")
    def test_zero_mols(self, corpus): corpus("count-phi-zero-mols")

    def test_missing_arguments(self, corpus):
        corpus("count-phi-without-card-and-n", "count-psi-without-dh",
               "count-phi-prefix-car-for-card", "count-psi-prefix-mo-for-mols")

    @pytest.mark.parametrize(
        "option", ["phi-card2", "phi-dh", "psi-card", "psi-n", "phi-car", "phi-c"]
    )
    def test_option_of_the_other_kind(self, corpus, option): corpus(f"count-{option}")


class TestLsescCommand:
    def test_classical_q2(self, corpus): corpus("lsesc-classical-2")
    def test_check_classical4(self, corpus): corpus("lsesc-check-family")
    def test_check_failing_family(self, corpus): corpus("lsesc-check-not-lsesc")
    def test_not_prime_power(self, corpus): corpus("lsesc-classical-6")
    def test_float_cell_exit_code(self, corpus): corpus("lsesc-check-float-cell")
    def test_order_zero_exit_code(self, corpus): corpus("lsesc-check-order-0")

    def test_conjugate_mixed_orders_exit_3_and_write_nothing(self, corpus):
        corpus("lsesc-conjugate-mixed")

    def test_conjugate_involution_bytes(self, corpus):
        corpus("lsesc-conjugate-q5", "lsesc-conjugate-conj5")

    def test_check_mixed_orders_exit_3_before_any_pair(self, corpus, monkeypatch):
        def refuse(*args):
            raise AssertionError("pair tested")

        for name in ("are_lsesc", "are_mols", "first_non_lsesc_pair", "first_non_mols_pair"):
            monkeypatch.setattr(latin, name, refuse)
        # the first pair is not LSESC: a pair-by-pair check would exit 1
        corpus("lsesc-check-mixed-2-2-1")


def cases(prefix):
    """The names of the corpus rows that begin with prefix, less prefix."""
    return [row.removeprefix(prefix) for row in cli_corpus.ROWS if row.startswith(prefix)]


@pytest.mark.parametrize("case", cases("made-"))
def test_command_on_made_input(corpus, case): corpus(f"made-{case}")


@pytest.mark.parametrize("case", cases("undecodable-"))
def test_undecodable_file_exit_code(corpus, case): corpus(f"undecodable-{case}")


@pytest.mark.parametrize("form", cli_corpus.COERCIBLE_TOKENS)
@pytest.mark.parametrize("case", cli_corpus.COERCED_TEXTS)
def test_coercible_token_exit_code(corpus, form, case): corpus(f"coerced-{case}-{form}")


@pytest.mark.parametrize("form", cli_corpus.COERCIBLE_TOKENS)
@pytest.mark.parametrize("argument", cli_corpus.COERCED_ARGUMENTS)
def test_coercible_argument_exit_code(corpus, form, argument):
    corpus(f"argument-{argument}", f"argument-{argument}-{form}")


def test_provenance_records_reproducible_plan(corpus):
    corpus("construct-psi-f6", "construct-psi-f6-recorded-plan")


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


def test_decimal_ints_is_strict():
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
