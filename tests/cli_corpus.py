"""The command-line corpus: bhmat commands and their recorded outcomes.

Each row of ROWS is an argv of `bhmat` whose file names name files that
build_inputs writes into one directory.  A row runs through cli.main in a
fresh working directory that holds a copy of each input its argv names.
Its outcome is the exit code, the exact stdout and stderr, with any
absolute path of that directory written as {d}, and the sha256 of every
file the command creates or replaces, or None for one it removes.  An
argparse refusal is recorded by its exit code, its usage line cut after
`[-h]` and its final `error:` line, since argparse's usage text differs
between Python versions.

    python tests/cli_corpus.py

re-records every outcome into cli_corpus.jsonl from the bhmat it imports
(the installed package, or src/ with PYTHONPATH=src); nothing else writes
that file.  tests/test_cli.py runs each row and compares its outcome with
the record, so a change of behaviour is a re-recorded row.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import shlex
import shutil
import tempfile
from pathlib import Path

from bhmat import cli
from bhmat.butson import ButsonMatrix, find_c2_cells, fourier, permute_columns, write_matrix
from bhmat.latin import LatinSquare, classical_lsesc_set, conjugate_lsesc_mols, write_latin_set
from bhmat.scarpis import PhiPlan, halving_family, phi

from golden import EXAMPLE1_DEPHASED, EXAMPLE2_PSI_F6

RECORD = Path(__file__).with_name("cli_corpus.jsonl")

TEXTS = {
    "garbage.txt": "not a matrix\n",
    "flat.txt": "BH 2 2\n0 0\n0 0\n",
    "bad-token.txt": "BH 2 2\n0 x\n",
    "big-m.txt": "BH 1000000 2\n0 0\n0 1\n",
    "unverified.txt": "BH 3 3\n0 0 0\n0 1 1\n0 2 1\n",
    "repeated-key.json": '{"m": 4, "n": 2, "exponents": [[0, 0], [0, 2]], "m": 8}',
    "mixed32.txt": "L 3\n1 2 3\n2 3 1\n3 1 2\n\nL 2\n1 2\n2 1\n",
    "mixed23.txt": "L 2\n1 2\n2 1\n\nL 3\n1 2 3\n2 3 1\n3 1 2\n",
    "mixed221.txt": "L 2\n1 2\n2 1\n\nL 2\n1 2\n2 1\n\nL 1\n1\n",
    "not-lsesc.txt": "L 2\n1 2\n2 1\n\nL 2\n2 1\n1 2\n",
    "float-cell.txt": "L 2\n1 2\n2 1.0\n",
    "order0.txt": "L 0\n",
}

# Matrix documents whose m, n or an exponent is not an int.
NON_INT_DOCS = {
    "float-int": {"m": 2, "n": 2, "exponents": [[0, 0], [0, 1.0]]},
    "float": {"m": 2, "n": 2, "exponents": [[0, 0], [0, 1.5]]},
    "bool": {"m": 2, "n": 2, "exponents": [[0, 0], [False, True]]},
    "string": {"m": 2, "n": 2, "exponents": [[0, 0], [0, "1"]]},
    "float-m": {"m": 2.0, "n": 2, "exponents": [[0, 0], [0, 1]]},
    "bool-n": {"m": 2, "n": True, "exponents": [[0]]},
    "string-m": {"m": "2", "n": 2, "exponents": [[0, 0], [0, 1]]},
}

# Tokens that int() would coerce to the digit d: an underscore, a sign and
# an Arabic-Indic digit.
COERCIBLE_TOKENS = {
    "underscore": lambda d: f"0_{d}",
    "plus": lambda d: f"+{d}",
    "arabic-indic": lambda d: chr(0x660 + d),
}

# Files with one coerced token, {k} standing for the digit k.
COERCED_TEXTS = {
    "bh-header": ("verify", "BH {2} 2\n0 0\n0 1\n"),
    "bh-exponent": ("verify", "BH 2 2\n0 {0}\n0 1\n"),
    "l-header": ("lsesc check", "L {2}\n1 2\n2 1\n"),
    "l-cell": ("lsesc check", "L 2\n1 2\n2 {1}\n"),
}

# Arguments that succeed with {k} the plain digit k and exit 2 with any
# coercible token for it.
COERCED_ARGUMENTS = {
    "fourier": "fourier {6} out.json",
    "lsesc-classical": "lsesc classical {4} out.txt",
    "delete-row": "construct phi f3.json -o out.json --delete-row {2}",
    "c1-pair": "construct psi f6.json -o out.json --c1-pair 1 {4}",
    "c2-cell": "construct psi f6.json -o out.json --c2-cell {4} 4",
    "pre-permute-cols": "construct psi f6.json -o out.json --pre-permute-cols 1,2,3,4,5,{6}",
    "count-phi": "count phi --mols {1} --card 1 --n 4",
    "count-psi": "count psi --mols 1 --card2 1 --dh 3 {2}",
}

ROWS = {
    # README's command block
    "fourier-6": "fourier 6 f6.json",
    "verify-f6-analyze": "verify f6.json --analyze",
    "construct-phi-f3-dephase": "construct phi f3.json -o out.json --dephase",
    "construct-psi-f6": "construct psi f6.json -o out.json",
    "construct-psi-g-h-chosen":
        "construct psi g.json h.json -o out.json --c1-pair 2 5 --c2-cell 4 4",
    "construct-phi-f5-family-file": "construct phi f5.json -o out.json --lsesc family.txt",
    "count-phi-card-6": "count phi --mols 1 --card 6 --n 4",
    "count-psi": "count psi --mols 1 --card2 1 --dh 3",
    "lsesc-classical-4": "lsesc classical 4 family.txt",
    "lsesc-check-family": "lsesc check family.txt",
    "lsesc-conjugate-family": "lsesc conjugate family.txt mols.txt",
    # fourier
    "fourier-3": "fourier 3 out.json",
    "fourier-1-text": "fourier 1 out.txt --format text",
    "fourier-0": "fourier 0 out.json",
    "fourier-past-the-cap": "fourier 2049 out.json",
    "fourier-into-a-missing-directory": "fourier 4 missing/x.json",
    "fourier-onto-a-directory": "fourier 4 directory",
    "fourier-bad-order": "fourier x out.json",
    # verify
    "verify-f12": "verify f12.json",
    "verify-f5-analyze": "verify f5.json --analyze",
    "verify-f8-analyze": "verify f8.json --analyze",
    "verify-corrupted-f3": "verify bad3.txt",
    "verify-flat": "verify flat.txt",
    "verify-garbage": "verify garbage.txt",
    "verify-bad-token": "verify bad-token.txt",
    "verify-repeated-key": "verify repeated-key.json",
    "verify-missing-file": "verify absent.json",
    "verify-root-order-past-the-cap": "verify big-m.txt",
    # construct
    "construct-phi-f5": "construct phi f5.json -o out.json",
    "construct-phi-f5-text": "construct phi f5.json -o out.txt --format text",
    "construct-phi-f5-family-file-text":
        "construct phi f5.json -o out.txt --format text --lsesc family.txt",
    "construct-phi-f3-text": "construct phi f3.json -o out.txt --format text",
    "construct-phi-f3-dephase-text": "construct phi f3.json -o out.txt --format text --dephase",
    "construct-psi-f6-text": "construct psi f6.json -o out.txt --format text",
    "construct-psi-f6-dephase": "construct psi f6.json -o out.json --dephase",
    "construct-psi-f6-recorded-plan":
        "construct psi f6.json -o out.json --c1-pair 1 4 --c2-cell 4 4",
    "construct-psi-f6-chosen": "construct psi f6.json -o out.json --c1-pair 2 5 --c2-cell 4 4",
    "construct-psi-f6-twice": "construct psi f6.json f6.json -o out.json",
    "construct-psi-not-a-c1-pair": "construct psi f6.json -o out.json --c1-pair 1 2",
    "construct-psi-not-a-c2-cell": "construct psi f6.json -o out.json --c2-cell 1 1",
    "construct-psi-f8-no-c2": "construct psi f8.json -o out.json",
    "construct-psi-f10-text": "construct psi f10.json -o out.txt --format text",
    "construct-phi-two-inputs": "construct phi g4.json f4.json -o out.json",
    "construct-phi-two-inputs-pre-permute":
        "construct phi g4.json f4.json -o out.json --pre-permute-cols 1,3,2,4",
    "construct-phi-three-inputs": "construct phi f3.json f3.json f3.json -o out.json",
    "construct-phi-delete-row-2": "construct phi f5.json -o out.json --delete-row 2",
    "construct-phi-delete-row-past-the-order": "construct phi f3.json -o out.json --delete-row 9",
    "construct-phi-family-of-wrong-order": "construct phi f5.json -o out.json --lsesc family3.txt",
    "construct-phi-mixed-family": "construct phi f4.json -o out.json --lsesc mixed32.txt",
    "construct-phi-missing-family": "construct phi f5.json -o out.json --lsesc absent.txt",
    "construct-phi-no-classical-family": "construct phi f7.json -o out.json",
    "construct-phi-past-the-output-cap": "construct phi f66.json -o out.json",
    "construct-phi-f2": "construct phi f2.json -o out.json",
    "construct-psi-f2": "construct psi f2.json -o out.json",
    "construct-psi-f4": "construct psi f4.json -o out.json",
    "construct-psi-f5": "construct psi f5.json -o out.json",
    "construct-phi-unverified": "construct phi unverified.txt -o out.json",
    "construct-psi-unverified-without-c2": "construct psi no-c2.json -o out.json",
    "construct-psi-t-check-fails": "construct psi negated.json -o out.json",
    "construct-phi-pre-permute-short": "construct phi f6.json -o out.json --pre-permute-cols 1,2",
    "construct-phi-pre-permute-empty": "construct phi f6.json -o out.json --pre-permute-cols ''",
    "construct-phi-pre-permute-blank": "construct phi f6.json -o out.json --pre-permute-cols ' , '",
    "construct-psi-pre-permute-bad-token":
        "construct psi absent.json -o out.json --pre-permute-cols 1,x",
    "construct-psi-shuffled": "construct psi shuffled.json -o out.json",
    "construct-psi-shuffled-pre-permute":
        "construct psi shuffled.json -o out.json --pre-permute-cols 1,3,2,4,5,6",
    "construct-psi-shuffled-pre-permute-dephase":
        "construct psi shuffled.json -o out.json --pre-permute-cols 1,3,2,4,5,6 --dephase",
    "construct-psi-shuffled-pre-permute-text":
        "construct psi shuffled.json -o out.txt --format text --pre-permute-cols 1,3,2,4,5,6",
    "construct-psi-without-output": "construct psi f6.json",
    "construct-psi-short-c1-pair": "construct psi f6.json -o out.json --c1-pair 1",
    # an option of the other kind, or a prefix of an option
    "construct-phi-c1-pair": "construct phi f5.json -o out.json --c1-pair 1 2",
    "construct-phi-c2-cell": "construct phi f5.json -o out.json --c2-cell 3 3",
    "construct-psi-delete-row": "construct psi f6.json -o out.json --delete-row 9",
    "construct-psi-delete-row-1": "construct psi f6.json -o out.json --delete-row 1",
    "construct-psi-d": "construct psi f6.json -o out.json --d",
    "construct-psi-de": "construct psi f6.json -o out.json --de",
    "construct-phi-c": "construct phi f5.json -o out.json --c 1 2",
    "construct-phi-del": "construct phi f5.json -o out.json --del 2",
    # count
    "count-phi": "count phi --mols 1 --card 1 --n 4",
    "count-phi-zero-mols": "count phi --mols 0 --card 9 --n 5",
    "count-phi-negative": "count phi --mols -1 --card 1 --n 3",
    "count-psi-two-dh": "count psi --mols 2 --card2 3 --dh 1 2",
    "count-phi-without-card-and-n": "count phi --mols 1",
    "count-psi-without-dh": "count psi --mols 1 --card2 2",
    "count-phi-prefix-car-for-card": "count phi --mols 1 --car 2 --n 3",
    "count-psi-prefix-mo-for-mols": "count psi --mo 1 --card2 1 --dh 3",
    "count-phi-card2": "count phi --mols 1 --card 1 --n 3 --card2 5",
    "count-phi-dh": "count phi --mols 1 --card 1 --n 3 --dh 2",
    "count-psi-card": "count psi --mols 1 --card2 1 --dh 3 --card 1",
    "count-psi-n": "count psi --mols 1 --card2 1 --dh 3 --n 4",
    "count-phi-car": "count phi --mols 1 --card 1 --n 3 --car 2",
    "count-phi-c": "count phi --mols 1 --card 1 --n 3 --c 2",
    # lsesc
    "lsesc-classical-2": "lsesc classical 2 out.txt",
    "lsesc-classical-6": "lsesc classical 6 out.txt",
    "lsesc-classical-past-the-cap": "lsesc classical 257 out.txt",
    "lsesc-check-not-lsesc": "lsesc check not-lsesc.txt",
    "lsesc-check-mixed-3-2": "lsesc check mixed32.txt",
    "lsesc-check-mixed-2-2-1": "lsesc check mixed221.txt",
    "lsesc-check-float-cell": "lsesc check float-cell.txt",
    "lsesc-check-order-0": "lsesc check order0.txt",
    "lsesc-check-missing-file": "lsesc check absent.txt",
    "lsesc-conjugate-q5": "lsesc conjugate q5.txt out.txt",
    "lsesc-conjugate-conj5": "lsesc conjugate conj5.txt out.txt",
    "lsesc-conjugate-mixed": "lsesc conjugate mixed23.txt out.txt",
    # files that are not UTF-8
    "undecodable-verify": "verify undecodable.json",
    "undecodable-construct": "construct psi undecodable.json -o out.json",
    "undecodable-construct-lsesc": "construct phi f5.json -o out.json --lsesc undecodable.json",
    "undecodable-lsesc-check": "lsesc check undecodable.json",
    "undecodable-lsesc-conjugate": "lsesc conjugate undecodable.json out.json",
    # made inputs
    "made-conjugate-in-place": "lsesc conjugate conj4.txt conj4.txt",
    "made-crlf-blank-separators": "lsesc check crlf.txt",
    "made-classical-25": "lsesc check q25.txt",
    "made-classical-64": "lsesc check q64.txt",
    "made-classical-64-last-square-swapped": "lsesc check q64-swapped.txt",
    "made-psi-f10-family-file":
        "construct psi f10.json -o out.txt --format text --lsesc family.txt",
    "made-bh18-entry-71-91": "verify bh18-entry-71-91.json",
    "made-bh18-row-100-is-row-60": "verify bh18-row-100-is-row-60.json",
    "made-bh18-entry-1-1": "verify bh18-entry-1-1.json",
    "made-bh17-row-200-is-row-150": "verify bh17-row-200-is-row-150.json",
    **{f"verify-json-{name}": f"verify json-{name}.json" for name in NON_INT_DOCS},
    **{
        f"coerced-{case}-{form}": f"{command} {case}-{form}.txt"
        for case, (command, _) in COERCED_TEXTS.items()
        for form in COERCIBLE_TOKENS
    },
    **{f"argument-{name}": text.format(*range(10)) for name, text in COERCED_ARGUMENTS.items()},
    **{
        f"argument-{name}-{form}": text.format(*map(token, range(10)))
        for name, text in COERCED_ARGUMENTS.items()
        for form, token in COERCIBLE_TOKENS.items()
    },
}
ROWS = {name: shlex.split(text) for name, text in ROWS.items()}

# Rows whose one written file holds the bytes of an input file or of the
# file that another row writes: the worked examples of tests/golden.py,
# conjugation both ways and in place, a family file against the classical
# family, and psi run on the plan that its provenance records.
SAME = {
    "construct-phi-f3-dephase-text": "ex1.txt",
    "construct-psi-f6-text": "ex2.txt",
    "construct-psi-shuffled-pre-permute-text": "ex2.txt",
    "lsesc-conjugate-q5": "conj5.txt",
    "lsesc-conjugate-conj5": "q5.txt",
    "made-conjugate-in-place": "family.txt",
    "made-psi-f10-family-file": "construct-psi-f10-text",
    "construct-phi-f5-family-file-text": "construct-phi-f5-text",
    "construct-psi-f6-recorded-plan": "construct-psi-f6",
}


def changed(b: ButsonMatrix, cells: dict[tuple[int, int], int]) -> ButsonMatrix:
    """b with each 1-based entry (i, j) of cells set to its value."""
    rows = [list(row) for row in b.exponents]
    for (i, j), value in cells.items():
        rows[i - 1][j - 1] = value
    return ButsonMatrix(b.m, b.n, tuple(map(tuple, rows)))


def swap_last_intercalate(squares: list[LatinSquare]) -> list[LatinSquare]:
    """squares with an intercalate (2 x 2 subsquare) of the last one
    swapped: still Latin, no longer LSESC with the others."""
    *squares, last = squares
    c = [list(row) for row in last.cells]
    pairs = list(itertools.combinations(range(last.n), 2))
    i, i2, j, j2 = next((i, i2, j, j2) for i, i2 in pairs for j, j2 in pairs
                        if c[i][j] == c[i2][j2] and c[i][j2] == c[i2][j])
    c[i][j], c[i][j2], c[i2][j], c[i2][j2] = c[i][j2], c[i][j], c[i2][j2], c[i2][j]
    return [*squares, LatinSquare(last.n, c)]


def build_inputs(d: Path) -> None:
    """Write every input file of the rows into the directory d."""
    for n in (2, 3, 4, 5, 6, 7, 8, 10, 12, 66):
        write_matrix(fourier(n), d / f"f{n}.json")
    f6 = fourier(6)
    write_matrix(f6, d / "g.json")
    write_matrix(f6, d / "h.json")
    write_matrix(permute_columns(fourier(4), [1, 3, 2, 4]), d / "g4.json")
    # swapping columns 2 and 3 of F_6 kills C1 but keeps C2
    write_matrix(permute_columns(f6, [1, 3, 2, 4, 5, 6]), d / "shuffled.json")
    write_matrix(ButsonMatrix(3, 6, EXAMPLE1_DEPHASED), d / "ex1.txt", fmt="text")
    write_matrix(ButsonMatrix(6, 12, EXAMPLE2_PSI_F6), d / "ex2.txt", fmt="text")
    write_matrix(changed(fourier(3), {(2, 3): 0}), d / "bad3.txt", fmt="text")
    # entry (4,4) is F_6's only C2 witness; zeroing it also breaks
    # orthogonality, and the verification failure must win
    no_c2 = changed(f6, {(4, 4): 0})
    assert not find_c2_cells(no_c2)
    write_matrix(no_c2, d / "no-c2.json")
    # F_6 with rows 2 and 3 negated verifies and has the C2 cell (4, 4),
    # but the T behind that cell fails the check
    negated = {(i, j): (f6.exponents[i - 1][j - 1] + 3) % 6 for i in (2, 3) for j in range(1, 7)}
    write_matrix(changed(f6, negated), d / "negated.json")
    bh18, bh17 = halving_family(3), phi(PhiPlan(h=fourier(17), tensors=classical_lsesc_set(16)))
    e18, e17 = bh18.exponents, bh17.exponents
    for name, b, cells in [
        ("bh18-entry-71-91", bh18, {(71, 91): (e18[70][90] + 1) % 18}),
        ("bh18-row-100-is-row-60", bh18, {(100, j + 1): v for j, v in enumerate(e18[59])}),
        ("bh18-entry-1-1", bh18, {(1, 1): (e18[0][0] + 1) % 18}),
        ("bh17-row-200-is-row-150", bh17, {(200, j + 1): v for j, v in enumerate(e17[149])}),
    ]:
        write_matrix(changed(b, cells), d / f"{name}.json")

    q4, q5 = classical_lsesc_set(4), classical_lsesc_set(5)
    write_latin_set(q4, d / "family.txt")
    write_latin_set(list(map(conjugate_lsesc_mols, q4)), d / "conj4.txt")
    write_latin_set(classical_lsesc_set(3), d / "family3.txt")
    write_latin_set(q5, d / "q5.txt")
    write_latin_set(list(map(conjugate_lsesc_mols, q5)), d / "conj5.txt")
    write_latin_set(classical_lsesc_set(25), d / "q25.txt")
    q64 = classical_lsesc_set(64)
    write_latin_set(q64, d / "q64.txt")
    write_latin_set(swap_last_intercalate(q64), d / "q64-swapped.txt")
    # CRLF line ends and whitespace-only lines between the squares
    crlf = (d / "family.txt").read_text().replace("\n\n", "\n \t\n").replace("\n", "\r\n")
    (d / "crlf.txt").write_bytes(crlf.encode())

    texts = dict(TEXTS)
    texts.update((f"json-{name}.json", json.dumps(doc)) for name, doc in NON_INT_DOCS.items())
    for case, (_, text) in COERCED_TEXTS.items():
        for form, token in COERCIBLE_TOKENS.items():
            texts[f"{case}-{form}.txt"] = text.format(*map(token, range(3)))
    for name, text in texts.items():
        (d / name).write_text(text, encoding="utf-8")
    (d / "undecodable.json").write_bytes(b"\xff\xfe{")
    (d / "directory").mkdir()


def _files(d: Path) -> dict[str, tuple[int, str]]:
    """(inode, sha256) of each file under d, by its path relative to d."""
    return {
        path.relative_to(d).as_posix():
            (path.stat().st_ino, hashlib.sha256(path.read_bytes()).hexdigest())
        for path in d.rglob("*") if path.is_file()
    }


def run_row(argv: list[str], inputs: Path, d: Path) -> dict:
    """The outcome of argv run in the empty directory d, after each file
    or directory of inputs that argv names is copied into d."""
    for name in argv:
        if name and (inputs / name).is_file():
            shutil.copyfile(inputs / name, d / name)
        elif name and (inputs / name).is_dir():
            shutil.copytree(inputs / name, d / name)
    before = _files(d)
    out, err, cwd, refused = io.StringIO(), io.StringIO(), os.getcwd(), False
    os.chdir(d)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse refused argv
        code, refused = exc.code, True
    finally:
        os.chdir(cwd)
    stdout, stderr = out.getvalue(), err.getvalue()
    if refused:
        usage = stderr.partition(" [-h]")[0]
        stderr = f"{usage} [-h] ...\n{stderr.splitlines()[-1]}\n"
    after = _files(d)
    files = {
        name: after[name][1] if name in after else None
        for name in sorted(before.keys() | after.keys()) if before.get(name) != after.get(name)
    }
    place = str(d)
    return {"argv": argv, "code": code, "stdout": stdout.replace(place, "{d}"),
            "stderr": stderr.replace(place, "{d}"), "files": files}


def recorded() -> dict[str, dict]:
    """The recorded outcome of each row, by row name, in recording order."""
    lines = RECORD.read_text(encoding="utf-8").splitlines()
    return {outcome.pop("row"): outcome for outcome in map(json.loads, lines)}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp, "inputs")
        inputs.mkdir()
        build_inputs(inputs)
        lines = [
            json.dumps({"row": name, **run_row(argv, inputs, Path(tempfile.mkdtemp(dir=tmp)))},
                       sort_keys=True)
            for name, argv in ROWS.items()
        ]
    RECORD.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"recorded {len(lines)} rows in {RECORD}")
