"""The benchmark's workloads: seeded inputs and the operation list of one pass.

An operation times one call into bhmat (``run``) and then, untimed, reports
an outcome (``observe``) that run.py compares with its pin in pins.json,
plus counts that must repeat exactly from pass to pass.  Every workload has
operations of each timed kind, so that every end-to-end metric has a value
on every workload:

- ``construct``: phi, psi or halving_family, or ``bhmat construct``;
- ``family``: building or checking a complete LSESC family, or ``bhmat lsesc``;
- ``accept``: a verdict on a valid matrix;
- ``reject``: a verdict on a matrix with one corrupted entry.

``malformed`` operations (cli_files only) feed unparsable files to the CLI.

The seed draws the corrupted cells and exponent shifts, the column
permutation and deleted row of the two-input phi, and the malformed
variants.  Corrupted cells are stratified over the rows and columns: the
verifier stops at the first bad pair, so one uniformly drawn cell per
matrix would make the reject time depend on the seed.
"""

from __future__ import annotations

import cmath
import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import comb, gcd
from pathlib import Path
from random import Random
from typing import Any, Callable

from bhmat import (
    ButsonMatrix,
    PhiPlan,
    are_lsesc,
    are_mols,
    check_t_properties,
    classical_lsesc_set,
    conjugate_lsesc_mols,
    core,
    dephase,
    encode,
    enumerate_elements,
    extract_t,
    find_c1_pairs,
    find_c2_cells,
    fourier,
    halving_family,
    inflate,
    make_field,
    matrix_digest,
    permute_columns,
    phi,
    prime_power,
    reconstruct,
    verify,
)
from bhmat import butson, cli, latin
from bhmat.errors import FormatError

# Corrupted copies per matrix: enough that summed reject times are steady.
LIBRARY_CORRUPTIONS = 8
CLI_CORRUPTIONS = 4
# Times in a row that the small halving_family(2) operations of
# lsesc_families run (see repeated): timed once, right after the order-32
# families, they varied by a third from run to run.
LSESC_HALVING_REPEATS = 5
# Times in a row that phi_odd runs each operation but phi itself: a pass
# of phi_odd is mostly phi on F_17, so a run has only three or four passes,
# too few calls for the small operations to be timed steadily.
PHI_REPEATS = 3
# Squares per encode, inflate, reconstruct and conjugate operation, and
# square pairs per are_lsesc operation, of lsesc_families: about a tenth
# of a second each at q = 32.
LSESC_CHUNK = 4
LSESC_PAIRS_CHUNK = 64


@dataclass
class Op:
    name: str
    kind: str
    # The timed part: (tracer, prepared input) -> raw result.
    run: Callable[[Any, Any], Any]
    # Untimed: raw result -> (outcome compared with the pin, counts).
    observe: Callable[[Any], tuple[dict[str, Any], dict[str, int]]]
    # The documented outcome; pins record it where it differs from the seed's.
    documented: dict[str, Any] = field(default_factory=dict)
    # Untimed input preparation, run just before ``run``.
    prepare: Callable[[], Any] | None = None


# --- helpers -----------------------------------------------------------------


def cells(b: ButsonMatrix) -> int:
    """Entry-pair comparisons of a full row-and-column check: n^2 (n - 1)."""
    return b.n * b.n * (b.n - 1)


def text_sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tensors_digest(tensors: list[latin.LatinTensor]) -> str:
    images = [[t.row_images(k) for k in range(1, t.n + 1)] for t in tensors]
    return text_sha(repr(images))


def pairwise(pred: Callable[[Any, Any], bool], items: list[Any]) -> bool:
    return all(pred(items[i], items[j]) for i in range(len(items)) for j in range(i + 1, len(items)))


def rows_orthogonal(b: ButsonMatrix) -> bool:
    """Row check independent of bhmat.verify; rows suffice for a square matrix.

    A nonzero sum of n m-th roots of unity is an algebraic integer whose
    phi(m) conjugates have modulus at most n and multiply to at least 1, so
    its own modulus is at least n^-(phi(m)-1).  Half that bound is the
    threshold, which must stay far above the float error of a length-n sum.
    """
    totient = sum(1 for k in range(1, b.m + 1) if gcd(k, b.m) == 1)
    threshold = 0.5 * float(b.n) ** -(totient - 1)
    if threshold < 1e-12:
        raise ValueError(f"BH({b.m},{b.n}) is too large for the float row check")
    roots = [cmath.exp(2j * cmath.pi * k / b.m) for k in range(b.m)]
    rows = [[roots[e] for e in row] for row in b.exponents]
    conj = [[v.conjugate() for v in row] for row in rows]
    for i in range(b.n):
        for j in range(i + 1, b.n):
            if abs(sum(x * y for x, y in zip(rows[i], conj[j]))) > threshold:
                return False
    return True


def corrupt(b: ButsonMatrix, i: int, j: int, shift: int) -> ButsonMatrix:
    rows = [list(row) for row in b.exponents]
    rows[i][j] = (rows[i][j] + shift) % b.m
    return ButsonMatrix(b.m, b.n, tuple(tuple(row) for row in rows))


def corruption_cells(rng: Random, n: int, m: int, k: int) -> list[tuple[int, int, int]]:
    """k cells (row, column, shift), one per stratum of rows; column strata permuted."""
    col_strata = rng.sample(range(k), k)
    out = []
    for t in range(k):
        i = rng.randrange(t * n // k, (t + 1) * n // k)
        c = col_strata[t]
        j = rng.randrange(c * n // k, (c + 1) * n // k)
        out.append((i, j, rng.randrange(1, m)))
    return out


def release(state: dict[str, Any], key: str) -> Callable[[], None]:
    """Preparation that frees the last pass's result before the call is timed."""

    def prepare() -> None:
        state.pop(key, None)

    return prepare


def first_bad_pair(index: int) -> tuple[int, int]:
    """First failing pair in scan order when only row (or column) ``index`` changed."""
    return (1, index + 1) if index else (1, 2)


def fourier_sylvester(n: int, k: int) -> ButsonMatrix:
    """F_n Kronecker the Sylvester Hadamard matrix of order 2^k: a BH(n, n 2^k)
    for even n, built without the verification a bhmat construction runs."""
    f = fourier(n).exponents
    size = 2**k
    half = n // 2
    rows = tuple(
        tuple((f[a][c] + half * (bin(b & d).count("1") % 2)) % n for c in range(n) for d in range(size))
        for a in range(n) for b in range(size)
    )
    return ButsonMatrix(n, n * size, rows)


def repeated(ops: list[Op], times: int) -> list[Op]:
    """Each operation ``times`` times in a row: more calls for run.py to
    take the operation's median time from."""
    return [op for op in ops for _ in range(times)]


def run_cli(args: list[str]) -> int:
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        return cli.main(args)


def field_of(q: int) -> Callable[[], Any]:
    p, r = prime_power(q)
    return lambda: enumerate_elements(make_field(p, r))


# --- replicas of the public calls a construction makes -------------------------


def family_stages(t: Any, call: int, q: int) -> list[latin.LatinTensor]:
    """classical_tensor_set(q), stage by stage."""
    t.stage(call, "galois.field", field_of(q))
    squares = t.stage(call, "latin.classical", lambda: classical_lsesc_set(q))
    return t.stage(call, "latin.encode", lambda: [encode(s) for s in squares])


def family_check_stages(t: Any, call: int, tensors: list[latin.LatinTensor]) -> None:
    squares = t.stage(call, "latin.reconstruct", lambda: [reconstruct(x) for x in tensors])
    t.stage(call, "latin.lsesc_check", lambda: pairwise(are_lsesc, squares))


def psi_stages(
    t: Any, call: int, h: ButsonMatrix, tensors: list[latin.LatinTensor],
    out: ButsonMatrix, checks: int = 1,
) -> None:
    """What psi does besides assembly; the CLI resolves and verifies twice."""
    for _ in range(checks):
        t.stage(call, "butson.analysis", lambda: (find_c2_cells(h), find_c1_pairs(h)))
    family_check_stages(t, call, tensors)
    for _ in range(checks):
        t.stage(call, "butson.verify_in", lambda: verify(h))
    cell = find_c2_cells(h)[0]
    ext = t.stage(call, "butson.extract_t", lambda: extract_t(h, cell))
    t.stage(call, "scarpis.check_t", lambda: check_t_properties(ext, h.m))
    t.stage(call, "latin.inflate", lambda: [inflate(x, 2) for x in tensors])
    t.stage(call, "butson.verify_out", lambda: verify(out))


def phi_stages(
    t: Any, call: int, h: ButsonMatrix, g: ButsonMatrix | None,
    tensors: list[latin.LatinTensor], out: ButsonMatrix, checks: int = 1,
) -> None:
    family_check_stages(t, call, tensors)
    for _ in range(checks):
        t.stage(call, "butson.verify_in", lambda: verify(h))
        if g is not None:
            t.stage(call, "butson.verify_in", lambda: verify(g))
    t.stage(call, "butson.analysis", lambda: core(h))
    t.stage(call, "butson.verify_out", lambda: verify(out))


# --- operation builders --------------------------------------------------------


def accept_op(name: str, b: ButsonMatrix) -> Op:
    def run(t: Any, _: Any) -> Any:
        with t.span("butson.verify_in"):
            return verify(b)

    return Op(name, "accept", run, lambda rep: ({"ok": rep.ok}, {}), {"ok": True})


def output_accept_op(label: str, state: dict[str, Any]) -> Op:
    """A second verdict on the valid matrix that operation ``label`` made."""

    def run(t: Any, out: ButsonMatrix) -> Any:
        with t.span("butson.verify_out"):
            return verify(out), cells(out)

    def observe(raw: Any) -> tuple[dict[str, Any], dict[str, int]]:
        rep, n_cells = raw
        return {"ok": rep.ok}, {"verify_cells": n_cells}

    return Op(f"{label} verify output", "accept", run, observe, {"ok": True}, lambda: state[label])


def reject_ops(label: str, state: dict[str, Any], rng: Random, n: int, m: int) -> list[Op]:
    """Single-entry corruptions of the matrix that operation ``label`` made."""

    def make(k: int, i: int, j: int, shift: int) -> Op:
        def run(t: Any, bad: ButsonMatrix) -> Any:
            with t.span("butson.reject"):
                return verify(bad)

        def observe(rep: Any) -> tuple[dict[str, Any], dict[str, int]]:
            pairs = (rep.bad_row_pair, rep.bad_col_pair) == (first_bad_pair(i), first_bad_pair(j))
            return {"ok": rep.ok, "first_bad_pairs": pairs}, {}

        return Op(
            f"{label} reject #{k}", "reject", run, observe,
            {"ok": False, "first_bad_pairs": True},
            prepare=lambda: corrupt(state[label], i, j, shift),
        )

    cells_drawn = corruption_cells(rng, n, m, LIBRARY_CORRUPTIONS)
    return [make(k, *cell) for k, cell in enumerate(cells_drawn)]


def family_op(name: str, q: int, state: dict[str, Any], doubled: bool) -> Op:
    """classical_tensor_set(q), checked pairwise, and inflated by two when
    psi will consume it."""

    def run(t: Any, _: Any) -> Any:
        with t.span("latin.classical") as cls:
            squares = classical_lsesc_set(q)
        if t.on:
            t.stage(cls, "galois.field", field_of(q))
        with t.span("latin.lsesc_check"):
            lsesc_ok = pairwise(are_lsesc, squares)
        with t.span("latin.encode"):
            tensors = [encode(s) for s in squares]
        state[name] = tensors
        if not doubled:
            return squares, lsesc_ok, tensors
        with t.span("latin.inflate"):
            return squares, lsesc_ok, [inflate(x, 2) for x in tensors]

    def observe(raw: Any) -> tuple[dict[str, Any], dict[str, int]]:
        squares, lsesc_ok, tensors = raw
        outcome = {
            "squares": text_sha(latin.dump_latin_set(squares)),
            "lsesc": lsesc_ok,
            "tensors": tensors_digest(tensors),
        }
        return outcome, {"lsesc_pairs": comb(len(squares), 2)}

    return Op(name, "family", run, observe, prepare=release(state, name))


def halving_op(r: int, state: dict[str, Any]) -> Op:
    """halving_family(r), which runs psi on F_2(q+1) with the order-q family."""
    q = 2**r
    n = 2 * (q + 1)
    label = f"halving r={r}"
    h = fourier(n)

    def run(t: Any, _: Any) -> ButsonMatrix:
        with t.span("scarpis.call") as call:
            out = halving_family(r)
        state[label] = out
        if t.on:
            t.stage(call, "butson.fourier", lambda: fourier(n))
            psi_stages(t, call, h, family_stages(t, call, q), out)
        return out

    def observe(out: ButsonMatrix) -> tuple[dict[str, Any], dict[str, int]]:
        counts = {"verify_cells": cells(out), "lsesc_pairs": comb(q - 1, 2)}
        return {"digest": matrix_digest(out)}, counts

    return Op(label, "construct", run, observe, prepare=release(state, label))


def halving_ops(
    r: int, state: dict[str, Any], rng: Random, with_family: bool, verify_output: bool
) -> list[Op]:
    q = 2**r
    n = 2 * (q + 1)
    label = f"halving r={r}"
    ops = [family_op(f"{label} family", q, state, doubled=True)] if with_family else []
    ops += [accept_op(f"{label} verify F_{n}", fourier(n)), halving_op(r, state)]
    if verify_output:
        ops.append(output_accept_op(label, state))
    return ops + reject_ops(label, state, rng, n * q, n)


def phi_op(
    label: str, h: ButsonMatrix, family: str, state: dict[str, Any],
    g: ButsonMatrix | None = None, deleted_row: int = 1,
) -> Op:
    def run(t: Any, _: Any) -> ButsonMatrix:
        tensors = state[family]
        with t.span("scarpis.call") as call:
            out = phi(PhiPlan(h=h, tensors=tuple(tensors), g=g, deleted_row=deleted_row))
        state[label] = out
        if t.on:
            phi_stages(t, call, h, g, tensors, out)
        return out

    def observe(out: ButsonMatrix) -> tuple[dict[str, Any], dict[str, int]]:
        counts = {"verify_cells": cells(out), "lsesc_pairs": comb(h.n - 2, 2)}
        if g is None:
            return {"digest": matrix_digest(out)}, counts
        # The output depends on the seeded x-source, so no digest can be
        # pinned: check it independently, and that the x-source fed the top band.
        width = h.n - 1
        band = [tuple(v for v in row for _ in range(width))
                for k, row in enumerate(g.exponents) if k != deleted_row - 1]
        outcome = {
            "shape": [out.m, out.n],
            "top_band": list(out.exponents[:width]) == band,
            "rows_orthogonal": rows_orthogonal(out),
        }
        return outcome, counts

    return Op(label, "construct", run, observe, prepare=release(state, label))


# --- workloads -------------------------------------------------------------------


def halving(rng: Random, work: Path) -> list[Op]:
    # The outputs of all but the largest construction get a second verdict,
    # and r=4's family is built although r=4 itself takes too long for a run:
    # both give the small kinds enough work to time steadily.
    state: dict[str, Any] = {}
    ops = [op for r in (1, 2, 3) for op in halving_ops(r, state, rng, True, r < 3)]
    return ops + [family_op("halving r=4 family", 16, state, doubled=True)]


def phi_odd(rng: Random, work: Path) -> list[Op]:
    state: dict[str, Any] = {}
    ops = []
    for n in (5, 9, 17):
        label = f"phi F_{n}"
        h = fourier(n)
        family = family_op(f"{label} family", n - 1, state, doubled=False)
        ops += repeated([family, accept_op(f"{label} verify input", h)], PHI_REPEATS)
        ops.append(phi_op(label, h, f"{label} family", state))
        second = [output_accept_op(label, state)] if n < 17 else []
        ops += repeated(second + reject_ops(label, state, rng, n * (n - 1), n), PHI_REPEATS)
    label = "phi F_9 two-input"
    g = permute_columns(fourier(9), rng.sample(range(1, 10), 9))
    ops += repeated([accept_op(f"{label} verify G", g)], PHI_REPEATS)
    ops.append(phi_op(label, fourier(9), "phi F_9 family", state, g=g, deleted_row=rng.randint(1, 9)))
    return ops + repeated(reject_ops(label, state, rng, 72, 9), PHI_REPEATS)


def malformed_texts(rng: Random, b: ButsonMatrix) -> dict[str, str]:
    """Seeded unparsable variants of one matrix file (expected exit 3).

    The last three are accepted by the seed, which coerces exponents with
    int(); they are the known defects named in pins.json.
    """
    dump = butson.dump_matrix(b)
    doc = json.loads(dump)
    lines = butson.dump_matrix(b, "text").splitlines()
    i, j = rng.randrange(b.n), rng.randrange(b.n)

    def with_doc(change: Callable[[dict[str, Any]], None]) -> str:
        copy = json.loads(json.dumps(doc))
        change(copy)
        return json.dumps(copy)

    def set_cell(value: Any, row: int = i, col: int = j) -> Callable[[dict[str, Any]], None]:
        return lambda d: d["exponents"][row].__setitem__(col, value)

    row = lines[1 + i].split()
    small = [(r, c) for r in range(b.n) for c in range(b.n) if b.exponents[r][c] in (0, 1)]
    br, bc = rng.choice(small)
    return {
        "empty": "",
        "json-truncated": dump[: rng.randrange(1, len(dump) - 2)],
        "json-missing-exponents": with_doc(lambda d: d.pop("exponents")),
        "json-short-row": with_doc(lambda d: d["exponents"][i].pop()),
        "json-out-of-range": with_doc(set_cell(b.m + rng.randrange(8))),
        "text-bad-header": "\n".join([f"BH {b.m}"] + lines[1:]) + "\n",
        "text-ragged-row": "\n".join(lines[: 1 + i] + [" ".join(row[:-1])] + lines[2 + i :]) + "\n",
        "text-bad-token": "\n".join(
            lines[: 1 + i] + [" ".join(row[:j] + ["x"] + row[j + 1 :])] + lines[2 + i :]
        ) + "\n",
        "json-float-exponent": with_doc(set_cell(b.exponents[i][j] + 0.5)),
        "json-bool-exponent": with_doc(set_cell(bool(b.exponents[br][bc]), br, bc)),
        "json-string-exponent": with_doc(set_cell(str(b.exponents[i][j]))),
    }


def cli_op(
    name: str, kind: str, args: list[str], layer: str, exit_code: int,
    output: Path | None = None, counts: dict[str, int] | None = None,
    stages: Callable[[Any, int], None] | None = None,
) -> Op:
    def run(t: Any, _: Any) -> int:
        with t.span(layer) as call:
            code = run_cli(args)
        if t.on and stages is not None:
            stages(t, call)
        return code

    def observe(code: int) -> tuple[dict[str, Any], dict[str, int]]:
        outcome: dict[str, Any] = {"exit": code}
        found = dict(counts or {})
        if output is not None:
            outcome["sha256"] = file_sha(output) if output.exists() else None
            if kind == "construct" and output.exists():
                found["bytes_out"] = output.stat().st_size
        return outcome, found

    prepare = None if output is None else lambda: output.unlink(missing_ok=True)
    return Op(name, kind, run, observe, {"exit": exit_code}, prepare)


def cli_files(rng: Random, work: Path) -> list[Op]:
    work.mkdir(parents=True, exist_ok=True)

    def write(name: str, b: ButsonMatrix) -> Path:
        path = work / name
        butson.write_matrix(b, path, fmt="text" if name.endswith(".txt") else "json")
        return path

    f18, f9 = write("f18.json", fourier(18)), write("f9.json", fourier(9))
    valid = {
        "F_12": fourier(12),
        "F_17": fourier(17),
        "F_34": fourier(34),
        # halving_family(3) would make set-up six times slower.
        "BH(18,144)": fourier_sylvester(18, 3),
        "BH(9,72)": phi(PhiPlan(h=fourier(9), tensors=tuple(latin.classical_tensor_set(8)))),
    }
    suffix = {"F_12": ".json", "F_17": ".txt", "F_34": ".json", "BH(18,144)": ".json", "BH(9,72)": ".txt"}
    files = {label: write(f"valid-{k}{suffix[label]}", b) for k, (label, b) in enumerate(valid.items())}

    def parse_stage(path: Path) -> Callable[[], Any]:
        def parse() -> Any:
            try:
                return butson.read_matrix(path)[0]
            except FormatError:
                return None
        return parse

    def verify_stages(path: Path, layer: str) -> Callable[[Any, int], None]:
        def stages(t: Any, call: int) -> None:
            b = t.stage(call, "butson.parse", parse_stage(path))
            if b is not None:
                t.stage(call, layer, lambda: verify(b))
        return stages

    def parse_stages(path: Path) -> Callable[[Any, int], None]:
        return lambda t, call: t.stage(call, "butson.parse", parse_stage(path))

    def construct_stages(kind: str, src: Path, out: Path) -> Callable[[Any, int], None]:
        def stages(t: Any, call: int) -> None:
            h = t.stage(call, "butson.parse", parse_stage(src))
            result = butson.read_matrix(out)[0]
            if kind == "psi":
                psi_stages(t, call, h, family_stages(t, call, h.n // 2 - 1), result, checks=2)
            else:
                tensors = family_stages(t, call, h.n - 1)
                phi_stages(t, call, h, None, tensors, result, checks=2)
                t.stage(call, "butson.analysis", lambda: dephase(result))
            t.stage(call, "butson.dump", lambda: (matrix_digest(h), butson.dump_matrix(result)))
        return stages

    out_psi, out_phi = work / "out-psi.json", work / "out-phi.json"
    ops = [
        cli_op("cli construct psi F_18", "construct", ["construct", "psi", str(f18), "-o", str(out_psi)],
               "cli.construct", 0, out_psi, {"verify_cells": 144 * 144 * 143, "lsesc_pairs": comb(7, 2)},
               construct_stages("psi", f18, out_psi)),
        cli_op("cli construct phi F_9 --dephase", "construct",
               ["construct", "phi", str(f9), "-o", str(out_phi), "--dephase"],
               "cli.construct", 0, out_phi, {"verify_cells": 72 * 72 * 71, "lsesc_pairs": comb(7, 2)},
               construct_stages("phi", f9, out_phi)),
    ]
    for label, path in files.items():
        ops.append(cli_op(f"cli verify {label}", "accept", ["verify", str(path)], "cli.verify", 0,
                          counts={"verify_cells": cells(valid[label])},
                          stages=verify_stages(path, "butson.verify_out")))
    for label, path in files.items():
        b = valid[label]
        for k, (i, j, shift) in enumerate(corruption_cells(rng, b.n, b.m, CLI_CORRUPTIONS)):
            bad = write(f"bad-{path.stem}-{k}{path.suffix}", corrupt(b, i, j, shift))
            ops.append(cli_op(f"cli verify {label} reject #{k}", "reject", ["verify", str(bad)],
                              "cli.verify", 1, stages=verify_stages(bad, "butson.reject")))
    for variant, text in malformed_texts(rng, valid["F_12"]).items():
        path = work / f"malformed-{variant}.{'txt' if variant.startswith('text') else 'json'}"
        path.write_text(text, encoding="utf-8")
        ops.append(cli_op(f"cli verify malformed {variant}", "malformed", ["verify", str(path)],
                          "cli.verify", 3, stages=parse_stages(path)))

    fam32, mols32, crlf16 = work / "lsesc32.txt", work / "mols32.txt", work / "lsesc16-crlf.txt"
    crlf16.write_bytes(latin.dump_latin_set(classical_lsesc_set(16)).replace("\n", "\r\n").encode())

    def classical_stages(t: Any, call: int) -> None:
        t.stage(call, "galois.field", field_of(32))
        squares = t.stage(call, "latin.classical", lambda: classical_lsesc_set(32))
        t.stage(call, "latin.io", lambda: latin.dump_latin_set(squares))

    def check_stages(path: Path) -> Callable[[Any, int], None]:
        def stages(t: Any, call: int) -> None:
            squares = t.stage(call, "latin.io", lambda: latin.read_latin_set(path))
            t.stage(call, "latin.lsesc_check", lambda: pairwise(are_lsesc, squares))
            t.stage(call, "latin.mols_check", lambda: pairwise(are_mols, squares))
        return stages

    def conjugate_stages(t: Any, call: int) -> None:
        squares = t.stage(call, "latin.io", lambda: latin.read_latin_set(fam32))
        mols = t.stage(call, "latin.mols_check", lambda: [conjugate_lsesc_mols(s) for s in squares])
        t.stage(call, "latin.io", lambda: latin.dump_latin_set(mols))

    ops += [
        cli_op("cli lsesc classical 32", "family", ["lsesc", "classical", "32", str(fam32)],
               "cli.lsesc", 0, fam32, stages=classical_stages),
        cli_op("cli lsesc check 32", "family", ["lsesc", "check", str(fam32)], "cli.lsesc", 0,
               counts={"lsesc_pairs": comb(31, 2)}, stages=check_stages(fam32)),
        cli_op("cli lsesc conjugate 32", "family", ["lsesc", "conjugate", str(fam32), str(mols32)],
               "cli.lsesc", 0, mols32, stages=conjugate_stages),
        cli_op("cli lsesc check 16 crlf", "family", ["lsesc", "check", str(crlf16)], "cli.lsesc", 0,
               counts={"lsesc_pairs": comb(15, 2)}, stages=check_stages(crlf16)),
    ]
    return ops


def chunked(items: list[Any], size: int) -> list[list[Any]]:
    return [items[k : k + size] for k in range(0, len(items), size)]


def lsesc_family_ops(q: int, state: dict[str, Any]) -> list[Op]:
    """A complete, checked and inflated family of order q, with its MOLS dual,
    one stage at a time and the per-square stages in chunks.

    Short operations give run.py many calls to take each piece's median
    from, each close in time to the reference loop it is compared with.
    The stages keep their results in ``state`` until the family is
    complete, so the whole inflated family is alive at once, as when it is
    built in one go.
    """
    key = f"lsesc q={q}"

    def fam() -> dict[str, Any]:
        return state[key]

    def classical(t: Any, _: Any) -> list[Any]:
        with t.span("latin.classical") as cls:
            squares = classical_lsesc_set(q)
        if t.on:
            t.stage(cls, "galois.field", field_of(q))
        state[key] = {"squares": squares, "tensors": [], "doubled": [], "mols": []}
        return squares

    ops = [
        Op(f"{key} classical", "family", classical,
           lambda squares: ({"squares": text_sha(latin.dump_latin_set(squares))}, {}),
           prepare=release(state, key)),
    ]
    n_squares = q - 1
    for k, part in enumerate(chunked(list(range(n_squares)), LSESC_CHUNK)):
        lo, hi = part[0], part[-1] + 1

        def encode_chunk(t: Any, _: Any, lo: int = lo, hi: int = hi) -> list[Any]:
            squares = fam()["squares"][lo:hi]
            with t.span("latin.encode"):
                tensors = [encode(s) for s in squares]
            fam()["tensors"].extend(tensors)
            return tensors

        def inflate_chunk(t: Any, _: Any, lo: int = lo, hi: int = hi) -> list[Any]:
            tensors = fam()["tensors"][lo:hi]
            with t.span("latin.inflate"):
                doubled = [inflate(x, 2) for x in tensors]
            fam()["doubled"].extend(doubled)
            return doubled

        def reconstruct_chunk(t: Any, _: Any, lo: int = lo, hi: int = hi) -> tuple[Any, Any]:
            tensors = fam()["tensors"][lo:hi]
            with t.span("latin.reconstruct"):
                rebuilt = [reconstruct(x) for x in tensors]
            return rebuilt, fam()["squares"][lo:hi]

        def conjugate_chunk(t: Any, _: Any, lo: int = lo, hi: int = hi) -> list[Any]:
            squares = fam()["squares"][lo:hi]
            with t.span("latin.mols_check"):
                mols = [conjugate_lsesc_mols(s) for s in squares]
            fam()["mols"].extend(mols)
            return mols

        ops += [
            Op(f"{key} encode #{k}", "family", encode_chunk,
               lambda tensors: ({"tensors": tensors_digest(tensors)}, {})),
            Op(f"{key} inflate #{k}", "family", inflate_chunk,
               lambda doubled: ({"inflated": tensors_digest(doubled)}, {})),
            Op(f"{key} reconstruct #{k}", "family", reconstruct_chunk,
               lambda raw: ({"reconstructed": raw[0] == raw[1]}, {})),
            Op(f"{key} conjugate #{k}", "family", conjugate_chunk,
               lambda mols: ({"mols": text_sha(latin.dump_latin_set(mols))}, {})),
        ]
    pairs = [(i, j) for i in range(n_squares) for j in range(i + 1, n_squares)]
    for k, part in enumerate(chunked(pairs, LSESC_PAIRS_CHUNK)):

        def lsesc_chunk(t: Any, _: Any, part: list[tuple[int, int]] = part) -> tuple[bool, int]:
            squares = fam()["squares"]
            with t.span("latin.lsesc_check"):
                ok = all(are_lsesc(squares[i], squares[j]) for i, j in part)
            return ok, len(part)

        ops.append(Op(f"{key} lsesc check #{k}", "family", lsesc_chunk,
                      lambda raw: ({"lsesc": raw[0]}, {"lsesc_pairs": raw[1]})))

    def mols_check(t: Any, _: Any) -> bool:
        with t.span("latin.mols_check"):
            return pairwise(are_mols, fam()["mols"])

    def io(t: Any, _: Any) -> Any:
        with t.span("latin.io"):
            return latin.parse_latin_set(latin.dump_latin_set(fam()["squares"]))

    def io_observe(parsed: Any) -> tuple[dict[str, Any], dict[str, int]]:
        # The family is complete: free it, untimed, before the next is built.
        squares = state.pop(key)["squares"]
        return {"round_trip": parsed == squares}, {}

    return ops + [
        Op(f"{key} mols check", "family", mols_check, lambda ok: ({"mols_ok": ok}, {})),
        Op(f"{key} round trip", "family", io, io_observe),
    ]


def crlf_parse_op(q: int) -> Op:
    """parse_latin_set on a family text with CRLF line ends (ROADMAP item 4).

    The documented outcome is the family itself; the seed splits squares on
    a bare blank line and rejects the text, a known defect in pins.json.
    """
    text = latin.dump_latin_set(classical_lsesc_set(q))
    crlf = text.replace("\n", "\r\n")

    def run(t: Any, _: Any) -> Any:
        with t.span("latin.io"):
            try:
                return latin.parse_latin_set(crlf)
            except FormatError:
                return None

    def observe(parsed: Any) -> tuple[dict[str, Any], dict[str, int]]:
        return {"round_trip": parsed is not None and latin.dump_latin_set(parsed) == text}, {}

    return Op(f"lsesc q={q} parse crlf", "family", run, observe, {"round_trip": True})


def lsesc_families(rng: Random, work: Path) -> list[Op]:
    # One small halving_family(2), which consumes an inflated classical
    # family, gives construct_s, verify_accept_s and verify_reject_s a value
    # here while latin and galois keep almost all of the pass.
    state: dict[str, Any] = {}
    ops = [op for q in (16, 27, 32) for op in lsesc_family_ops(q, state)] + [crlf_parse_op(16)]
    padding = halving_ops(2, state, rng, False, True)
    return ops + repeated(padding, LSESC_HALVING_REPEATS)


WORKLOADS: dict[str, Callable[[Random, Path], list[Op]]] = {
    "halving": halving,
    "phi_odd": phi_odd,
    "cli_files": cli_files,
    "lsesc_families": lsesc_families,
}
