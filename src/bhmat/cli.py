"""Command-line front end.

Exit codes: 0 success / verified, 1 verification failure or a closed
stdout (nothing is printed on stderr then), 2 plan error (missing C1/C2,
unavailable LSESC family, bad arguments), 3 I/O or parse failure.

exit_status is the one place that turns an outcome into an exit code: main
and the example scripts under scripts/ exit through it, and the scripts read
their integer options with decimal_int, as main does.

main builds the argument parser on its first call and reuses it for every
later call in the same process.

construct and count take the kind, phi or psi, as a subcommand with only
its own options, each spelled in full, so an option of the other kind, a
prefix of an option or a missing option is an argparse error: exit 2, the
option named on stderr, no file written, and SystemExit(2) from an
in-process main, as for every argparse error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from . import butson, latin, scarpis
from .errors import FormatError, PlanError, VerificationError, parse_decimals


def decimal_int(token: str) -> int:
    """argparse type for integer arguments: one ASCII decimal token, as
    in the text files, so '+6', '0_6' and non-ASCII digits exit 2."""
    try:
        return parse_decimals([token])[0]
    except FormatError:
        raise argparse.ArgumentTypeError(
            f"not an ASCII decimal integer: {token!r}"
        ) from None


def decimal_ints(text: str) -> list[int]:
    """argparse type for a list of integers: text split at commas and
    whitespace, each token read by decimal_int."""
    return [decimal_int(token) for token in text.replace(",", " ").split()]


def cmd_fourier(args: argparse.Namespace) -> int:
    matrix = butson.fourier(args.n)
    provenance: dict[str, Any] = {"construction": "fourier", "plan": {"n": args.n}}
    butson.write_matrix(matrix, args.output, fmt=args.format, provenance=provenance)
    print(f"wrote BH({matrix.m},{matrix.n}) to {args.output}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    matrix, _ = butson.read_matrix(args.path)
    report = butson.verify(matrix)
    if not report.ok:
        if report.bad_row_pair:
            print(f"FAIL: rows {report.bad_row_pair} are not orthogonal")
        if report.bad_col_pair:
            print(f"FAIL: columns {report.bad_col_pair} are not orthogonal")
        return 1
    print(f"ok: BH({matrix.m},{matrix.n})")
    if args.analyze:
        _print_analysis(matrix)
    return 0


def _print_analysis(matrix: butson.ButsonMatrix) -> None:
    if matrix.m % 2 or matrix.n % 2:
        print("C1 pairs: n/a (needs even order and root order)")
    else:
        pairs = butson.find_c1_pairs(matrix)
        listed = " ".join(f"({t},{s})" for t, s in pairs) or "none"
        print(f"C1 pairs: {listed}")
        print(f"d_H = {len(pairs)}")
    if matrix.m % 2:
        print("C2 cells: n/a (needs even root order)")
    else:
        cells = butson.find_c2_cells(matrix)
        listed = " ".join(f"({i},{j})" for i, j in cells) or "none"
        print(f"C2 cells: {listed}")


def _load_family(source: str, order: int) -> tuple[list[latin.LatinSquare], dict[str, Any]]:
    if source == "classical":
        return latin.classical_lsesc_set(order), {"source": "classical", "order": order}
    return latin.read_latin_set(source), {"source": "file", "path": source}


def cmd_construct(args: argparse.Namespace) -> int:
    if not 1 <= len(args.inputs) <= 2:
        raise PlanError("construct takes one or two input matrices")
    matrices = [butson.read_matrix(p)[0] for p in args.inputs]
    if len(matrices) == 2:
        g, h = matrices
    else:
        g, h = None, matrices[0]

    if args.pre_permute_cols is not None:
        if g is not None:
            g = butson.permute_columns(g, args.pre_permute_cols)
        else:
            h = butson.permute_columns(h, args.pre_permute_cols)

    family_order, _ = scarpis.family_shape(args.kind, h.n)
    squares, family_info = _load_family(args.lsesc, family_order)

    plan_info: dict[str, Any] = {"lsesc": family_info}
    if args.pre_permute_cols is not None:
        plan_info["pre_permuted_cols"] = args.pre_permute_cols

    if args.kind == "phi":
        row = args.delete_row
        result = scarpis.phi(scarpis.PhiPlan(h=h, tensors=tuple(squares), g=g, deleted_row=row))
        plan_info["deleted_row"] = row
        plan_text = f"deleted row {row}"
    else:
        psi_plan = scarpis.PsiPlan(
            h=h,
            tensors=tuple(squares),
            g=g,
            c1_pair=tuple(args.c1_pair) if args.c1_pair else None,
            c2_cell=tuple(args.c2_cell) if args.c2_cell else None,
        )
        result, resolved = scarpis.psi_with_plan(psi_plan)
        plan_info["c1_pair"] = list(resolved.c1_pair)
        plan_info["c2_cell"] = list(resolved.c2_cell)
        plan_text = f"C1 pair {resolved.c1_pair}, C2 cell {resolved.c2_cell}"

    if args.dephase:
        result = butson.dephase(result)
    provenance = {
        "construction": args.kind,
        "inputs": [butson.matrix_digest(mat) for mat in matrices],
        "plan": plan_info,
        "dephased": bool(args.dephase),
    }
    butson.write_matrix(result, args.output, fmt=args.format, provenance=provenance)
    print(f"wrote BH({result.m},{result.n}) to {args.output}")
    print(f"plan: {plan_text}, LSESC {family_info['source']} order {family_order}")
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    if args.kind == "phi":
        print(scarpis.count_phi_outputs(args.mols, args.card, args.n))
    else:
        print(scarpis.count_psi_outputs(args.mols, args.card2, args.dh))
    return 0


def cmd_lsesc(args: argparse.Namespace) -> int:
    if args.action == "classical":
        squares = latin.classical_lsesc_set(args.q)
        latin.write_latin_set(squares, args.output)
        print(f"wrote {len(squares)} squares of order {args.q} to {args.output}")
        return 0
    if args.action == "conjugate":
        squares = latin.read_latin_set(args.path)
        conjugated = [latin.conjugate_lsesc_mols(square) for square in squares]
        latin.write_latin_set(conjugated, args.output)
        print(f"wrote {len(conjugated)} conjugated squares to {args.output}")
        return 0
    # check
    squares = latin.read_latin_set(args.path)
    lsesc_ok = latin.first_non_lsesc_pair(squares) is None
    mols_ok = latin.first_non_mols_pair(squares) is None
    print(f"squares: {len(squares)}, order {squares[0].n}")
    print(f"pairwise LSESC: {'yes' if lsesc_ok else 'no'}")
    print(f"pairwise MOLS: {'yes' if mols_ok else 'no'}")
    return 0 if lsesc_ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The bhmat parser, built on the first call and shared after that, so
    callers must not change it.

    Sharing is safe: parse_args returns a fresh Namespace on each call and
    leaves the parser as it was; argparse looks up sys.stdout and sys.stderr
    when it prints, so redirected output still reaches the redirect; and
    the func defaults are the cmd_* functions of this module, which look up
    butson, latin and scarpis names when they run, so patches to those
    modules still take effect.
    """
    parser = argparse.ArgumentParser(
        prog="bhmat",
        description="Construct and verify Butson-Hadamard matrices with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fourier = sub.add_parser("fourier", help="write the order-n Fourier matrix")
    p_fourier.add_argument("n", type=decimal_int)
    p_fourier.add_argument("output", type=Path)
    p_fourier.add_argument("--format", choices=("json", "text"), default="json")
    p_fourier.set_defaults(func=cmd_fourier)

    p_verify = sub.add_parser("verify", help="exactly verify a matrix file")
    p_verify.add_argument("path", type=Path)
    p_verify.add_argument(
        "--analyze", action="store_true", help="also report C1 pairs, C2 cells and d_H"
    )
    p_verify.set_defaults(func=cmd_verify)

    # the options of both constructions; each kind adds its own
    construct_common = argparse.ArgumentParser(add_help=False)
    construct_common.add_argument("inputs", nargs="+", type=Path, metavar="INPUT")
    construct_common.add_argument("-o", "--output", required=True, type=Path)
    construct_common.add_argument("--format", choices=("json", "text"), default="json")
    construct_common.add_argument(
        "--lsesc", default="classical", help="'classical' or a path to a Latin-square set file"
    )
    construct_common.add_argument(
        "--pre-permute-cols",
        type=decimal_ints,
        metavar="PERM",
        help="column permutation applied to the x-source first, e.g. '1,4,3,5,2,6'",
    )
    construct_common.add_argument("--dephase", action="store_true")

    p_construct = sub.add_parser("construct", help="run a construction on input files")
    p_construct.set_defaults(func=cmd_construct)
    construct_kinds = p_construct.add_subparsers(dest="kind", required=True)
    # whole option names only: a prefix of one kind's option is refused,
    # not resolved against the options of that kind alone
    p_phi = construct_kinds.add_parser("phi", parents=[construct_common], allow_abbrev=False)
    p_phi.add_argument("--delete-row", type=decimal_int, default=1, metavar="T")
    p_psi = construct_kinds.add_parser("psi", parents=[construct_common], allow_abbrev=False)
    p_psi.add_argument("--c1-pair", type=decimal_int, nargs=2, metavar=("T", "S"))
    p_psi.add_argument("--c2-cell", type=decimal_int, nargs=2, metavar=("I", "J"))

    p_count = sub.add_parser("count", help="evaluate the output-count formulas")
    p_count.set_defaults(func=cmd_count)
    count_kinds = p_count.add_subparsers(dest="kind", required=True)
    p_count_phi = count_kinds.add_parser("phi", allow_abbrev=False)
    p_count_phi.add_argument("--mols", type=decimal_int, required=True)
    p_count_phi.add_argument("--card", type=decimal_int, required=True)
    p_count_phi.add_argument("--n", type=decimal_int, required=True)
    p_count_psi = count_kinds.add_parser("psi", allow_abbrev=False)
    p_count_psi.add_argument("--mols", type=decimal_int, required=True)
    p_count_psi.add_argument("--card2", type=decimal_int, required=True)
    p_count_psi.add_argument("--dh", type=decimal_int, nargs="+", required=True)

    p_lsesc = sub.add_parser("lsesc", help="emit, check or conjugate LSESC families")
    lsesc_sub = p_lsesc.add_subparsers(dest="action", required=True)
    p_classical = lsesc_sub.add_parser("classical")
    p_classical.add_argument("q", type=decimal_int)
    p_classical.add_argument("output", type=Path)
    p_classical.set_defaults(func=cmd_lsesc)
    p_check = lsesc_sub.add_parser("check")
    p_check.add_argument("path", type=Path)
    p_check.set_defaults(func=cmd_lsesc)
    p_conj = lsesc_sub.add_parser("conjugate")
    p_conj.add_argument("path", type=Path)
    p_conj.add_argument("output", type=Path)
    p_conj.set_defaults(func=cmd_lsesc)

    return parser


# The exit code of each error exit_status catches, the first match winning:
# FormatError and PlanError are ValueErrors.
_ERROR_CODES = {VerificationError: 1, FormatError: 3, ValueError: 2, OSError: 3}


def exit_status(program: Callable[[], int | None]) -> int:
    """The exit code of program(), a None status read as 0, with stdout
    flushed before it is returned; an error of _ERROR_CODES is printed as
    one 'error:' line on stderr.  A BrokenPipeError means stdout's reader
    has gone: stdout is pointed at devnull, so the exit flush cannot fail
    again, and the code is 1 with nothing on stderr."""
    try:
        status = program()
        sys.stdout.flush()
    except BrokenPipeError:
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except tuple(_ERROR_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _ERROR_CODES.items() if isinstance(exc, kind))
    return 0 if status is None else status


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return exit_status(lambda: args.func(args))
