"""Construct the BH(2(2^r+1), 2^(r+1)(2^r+1)) family and time each member.

halving_family verifies every member exactly before returning it, so the
time reported includes that check.  Writes one matrix file per r when an
output directory is given.
"""

import argparse
import sys
import time
from pathlib import Path

from bhmat import halving_family, write_matrix
from bhmat.cli import decimal_int, exit_status


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-r", type=decimal_int, default=3)
    parser.add_argument("--outdir", type=Path, default=None)
    args = parser.parse_args()

    for r in range(1, args.max_r + 1):
        start = time.monotonic()
        matrix = halving_family(r)
        built = time.monotonic() - start
        report = f"r={r}: BH({matrix.m},{matrix.n}) built and verified in {built:.2f}s"
        # the file is written before the report is printed, so it is still
        # written when stdout's reader has gone
        if args.outdir is not None:
            args.outdir.mkdir(parents=True, exist_ok=True)
            path = args.outdir / f"bh_{matrix.m}_{matrix.n}.json"
            write_matrix(
                matrix,
                path,
                provenance={"construction": "halving_family", "plan": {"r": r}},
            )
            report += f"\n  wrote {path}"
        print(report)


if __name__ == "__main__":
    sys.exit(exit_status(main))
