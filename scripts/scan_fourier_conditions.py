"""Scan Fourier matrices for the C1/C2 input conditions.

For each even order up to the limit, report the C1 row pairs, d_H (the
number of unordered pairs), the C2 witness cells, and whether the halving
construction applies directly (it needs a C2 cell plus an available
complete LSESC family of order n/2 - 1).
"""

import argparse
import sys

from bhmat import find_c1_pairs, find_c2_cells, fourier, prime_power
from bhmat.cli import decimal_int, exit_status


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=decimal_int, default=32)
    args = parser.parse_args()

    print(f"{'n':>4} {'d_H':>4} {'C2 cells':>10} {'psi input?':>11}  first C1 pairs")
    for n in range(4, args.max_order + 1, 2):
        f = fourier(n)
        pairs = find_c1_pairs(f)
        cells = find_c2_cells(f)
        family_ok = n // 2 - 1 >= 2 and prime_power(n // 2 - 1) is not None
        usable = "yes" if cells and family_ok else "no"
        head = " ".join(f"({t},{s})" for t, s in pairs[:4])
        if len(pairs) > 4:
            head += " ..."
        print(f"{n:>4} {len(pairs):>4} {len(cells):>10} {usable:>11}  {head}")


if __name__ == "__main__":
    sys.exit(exit_status(main))
