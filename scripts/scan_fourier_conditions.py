"""Scan Fourier matrices for the C1/C2 input conditions.

For each even order up to the limit, report the C1 row pairs, d_H (the
number of unordered pairs), the C2 witness cells, and whether the halving
construction applies directly (it needs a C2 cell, an order that psi's
family_shape accepts, and an available complete LSESC family of the
order it names).
"""

import argparse
import sys

from bhmat import PlanError, find_c1_pairs, find_c2_cells, fourier, prime_power
from bhmat.cli import decimal_int, exit_status
from bhmat.scarpis import family_shape


def family_available(n):
    """Whether family_shape accepts psi on an order-n input, output cap
    included, and a classical family of the order it names exists."""
    try:
        order, _ = family_shape("psi", n)
    except PlanError:
        return False
    return prime_power(order) is not None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=decimal_int, default=32)
    args = parser.parse_args()

    print(f"{'n':>4} {'d_H':>4} {'C2 cells':>10} {'psi input?':>11}  first C1 pairs")
    for n in range(4, args.max_order + 1, 2):
        f = fourier(n)
        pairs = find_c1_pairs(f)
        cells = find_c2_cells(f)
        usable = "yes" if cells and family_available(n) else "no"
        head = " ".join(f"({t},{s})" for t, s in pairs[:4])
        if len(pairs) > 4:
            head += " ..."
        print(f"{n:>4} {len(pairs):>4} {len(cells):>10} {usable:>11}  {head}")


if __name__ == "__main__":
    sys.exit(exit_status(main))
