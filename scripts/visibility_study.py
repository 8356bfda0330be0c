#!/usr/bin/env python3
"""Sweep the transmit rotation for a fixed link and tabulate visibility
status, mode counts, and the SVD cross-check.

Useful for exploring how the four visibility regimes partition the
rotation circle and how the analytic count tracks the singular spectrum.
The table comes from the same sweep and SVD-compare loops as
``nfdof sweep`` and ``nfdof svd-compare``.

Usage:
    python3 scripts/visibility_study.py [--x0 10] [--y0 0] [--l-r 5]
                                        [--steps 37] [--svd]
"""

import argparse
import sys

import numpy as np

from nfdof.figures import svd_compare_rows, sweep_rows
from nfdof.svd_oracle import DEFAULT_SUM_RULE_FRACTION


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frequency-hz", type=float, default=30e9)
    parser.add_argument("--l-t", type=float, default=0.2)
    parser.add_argument("--l-r", type=float, default=5.0)
    parser.add_argument("--theta-r", type=float, default=np.pi)
    parser.add_argument("--x0", type=float, default=10.0)
    parser.add_argument("--y0", type=float, default=0.0)
    parser.add_argument("--steps", type=int, default=37)
    parser.add_argument("--svd", action="store_true",
                        help="add the singular-spectrum mode count")
    args = parser.parse_args(argv)

    link = {"L_T": args.l_t, "L_R": args.l_r, "theta_R": args.theta_r,
            "x0": args.x0, "y0": args.y0, "frequency": args.frequency_hz}
    values = np.linspace(-np.pi, np.pi, args.steps)
    _, (_, m_real, m_int, status), _ = sweep_rows(link, "theta_T", values)
    head = f"{'theta_T':>9}{'status':>15}{'m_real':>9}{'m_int':>6}"
    if args.svd:
        _, (_, _, svd, _), _ = svd_compare_rows(link, "theta_T", values, None,
                                                DEFAULT_SUM_RULE_FRACTION)
        head += f"{'svd':>5}"
    print(head)
    for i, thT in enumerate(values):
        row = f"{thT:>9.3f}{status[i]:>15}{m_real[i]:>9.3f}{m_int[i]:>6}"
        if args.svd:
            row += f"{svd[i]:>5}"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
