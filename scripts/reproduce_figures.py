#!/usr/bin/env python3
"""Regenerate every bundled figure data file into an output directory.

Each figure id produces a CSV plus a manifest recording the recipe's
bindings and the seed, so reruns are byte-identical.

Usage:
    python3 scripts/reproduce_figures.py [--out-dir figures] [--seed 0]
                                         [--only fig5 fig9b ...]
"""

import argparse
import pathlib
import sys
import time

from nfdof.cli import main as cli_main
from nfdof.figures import FIGURE_IDS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="figures")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", nargs="*", default=None,
                        help="subset of figure ids (default: all)")
    args = parser.parse_args(argv)

    ids = args.only if args.only else list(FIGURE_IDS)
    unknown = [i for i in ids if i not in FIGURE_IDS]
    if unknown:
        parser.error(f"unknown figure ids: {unknown}; known: {FIGURE_IDS}")

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for fig_id in ids:
        target = out_dir / f"{fig_id}.csv"
        t0 = time.perf_counter()
        code = cli_main(["figure", "--id", fig_id, "--seed", str(args.seed),
                         "--out", str(target)])
        if code != 0:
            print(f"{fig_id}: FAILED (exit {code})", file=sys.stderr)
            return code
        print(f"{fig_id}: wrote {target} ({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
