#!/usr/bin/env python3
"""Cross-validate the analytic mode-count distributions against Monte
Carlo at configurable sample counts and against the per-point adaptive
quadrature oracle.

Prints, for each scenario, the sup-norm gap between the analytic CCDF
and the empirical one, the PDF normalization defect, and the largest
gaps between the fixed-rule curves and the breakpoint-aware adaptive
oracle in ``tests/deconditioning_oracle.py`` (CCDF absolute, PDF
relative).  Exits 1 when a Monte Carlo gap exceeds 0.01 or an oracle
CCDF gap exceeds 1e-9.

Usage:
    python3 scripts/validate_statistics.py [--samples 1000000] [--seed 0]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from nfdof import statistics as stats
from nfdof.numerics import integrate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import deconditioning_oracle as oracle  # noqa: E402

MC_SUP_LIMIT = 0.01
ORACLE_CCDF_LIMIT = 1e-9


def scenario_set():
    runs = []
    for scenario in (stats.PARTIAL_R_PLUS, stats.PARTIAL_R_MINUS,
                     stats.FULL_VISIBILITY):
        for R in (5.0, 20.0):
            runs.append(stats.ScenarioConfig(
                R=R, L_T=0.2, L_R=2.0, frequency=30e9, scenario=scenario))
    for x0 in (5.0, 10.0):
        for L_R in (2.0, 5.0):
            runs.append(stats.ScenarioConfig(
                R=20.0, L_T=0.2, L_R=L_R, frequency=30e9,
                scenario=stats.CONDITIONAL_ON_X0, x0=x0))
    return runs


def oracle_gaps(cfg, curve):
    """(max |CCDF - oracle|, max relative |PDF - oracle|) over the grid."""
    cc = np.array([oracle.ccdf(cfg, m) for m in curve.grid])
    dens = np.array([oracle.pdf(cfg, m) for m in curve.grid])
    rel = np.abs(curve.pdf - dens) / np.where(dens > 0, dens, 1.0)
    return float(np.max(np.abs(curve.ccdf - cc))), float(np.max(rel))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    worst = worst_oracle = 0.0
    print(f"{'scenario':<22}{'R':>6}{'x0':>6}{'L_R':>5}"
          f"{'sup-norm':>12}{'pdf defect':>12}{'oracle cc':>11}"
          f"{'oracle pdf':>12}{'time':>8}")
    for i, cfg in enumerate(scenario_set()):
        t0 = time.perf_counter()
        grid = np.linspace(0.0, 2 * cfg.C, 101)
        curve = stats.ccdf(cfg, grid, mc_samples=args.samples,
                           seed=args.seed + i)
        sup = float(np.max(np.abs(curve.ccdf - curve.mc_ccdf)))
        defect = abs(integrate(lambda m: float(stats.pdf(cfg, m)), 1e-9,
                               2 * cfg.C, rel_tol=1e-6).value - 1.0)
        gap_cc, gap_pdf = oracle_gaps(cfg, curve)
        worst = max(worst, sup)
        worst_oracle = max(worst_oracle, gap_cc)
        x0 = "" if cfg.x0 is None else f"{cfg.x0:g}"
        print(f"{cfg.scenario:<22}{cfg.R:>6g}{x0:>6}{cfg.L_R:>5g}"
              f"{sup:>12.2e}{defect:>12.2e}{gap_cc:>11.1e}{gap_pdf:>12.1e}"
              f"{time.perf_counter() - t0:>7.1f}s")
    ok_mc = worst <= MC_SUP_LIMIT
    ok_oracle = worst_oracle <= ORACLE_CCDF_LIMIT
    print(f"\nworst sup-norm: {worst:.2e} "
          f"({'OK' if ok_mc else f'ABOVE {MC_SUP_LIMIT}'})")
    print(f"worst oracle CCDF gap: {worst_oracle:.2e} "
          f"({'OK' if ok_oracle else f'ABOVE {ORACLE_CCDF_LIMIT:g}'})")
    return 0 if ok_mc and ok_oracle else 1


if __name__ == "__main__":
    sys.exit(main())
