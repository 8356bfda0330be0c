#!/usr/bin/env python3
"""Run one fixed list of CLI commands into a directory, or run it for two
checkouts and name each output file that differs.

A perf or simplicity change must leave every output byte-identical.  The
list covers every ``figure`` recipe, ``dof`` on the default, a warning,
a touching and an exponent-flag link, sweeps of all seven sweepable
parameters at 721 steps, ``svd-compare`` over theta_R and over L_T,
``kernel-scan`` plain, rotated and with ``--deg``, and ``stats`` in all
four scenarios, each in CSV and in JSON; ``svd-compare`` over 181 theta_R
steps about facing at fractions 0.9, 0.99 and at a tie with a running
share, and at lambda/2 (CSV), which cross the screen, the float32 grid
and the double grid; the caps of ``stats``, ``kernel-scan`` and ``sweep``
(CSV); ``stats`` in the full-visibility and conditional scenarios at
draw counts about the Monte Carlo chunk of 2^15 and at both of its caps
(CSV); the refusals of CI's console-script step; and the Monte Carlo
commands (the 10^7-draw ``stats`` caps, fig9a, fig9b, fig10) on one CPU
and on all.  Each command is a fresh ``python -m nfdof.cli`` process that
imports ``nfdof`` from the checkout's ``src``, with one BLAS thread.  It
leaves its output file and manifest, if any, and ``<name>.stdout``,
``<name>.stderr`` and ``<name>.exit``.

Usage:
    python3 scripts/output_identity.py run OUT_DIR
    python3 scripts/output_identity.py compare PARENT CHANGE --work DIR

``run`` uses the checkout this script sits in.  ``compare`` runs the list
of this script for both checkouts, into DIR/a and DIR/b, prints each file
that differs or exists on one side only, and exits 1 if there is any.
"""

import argparse
import filecmp
import json
import math
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent.parent

SWEEPS = {"theta_T": (-3.14, 3.14), "theta_R": (0.0, 6.28), "x0": (0.5, 50.0),
          "y0": (-10.0, 10.0), "L_T": (0.05, 1.0), "L_R": (0.5, 10.0),
          "frequency": (1e9, 1e11)}
SCENARIOS = {"partial_r_plus": {"scenario": "partial-r-plus"},
             "partial_r_minus": {"scenario": "partial-r-minus"},
             "full": {"scenario": "full-visibility"},
             "conditional": {"scenario": "conditional-on-x0", "x0": 10.0}}
# svd-compare of the default link over theta_R about facing; the tie is
# the share of its 10 leading modes on the lambda/4 grid at facing, where
# the double grid decides the count
FACING = {"parameter": "theta_R", "start": math.pi / 2, "stop": 1.5 * math.pi, "steps": 181}
SVD_FACING = {"0.9": {"svd_threshold": 0.9}, "0.99": {"svd_threshold": 0.99},
              "tie": {"svd_threshold": 0.9685443605213178},
              "half_wavelength": {"svd_spacing": 0.005}}
MC_CAPS = {"mc_full": {"scenario": "full-visibility", "mc_samples": 10 ** 7},
           "mc_conditional": {"scenario": "conditional-on-x0", "x0": 10.0,
                              "mc_samples": 10 ** 7}}
# Monte Carlo draw counts: below one chunk of 2^15, either side of it, and
# a last chunk of 3,139 draws
MC_DRAWS = (10_000, 32_767, 32_769, 200_003)


def commands():
    """(name, argv after ``nfdof``, config or None, CPUs) of every command,
    in run order; CPUs is "one" or "all"."""
    out, sweep = [], {"parameter": "theta_R", "start": 2.5, "stop": 3.5, "steps": 5}

    def add(name, argv, config=None, cpus="all", fmt=None):
        out.append((name, argv + (["--format", fmt] if fmt else []), config, cpus))

    for fmt in ("csv", "json"):
        for fig in ("fig3a", "fig3b", "fig3c", "fig3d", "fig4", "fig5", "fig7a", "fig7b",
                    "fig7c", "fig8", "fig9a", "fig9b", "fig10", "fig11"):
            add(f"figure_{fig}.{fmt}", ["figure", "--id", fig], fmt=fmt)
        for name, flags in (("default", []), ("warning", ["--x0", "0.5", "--l-t", "1"]),
                            ("touching", ["--x0", "0", "--y0", "0"]),
                            ("exponent", ["--x0", "-1e-3", "--l-t", "0.5"])):
            add(f"dof_{name}.{fmt}", ["dof"] + flags, fmt=fmt)
        for param, (start, stop) in SWEEPS.items():
            add(f"sweep_{param}.{fmt}", ["sweep"], {"sweep": {
                "parameter": param, "start": start, "stop": stop, "steps": 721}}, fmt=fmt)
        add(f"svd_theta_R.{fmt}", ["svd-compare"], {"sweep": sweep}, fmt=fmt)
        add(f"svd_L_T.{fmt}", ["svd-compare"], {"sweep": {
            "parameter": "L_T", "start": 0.1, "stop": 0.5, "steps": 5}}, fmt=fmt)
        add(f"kernel_plain.{fmt}", ["kernel-scan"], fmt=fmt)
        add(f"kernel_rotated.{fmt}", ["kernel-scan", "--theta-t", "0.3"], fmt=fmt)
        add(f"kernel_deg.{fmt}", ["kernel-scan", "--deg", "--theta-t", "10"], fmt=fmt)
        for name, section in SCENARIOS.items():
            add(f"stats_{name}.{fmt}", ["stats"], {"stats": section}, fmt=fmt)
    for name, fields in SVD_FACING.items():
        add(f"svd_facing_{name}.csv", ["svd-compare"], {**fields, "sweep": FACING})
    add("cap_stats_grid.csv", ["stats"], {"stats": {
        "scenario": "full-visibility", "grid_points": 10 ** 5, "mc_samples": 0}})
    add("cap_kernel_scan.csv", ["kernel-scan"], {"n_samples": 10 ** 6})
    add("cap_sweep.csv", ["sweep"], {"sweep": {
        "parameter": "theta_T", "start": -3.14, "stop": 3.14, "steps": 10 ** 6}})
    for name in ("full", "conditional"):
        for n in MC_DRAWS:
            add(f"mc_{name}_{n}.csv", ["stats"], {"stats": {**SCENARIOS[name], "mc_samples": n}})
        add(f"cap_mc_{name}_both.csv", ["stats"], {"stats": {
            **SCENARIOS[name], "grid_points": 10 ** 5, "mc_samples": 10 ** 7}})
    for cpus in ("one", "all"):
        for name, section in MC_CAPS.items():
            add(f"{name}_{cpus}.csv", ["stats"], {"stats": section}, cpus)
        for fig in ("fig9a", "fig9b", "fig10"):
            add(f"mc_{fig}_{cpus}.csv", ["figure", "--id", fig], cpus=cpus)
    for name, argv, config in (   # CI's console-script refusals
            ("misspelled", ["stats"], {"stats": {"grid_point": 11}}),
            ("threshold", ["svd-compare"], {"svd_threshold": 1.5, "sweep": sweep}),
            ("steps", ["sweep"], {"sweep": {
                "parameter": "x0", "start": 0, "stop": 1, "steps": 10 ** 11}}),
            ("lengths", ["sweep"], {"sweep": {
                "parameter": "L_T", "start": -1, "stop": 1, "steps": 11}}),
            ("spacing", ["svd-compare"], {"svd_spacing": 1e-9, "sweep": sweep}),
            ("run", ["svd-compare"], {"sweep": {
                "parameter": "theta_R", "start": 1.6, "stop": 4.7, "steps": 1000}}),
            ("zeta", ["kernel-scan"], {"zeta_ref": 100.0}),
            ("x0_unread", ["stats"], {"stats": {"scenario": "full-visibility", "x0": 5.0}}),
            ("radius", ["stats"], {"stats": {"R": 1e155}}),
            ("tiny", ["stats"], {"stats": {"R": 1e-300}}),
            ("list_config", ["dof"], [1, 2]),
            ("unread_config", ["dof", "--config", "no_such_config.json"], None),
            ("seed", ["dof", "--seed", "-1"], None),
            ("freq_low", ["stats", "--frequency-hz", "1e-300"], None),
            ("freq_high", ["stats", "--frequency-hz", "1e300"], None)):
        add(f"refuse_{name}.csv", argv, config)
    return out


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(checkout, out_dir):
    """Run every command with ``checkout``'s ``src`` into ``out_dir``, which
    must be new or empty: a file left from another run would hide one
    that this run does not write."""
    out_dir = pathlib.Path(out_dir).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    if any(out_dir.iterdir()):
        sys.exit(f"error: {out_dir} is not empty")
    src = str(pathlib.Path(checkout).resolve() / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    for name, argv, config, cpus in commands():
        argv = list(argv) + ["--out", name]
        if config is not None:
            (out_dir / f"{name}.config.json").write_text(json.dumps(config))
            argv += ["--config", f"{name}.config.json"]
        t0 = time.perf_counter()
        with open(out_dir / f"{name}.stdout", "wb") as out, \
                open(out_dir / f"{name}.stderr", "wb") as err:
            code = subprocess.run(
                [sys.executable, "-m", "nfdof.cli", *argv], cwd=out_dir, env=env,
                stdout=out, stderr=err, timeout=600,
                preexec_fn=_one_cpu if cpus == "one" else None).returncode
        (out_dir / f"{name}.exit").write_text(f"{code}\n")
        print(f"{name}: exit {code} ({time.perf_counter() - t0:.1f}s)", flush=True)


def differing(a, b):
    """Relative paths of the files that differ or exist in one tree only."""
    files = {p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()}
    return sorted(str(f) for f in files if not (
        (a / f).is_file() and (b / f).is_file()
        and filecmp.cmp(a / f, b / f, shallow=False)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="action", required=True)
    p = sub.add_parser("run")
    p.add_argument("out_dir")
    p = sub.add_parser("compare")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    if args.action == "run":
        run(HERE, args.out_dir)
        return 0
    work = pathlib.Path(args.work).resolve()
    for side, checkout in (("a", args.parent), ("b", args.change)):
        run(checkout, work / side)
    diff = differing(work / "a", work / "b")
    for name in diff:
        print(f"differs: {name}")
    print(f"{len(diff)} of {sum(1 for _ in (work / 'a').rglob('*'))} files differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
