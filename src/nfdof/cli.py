"""Batch command-line front-end.

Subcommands: ``dof``, ``sweep``, ``svd-compare``, ``kernel-scan``,
``stats``, ``figure``.  Parameters come from an optional JSON config
file (flat keys) overridden by command-line flags.  ``DOMAINS`` gives
the domain of every ``RunConfig`` field and ``sweep``/``stats`` section
key; once the flags are applied ``_check`` holds config and flag values
alike to it, so an unknown key, a value of the wrong kind or one outside
its domain exits 2, naming the field, before anything is computed.
Every file output is accompanied by a ``<name>.manifest.json`` echoing
the full parameter set and seed (for ``figure``, the recipe's bindings
and the seed, which are all that it uses), and reruns with identical
inputs are byte-identical.

Output is columnar from the computation to the bytes: each command
takes the columns of one shared loop in ``figures`` and formats each
column once, by what it holds.  CSV cells are floats to 9 significant
digits (``nan`` for NaN), integers in full, strings as they are, an
empty cell for no value and lists joined by ``;``.  JSON output is a
list of records, NaN as null.

``main`` builds its argument parser once per process and may be called
repeatedly in one process.

Exit codes: 0 success, 1 numeric failure, 2 usage/config error.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import __version__
from . import statistics as stats
from .dof_core import dof
from .figures import (FIGURE_IDS, FIGURES, curve_rows, figure_rows,
                      kernel_scan_rows, link_params, svd_compare_rows, sweep_rows)
from .geometry import make_link
from .kernel import MIN_SCAN_SAMPLES
from .svd_oracle import DEFAULT_SUM_RULE_FRACTION

SWEEPABLE = ("theta_T", "theta_R", "x0", "y0", "L_T", "L_R", "frequency")
FLOAT_FLAGS = ("--frequency-hz", "--l-t", "--l-r", "--x0", "--y0", "--theta-t",
               "--theta-r")
# CCDF error estimate above which ``stats`` and the curve figures warn
QUADRATURE_WARN_ABS = 1e-9
# the largest counts a run takes: a run at a cap takes seconds and < 1 GB
MAX_SWEEP_STEPS, MAX_SCAN_SAMPLES = 10 ** 6, 10 ** 6
MAX_GRID_POINTS, MAX_MC_SAMPLES = 10 ** 5, 10 ** 7


def _count(low, high=math.inf, zero=False):
    """JSON integers in [low, high], and 0 too with ``zero``."""
    text = (f"an integer >= {low}" if high == math.inf else
            f"an integer in [{low}, {high}]")
    return (lambda v: type(v) is int and (low <= v <= high or zero and v == 0),
            "0 or " * zero + text)


# a JSON number (an integer is no bool) that is finite as a float
FINITE = (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
          "a finite number")
POSITIVE = (lambda v: FINITE[0](v) and v > 0, "a finite number > 0")
POSITIVE_OR_NULL = (lambda v: v is None or POSITIVE[0](v),
                    "null or a finite number > 0")
REQUIRED = object()  # fails every test: a section key without a default

# (test, domain) of every RunConfig field and, with its default, of every
# key of the ``sweep`` and ``stats`` sections.  What depends on two values
# stays a library refusal: the conditional x0 <= R (exit 2), and
# svd_spacing's lambda/2 cap and zeta_ref's aperture (exit 1).
DOMAINS = {
    "frequency_hz": POSITIVE, "L_T_m": POSITIVE, "L_R_m": POSITIVE,
    "x0_m": FINITE, "y0_m": FINITE, "theta_T": FINITE, "theta_R": FINITE,
    "seed": _count(0),
    "sweep": {"parameter": ((lambda v: v in SWEEPABLE, f"one of {SWEEPABLE}"),
                            REQUIRED),
              "start": (FINITE, REQUIRED), "stop": (FINITE, REQUIRED),
              "steps": (_count(1, MAX_SWEEP_STEPS), REQUIRED)},
    "stats": {"R": (POSITIVE, 20.0),
              "scenario": ((lambda v: v in stats.SCENARIOS,
                            f"one of {stats.SCENARIOS}"), stats.FULL_VISIBILITY),
              "x0": (POSITIVE_OR_NULL, None),
              "grid_points": (_count(2, MAX_GRID_POINTS), 201),
              "mc_samples": (_count(stats.MIN_MC_SAMPLES, MAX_MC_SAMPLES, zero=True),
                             100_000)},
    "svd_threshold": (lambda v: FINITE[0](v) and 0 < v < 1, "a number in (0, 1)"),
    "svd_spacing": POSITIVE_OR_NULL,
    "zeta_ref": FINITE,
    "n_samples": _count(MIN_SCAN_SAMPLES, MAX_SCAN_SAMPLES),
}


class UsageError(Exception):
    """Configuration / usage problem (exit code 2)."""


@dataclass
class RunConfig:
    frequency_hz: float = 30e9
    L_T_m: float = 0.2
    L_R_m: float = 5.0
    x0_m: float = 10.0
    y0_m: float = 0.0
    theta_T: float = 0.0
    theta_R: float = math.pi
    seed: int = 0
    sweep: Optional[dict] = None
    stats: Optional[dict] = None
    svd_threshold: float = DEFAULT_SUM_RULE_FRACTION
    svd_spacing: Optional[float] = None
    zeta_ref: float = 0.0
    n_samples: int = 1024


def _load_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}")
    except json.JSONDecodeError as e:
        raise UsageError(f"config {path} is not valid JSON: line {e.lineno}, {e.msg}")
    if not isinstance(data, dict):
        raise UsageError(f"config {path}: top level must be an object")
    for key in data:
        if key not in DOMAINS:
            raise UsageError(f"config {path}: unknown field {key!r}")
    return RunConfig(**data)


def _check(cfg: RunConfig):
    """Hold every field of ``cfg`` and every key of its sections to
    ``DOMAINS``; a section holds only its own keys."""
    for key, domain in DOMAINS.items():
        value = getattr(cfg, key)
        if not isinstance(domain, dict):
            if not domain[0](value):
                raise UsageError(f"{key} must be {domain[1]}, got {value!r}")
        elif value is not None:
            if not isinstance(value, dict):
                raise UsageError(f"{key} must be null or an object, got {value!r}")
            for name in value:
                if name not in domain:
                    raise UsageError(f"unknown key {name!r} in section {key!r}; "
                                     f"choose from {tuple(domain)}")
            for name, ((test, text), default) in domain.items():
                if not test(value.get(name, default)):
                    got = f"got {value[name]!r}" if name in value else "none given"
                    raise UsageError(f"{key}.{name} must be {text}, {got}")


def _apply_flags(cfg: RunConfig, args):
    overrides = {
        "frequency_hz": args.frequency_hz, "L_T_m": args.l_t, "L_R_m": args.l_r,
        "x0_m": args.x0, "y0_m": args.y0, "theta_T": args.theta_t,
        "theta_R": args.theta_r, "seed": args.seed,
    }
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    # config and flag values alike, before any computation
    _check(cfg)
    if args.deg:
        cfg.theta_T = math.radians(cfg.theta_T)
        cfg.theta_R = math.radians(cfg.theta_R)
        if cfg.sweep and cfg.sweep["parameter"] in ("theta_T", "theta_R"):
            cfg.sweep = dict(cfg.sweep)
            for key in ("start", "stop"):
                cfg.sweep[key] = math.radians(cfg.sweep[key])
    return cfg


def _fmt(x):
    """One CSV cell of a column that mixes kinds."""
    if x is None:
        return ""
    if isinstance(x, (list, tuple)):
        return ";".join(_fmt(v) for v in x)
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.9g}"


def _cells(column):
    """The CSV cells of one column, formatted by what it holds: floats to
    9 significant digits (``nan`` for NaN), integers in full (Python ints
    past 2**63 too), strings as they are, a mix cell by cell."""
    values = column.tolist() if isinstance(column, np.ndarray) else column
    kinds = set(map(type, values))
    if kinds <= {float}:
        return map("{:.9g}".format, values)
    if kinds <= {int}:
        return map(str, values)
    if kinds <= {str}:
        return values
    return map(_fmt, values)


def _jsonable(x):
    if isinstance(x, (np.floating, float)):
        return None if math.isnan(x) else float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def _emit(header, columns, args, manifest):
    """Write equal-length ``columns`` under ``header`` as CSV or JSON."""
    if args.format == "csv":
        lines = map(",".join, zip(*map(_cells, columns)))
        text = "\n".join([",".join(header), *lines]) + "\n"
    else:
        records = [dict(zip(header, row)) for row in zip(*map(_jsonable, columns))]
        text = json.dumps(records, indent=2, sort_keys=True) + "\n"
    _write_out(text, args, manifest)


def _write_out(text, args, manifest):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        with open(args.out + ".manifest.json", "w") as fh:
            fh.write(json.dumps(_jsonable(manifest), indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text)


def _manifest(command, **record):
    return {"tool": "nfdof", "version": __version__, "command": command, **record}


def cmd_dof(cfg: RunConfig, args):
    res = dof(make_link(**link_params(vars(cfg))))
    vis = res.visibility
    report = {
        "status": vis.status,
        "visible_endpoint": vis.visible_endpoint,
        "l_T": vis.l_T, "l_R": vis.l_R,
        "eta_c": vis.eta_c, "zeta_c": vis.zeta_c,
        "a_plus": res.a_plus, "a_minus": res.a_minus, "a_zero": res.a_zero,
        "rho_c": res.rho_c, "m_plus": res.m_plus, "m_minus": res.m_minus,
        "m_real": res.m_real, "m_int": res.m_int,
        "warnings": res.warnings,
    }
    manifest = _manifest("dof", parameters=asdict(cfg))
    if args.format == "csv":
        _emit(list(report), [[v] for v in report.values()], args, manifest)
    else:
        _write_out(json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n", args,
                   manifest)
    return 0


def _sweep_values(cfg: RunConfig):
    if cfg.sweep is None:
        raise UsageError("sweep requires a 'sweep' config section or flags")
    return (cfg.sweep["parameter"], np.linspace(
        float(cfg.sweep["start"]), float(cfg.sweep["stop"]), cfg.sweep["steps"]))


def cmd_sweep(cfg: RunConfig, args):
    header, columns = sweep_rows(link_params(vars(cfg)), *_sweep_values(cfg))
    _emit(header, columns, args, _manifest("sweep", parameters=asdict(cfg)))
    return 0


def cmd_svd_compare(cfg: RunConfig, args):
    header, columns, svd_grid = svd_compare_rows(
        link_params(vars(cfg)), *_sweep_values(cfg), cfg.svd_spacing,
        cfg.svd_threshold)
    _emit(header, columns, args,
          _manifest("svd-compare", parameters=asdict(cfg),
                    threshold=cfg.svd_threshold, svd_grid=svd_grid))
    return 0


def cmd_kernel_scan(cfg: RunConfig, args):
    header, columns, kernel = kernel_scan_rows(link_params(vars(cfg)),
                                               cfg.zeta_ref, cfg.n_samples)
    _emit(header, columns, args,
          _manifest("kernel-scan", parameters=asdict(cfg), kernel=kernel))
    return 0


def _warn_quadrature(quadrature):
    estimate = quadrature["abs_error_estimate"]
    if estimate > QUADRATURE_WARN_ABS:
        print(f"warning: deconditioning error estimate {estimate:.2e} "
              f"exceeds {QUADRATURE_WARN_ABS:g}", file=sys.stderr)


def cmd_stats(cfg: RunConfig, args):
    section = {name: (cfg.stats or {}).get(name, default)
               for name, (_, default) in DOMAINS["stats"].items()}
    try:
        scen_cfg = stats.ScenarioConfig(
            R=float(section["R"]), L_T=cfg.L_T_m, L_R=cfg.L_R_m,
            frequency=cfg.frequency_hz, scenario=section["scenario"], x0=section["x0"])
    except ValueError as e:  # the conditional x0 <= R, which takes two values
        raise UsageError(str(e))
    grid_points, mc_samples = section["grid_points"], section["mc_samples"]
    header, columns, quadrature = curve_rows(scen_cfg, grid_points, mc_samples,
                                             cfg.seed)
    _warn_quadrature(quadrature)
    _emit(header + ["mc_samples", "seed"],
          columns + [[mc_samples] * grid_points, [cfg.seed] * grid_points], args,
          _manifest("stats", parameters=asdict(cfg), scenario=asdict(scen_cfg),
                    quadrature=quadrature))
    return 0


def cmd_figure(cfg: RunConfig, args):
    fig_id = args.id
    if fig_id not in FIGURE_IDS:
        raise UsageError(f"unknown figure id {fig_id!r}; choose from {FIGURE_IDS}")
    header, columns, record = figure_rows(fig_id, seed=cfg.seed)
    if "quadrature" in record:
        _warn_quadrature(record["quadrature"])
    # the recipe's bindings and the seed are all that a figure reads
    _emit(header, columns, args, _manifest(
        f"figure {fig_id}", figure=fig_id, bindings=FIGURES[fig_id][1],
        seed=cfg.seed, **record))
    return 0


# built once per process: parse_args leaves the parser as it was, so every
# call of ``main`` in a process can share it
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(prog="nfdof", description=(
        "Spatial mode counting between two coplanar linear arrays"))
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "dof": cmd_dof, "sweep": cmd_sweep, "svd-compare": cmd_svd_compare,
        "kernel-scan": cmd_kernel_scan, "stats": cmd_stats, "figure": cmd_figure,
    }
    for name in commands:
        p = sub.add_parser(name)
        p.set_defaults(func=commands[name])
        p.add_argument("--config", help="JSON config file with RunConfig fields")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"),
                       default="json" if name == "dof" else "csv")
        p.add_argument("--seed", type=int)
        p.add_argument("--deg", action="store_true",
                       help="interpret angle inputs in degrees")
        for flag in FLOAT_FLAGS:
            p.add_argument(flag, type=float)
        if name == "figure":
            p.add_argument("--id", required=True)
    return parser


def _join_float_values(argv):
    """``--x0 -1e-3`` as ``--x0=-1e-3``: argparse takes a token that starts
    with '-' and is not a plain decimal (an exponent, ``-inf``) for an
    option, so a float flag's value is attached to the flag instead."""
    out = []
    for token in argv:
        if out and out[-1] in FLOAT_FLAGS and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(_join_float_values(
        sys.argv[1:] if argv is None else argv))
    try:
        cfg = _load_config(args.config) if args.config else RunConfig()
        cfg = _apply_flags(cfg, args)
        return args.func(cfg, args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, ArithmeticError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
