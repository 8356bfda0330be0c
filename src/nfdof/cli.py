"""Batch command-line front-end.

Subcommands: ``dof``, ``sweep``, ``svd-compare``, ``kernel-scan``,
``stats``, ``figure``.  Parameters come from an optional JSON config
file (flat keys) overridden by the flags of ``FLAGS``.  ``DOMAINS``
gives the domain and default of every field and ``sweep``/``stats``
section key; with the flags applied ``_check`` holds config and flag
values alike to it, so an unknown key, a value of the wrong kind or one
outside its domain exits 2, naming the field, before anything is computed.
Every file output is accompanied by a ``<name>.manifest.json`` echoing
the full parameter set and seed (for ``stats``, the ``STATS_FIELDS``
that its curve reads; for ``figure``, the recipe's bindings and the
seed, which are all that it uses), and reruns with identical inputs are
byte-identical.

Output is columnar from the computation to the bytes: every command but
``dof`` hands the (header, columns, record) of one shared loop in
``figures`` to ``_write_rows``, which formats each table in one ``%``
call and puts the record, keyed as the manifest writes it, into the
manifest.  CSV cells are floats to 9 significant digits (``nan`` for
NaN), integers in full, strings as they are, an empty cell for no value
and lists joined by ``;``.  JSON output is a list of records, NaN as null.

``main`` builds its argument parser once per process and may be called
repeatedly in one process.  A command runs only the module bodies it uses
(see ``nfdof``): ``dof`` runs ``geometry`` and ``dof_core``, and ``sweep``
adds ``figures``; ``kernel-scan`` and ``svd-compare`` add ``numerics`` and
``kernel`` or ``svd_oracle``; ``stats`` runs ``figures``, ``statistics``
and ``numerics``; ``figure`` runs what its recipe's loop uses.

Exit codes: 0 success, 1 numeric failure, 2 usage/config error.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from itertools import chain

import numpy as np

from . import __version__, dof_core, figures, geometry
from . import statistics as stats
from .constants import (DEFAULT_SUM_RULE_FRACTION, FULL_VISIBILITY, MIN_MC_SAMPLES,
                        MIN_SCAN_SAMPLES, SCENARIOS, link_params)

SWEEPABLE = ("theta_T", "theta_R", "x0", "y0", "L_T", "L_R", "frequency")
# the config fields that ``stats`` reads and its manifest records, so that
# a flag it ignores (``--x0``) leaves the manifest as it was
STATS_FIELDS = ("L_T_m", "L_R_m", "frequency_hz", "seed", "stats")
# config field -> its flag: ``--seed`` takes an integer, the others floats
FLAGS = {"seed": "--seed", "frequency_hz": "--frequency-hz", "L_T_m": "--l-t",
         "L_R_m": "--l-r", "x0_m": "--x0", "y0_m": "--y0", "theta_T": "--theta-t",
         "theta_R": "--theta-r"}
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

# ((test, domain), default) of every config field and of every key of the
# ``sweep`` and ``stats`` sections; a section's domain is its own table of
# keys, and the section defaults to null.  What depends on two values
# stays a library refusal: stats.x0 only in the conditional scenario and
# there <= R (exit 2), and svd_spacing's lambda/2 and matrix-size caps
# and zeta_ref's aperture (exit 1).
DOMAINS = {
    "frequency_hz": (POSITIVE, 30e9), "L_T_m": (POSITIVE, 0.2),
    "L_R_m": (POSITIVE, 5.0), "x0_m": (FINITE, 10.0), "y0_m": (FINITE, 0.0),
    "theta_T": (FINITE, 0.0), "theta_R": (FINITE, math.pi), "seed": (_count(0), 0),
    "sweep": ({"parameter": ((lambda v: v in SWEEPABLE, f"one of {SWEEPABLE}"),
                             REQUIRED),
               "start": (FINITE, REQUIRED), "stop": (FINITE, REQUIRED),
               "steps": (_count(1, MAX_SWEEP_STEPS), REQUIRED)}, None),
    "stats": ({"R": (POSITIVE, 20.0),
               "scenario": ((lambda v: v in SCENARIOS, f"one of {SCENARIOS}"),
                            FULL_VISIBILITY),
               "x0": (POSITIVE_OR_NULL, None),
               "grid_points": (_count(2, MAX_GRID_POINTS), 201),
               "mc_samples": (_count(MIN_MC_SAMPLES, MAX_MC_SAMPLES, zero=True),
                              100_000)}, None),
    "svd_threshold": ((lambda v: FINITE[0](v) and 0 < v < 1, "a number in (0, 1)"),
                      DEFAULT_SUM_RULE_FRACTION),
    "svd_spacing": (POSITIVE_OR_NULL, None),
    "zeta_ref": (FINITE, 0.0),
    "n_samples": (_count(MIN_SCAN_SAMPLES, MAX_SCAN_SAMPLES), 1024),
}


class UsageError(Exception):
    """Configuration / usage problem (exit code 2)."""


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
    return data


def _check(cfg):
    """Hold every field of ``cfg`` and every key of its sections to
    ``DOMAINS``; a section holds only its own keys."""
    for key, (domain, _) in DOMAINS.items():
        value = cfg[key]
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


def _run_config(args):
    """The run's fields: the defaults, then the config file, then the
    flags, all held to ``DOMAINS`` before any computation; ``--deg`` then
    turns the angles given in the config file or a flag into radians, and
    a default angle stays in radians."""
    given = _load_config(args.config) if args.config else {}
    given.update((key, value) for key in FLAGS
                 if (value := getattr(args, key)) is not None)
    cfg = {key: given.get(key, default) for key, (_, default) in DOMAINS.items()}
    _check(cfg)
    if args.deg:
        for key in ("theta_T", "theta_R"):
            if key in given:
                cfg[key] = math.radians(cfg[key])
        sweep = cfg["sweep"]
        if sweep and sweep["parameter"] in ("theta_T", "theta_R"):
            cfg["sweep"] = {**sweep, "start": math.radians(sweep["start"]),
                            "stop": math.radians(sweep["stop"])}
    return cfg


def _fmt(x):
    """One CSV cell of a column without a float, int or str dtype."""
    if x is None:
        return ""
    if isinstance(x, (list, tuple)):
        return ";".join(_fmt(v) for v in x)
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.9g}"


def _spec(column):
    """The ``%`` spec and the cells of one column: a float, int or str
    numpy column's by its dtype; any other column, a list or a numpy
    column of objects or bools, cell by cell through ``_fmt``."""
    if isinstance(column, np.ndarray):
        kind, column = column.dtype.kind, column.tolist()
        if kind in "fiuU":
            return ("%.9g" if kind == "f" else "%s"), column
    return "%s", map(_fmt, column)


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


def _json_text(obj):
    """Every JSON output and manifest: sorted keys, indent 2, a newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(header, columns, args, manifest):
    """Write equal-length ``columns`` under ``header`` as CSV or JSON."""
    if args.format == "csv":
        specs, values = zip(*map(_spec, columns))
        # template, cells and filled rows are temporaries, freed before the write
        text = (",".join(header) + "\n" + (",".join(specs) + "\n") * len(columns[0])
                % tuple(chain.from_iterable(zip(*values))))
    else:
        records = [dict(zip(header, row)) for row in zip(*map(_jsonable, columns))]
        text = _json_text(records)
    _write_out(text, args, manifest)


def _write_out(text, args, manifest):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        with open(args.out + ".manifest.json", "w") as fh:
            fh.write(_json_text(_jsonable(manifest)))
    else:
        sys.stdout.write(text)


def _manifest(command, **record):
    return {"tool": "nfdof", "version": __version__, "command": command, **record}


def cmd_dof(cfg, args):
    res = dof_core.dof(geometry.make_link(**link_params(cfg)))
    report = {
        **asdict(res.visibility),
        "a_plus": res.a_plus, "a_minus": res.a_minus, "a_zero": res.a_zero,
        "rho_c": res.rho_c, "m_plus": res.m_plus, "m_minus": res.m_minus,
        "m_real": res.m_real, "m_int": res.m_int,
        "warnings": res.warnings,
    }
    manifest = _manifest("dof", parameters=cfg)
    if args.format == "csv":
        _emit(list(report), [[v] for v in report.values()], args, manifest)
    else:
        _write_out(_json_text(_jsonable(report)), args, manifest)
    return 0


def _sweep_values(cfg):
    sweep = cfg["sweep"]
    if sweep is None:
        raise UsageError("sweep requires a 'sweep' config section or flags")
    return (sweep["parameter"], np.linspace(
        float(sweep["start"]), float(sweep["stop"]), sweep["steps"]))


def _write_rows(command, rows, args, **fields):
    """Write a loop's (header, columns, record) with the command's own
    manifest ``fields``, warning first on a quadrature estimate above
    ``QUADRATURE_WARN_ABS``."""
    header, columns, record = rows
    estimate = record.get("quadrature", {}).get("abs_error_estimate", -math.inf)
    if estimate > QUADRATURE_WARN_ABS:
        print(f"warning: deconditioning error estimate {estimate:.2e} "
              f"exceeds {QUADRATURE_WARN_ABS:g}", file=sys.stderr)
    _emit(header, columns, args, _manifest(command, **fields, **record))
    return 0


def cmd_sweep(cfg, args):
    return _write_rows("sweep", figures.sweep_rows(
        link_params(cfg), *_sweep_values(cfg)), args, parameters=cfg)


def cmd_svd_compare(cfg, args):
    return _write_rows("svd-compare", figures.svd_compare_rows(
        link_params(cfg), *_sweep_values(cfg), cfg["svd_spacing"],
        cfg["svd_threshold"]), args, parameters=cfg, threshold=cfg["svd_threshold"])


def cmd_kernel_scan(cfg, args):
    return _write_rows("kernel-scan", figures.kernel_scan_rows(
        link_params(cfg), cfg["zeta_ref"], cfg["n_samples"]), args,
        parameters=cfg)


def cmd_stats(cfg, args):
    section = {name: (cfg["stats"] or {}).get(name, default)
               for name, (_, default) in DOMAINS["stats"][0].items()}
    try:
        scen_cfg = stats.ScenarioConfig(
            R=float(section["R"]), L_T=cfg["L_T_m"], L_R=cfg["L_R_m"], x0=section["x0"],
            frequency=cfg["frequency_hz"], scenario=section["scenario"])
    except ValueError as e:  # x0 against R or the scenario: two values each
        raise UsageError(f"stats.{e}")
    grid_points, mc_samples = section["grid_points"], section["mc_samples"]
    header, columns, record = figures.curve_rows(
        scen_cfg, grid_points, mc_samples, cfg["seed"])
    columns += [np.full(grid_points, mc_samples), np.full(grid_points, cfg["seed"])]
    return _write_rows("stats", (header + ["mc_samples", "seed"], columns, record),
                       args, parameters={key: cfg[key] for key in STATS_FIELDS},
                       scenario=asdict(scen_cfg))


def cmd_figure(cfg, args):
    fig_id, ids = args.id, figures.FIGURE_IDS
    if fig_id not in ids:
        raise UsageError(f"unknown figure id {fig_id!r}; choose from {ids}")
    # the recipe's bindings and the seed are all that a figure reads
    return _write_rows(f"figure {fig_id}", figures.figure_rows(fig_id, seed=cfg["seed"]),
                       args, figure=fig_id, bindings=figures.FIGURES[fig_id][1],
                       seed=cfg["seed"])


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
        p.add_argument("--config", help="JSON config file with DOMAINS fields")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"),
                       default="json" if name == "dof" else "csv")
        for key, flag in FLAGS.items():  # --deg after --seed in the usage line
            p.add_argument(flag, dest=key, type=int if key == "seed" else float,
                           metavar=flag[2:].replace("-", "_").upper())
            if key == "seed":
                p.add_argument("--deg", action="store_true",
                               help="interpret angle inputs in degrees")
        if name == "figure":
            p.add_argument("--id", required=True)
    return parser


def _join_float_values(argv):
    """``--x0 -1e-3`` as ``--x0=-1e-3``: argparse takes a token that starts
    with '-' and is not a plain decimal (an exponent, ``-inf``) for an
    option, so a float flag's value is attached to the flag instead."""
    out = []
    for token in argv:
        if (out and out[-1] in FLAGS.values() and out[-1] != FLAGS["seed"]
                and token.startswith("-")):
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
        return args.func(_run_config(args), args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, ArithmeticError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
