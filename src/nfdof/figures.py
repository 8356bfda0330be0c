"""Reference-figure recipes: parameter bindings plus data generation.

Each recipe reproduces the data behind one published-style figure:
kernel scans, DoF sweeps, singular spectra, mode-count distributions,
and the visibility-probability surface.  Rotation angles follow this
package's counter-clockwise-positive convention; captions quoted from
clockwise-positive plots have their receive rotation negated here (the
physical configuration, and hence all magnitudes, are identical).
"""

import math

import numpy as np

from . import statistics as stats
from .dof_core import dof_arrays
from .geometry import classify_visibility, link_arrays, make_link
from .kernel import kernel_farfield, kernel_scan
from .svd_oracle import (DEFAULT_SUM_RULE_FRACTION, channel_matrix,
                         effective_dof, gram_powers, singular_spectrum)

__all__ = [
    "FIGURE_IDS", "figure_rows", "figure_params", "link_params",
    "sweep_rows", "svd_compare_rows", "kernel_scan_rows", "curve_rows",
]

_F = 30e9
_LAM = 0.01

# (binding name as in the CLI's RunConfig, make_link keyword)
_LINK_KEYS = (("L_T_m", "L_T"), ("L_R_m", "L_R"), ("theta_T", "theta_T"),
              ("theta_R", "theta_R"), ("x0_m", "x0"), ("y0_m", "y0"),
              ("frequency_hz", "frequency"))

# kernel-comparison configurations: (L_T, L_R, theta_T, theta_R, x0, y0)
_KERNEL_CONFIGS = {
    "fig3a": (0.2, 5.0, 0.0, np.pi, 10.0, 0.0),
    "fig3b": (0.2, 5.0, np.pi / 3, np.pi, 10.0, 0.0),
    "fig3c": (1.0, 5.0, np.pi / 3, -np.pi / 3, -5.0, 5.0),
    "fig3d": (0.2, 5.0, np.pi / 3, -np.pi / 3, -5.0, 5.0),
}

# DoF-vs-SVD sweep geometries: (x0, y0, theta_T, theta_R sweep center)
_FIG7_GEOMETRIES = {
    "fig7a": (10.0, 0.0, 0.0, np.pi),
    "fig7b": (0.0, 10.0, np.pi / 2, -np.pi / 2),
    "fig7c": (5.0, 5.0, np.pi / 4, -3 * np.pi / 4),
}

# default normalized distances x0 / L_R for the range study; the smallest
# value is the closest admissible distance 1.2 (L_T + L_R) / L_R
_FIG8_X0_OVER_LR = (1.32, 2.0, 3.0, 5.0, 10.0)

_FIG9_RADII = (5.0, 10.0, 20.0, 200.0)
_FIG10_CASES = tuple((x0, L_R) for x0 in (5.0, 10.0) for L_R in (2.0, 5.0))

FIGURE_IDS = (
    "fig3a", "fig3b", "fig3c", "fig3d", "fig4", "fig5",
    "fig7a", "fig7b", "fig7c", "fig8", "fig9a", "fig9b", "fig10", "fig11",
)


def figure_params(fig_id):
    """Parameter bindings of a recipe, for the output manifest."""
    if fig_id in _KERNEL_CONFIGS:
        L_T, L_R, thT, thR, x0, y0 = _KERNEL_CONFIGS[fig_id]
        return {"frequency_hz": _F, "L_T_m": L_T, "L_R_m": L_R,
                "theta_T": thT, "theta_R": thR, "x0_m": x0, "y0_m": y0,
                "zeta_ref": 0.0, "n_samples": 1024}
    if fig_id in ("fig4", "fig5"):
        p = {"frequency_hz": _F, "L_T_m": 0.2, "L_R_m": 5.0,
             "theta_T": np.pi / 2, "x0_m": -5.0, "y0_m": 5.0}
        if fig_id == "fig5":
            p["theta_R"] = -np.deg2rad(53.0)
            p["spacing"] = _LAM / 2.0
        else:
            p["theta_R_sweep"] = [-np.pi, np.pi, 721]
        return p
    if fig_id in _FIG7_GEOMETRIES:
        x0, y0, thT, center = _FIG7_GEOMETRIES[fig_id]
        return {"frequency_hz": _F, "L_T_m": 0.2, "L_R_m": 5.0,
                "theta_T": thT, "x0_m": x0, "y0_m": y0,
                "theta_R_sweep": [center - np.pi / 2, center + np.pi / 2, 181],
                "threshold": DEFAULT_SUM_RULE_FRACTION, "spacing": _LAM / 4.0}
    if fig_id == "fig8":
        return {"frequency_hz": _F, "L_T_m": 0.2, "L_R_m": 2.0,
                "theta_T": 0.0, "y0_m": 0.0,
                "x0_over_LR": list(_FIG8_X0_OVER_LR),
                "theta_R_sweep": [-np.pi, np.pi, 721]}
    if fig_id in ("fig9a", "fig9b"):
        return {"frequency_hz": _F, "L_T_m": 0.2, "L_R_m": 2.0,
                "radii": list(_FIG9_RADII),
                "scenario": (stats.PARTIAL_R_PLUS if fig_id == "fig9a"
                             else stats.FULL_VISIBILITY),
                "grid_points": 201, "mc_samples": 200_000}
    if fig_id == "fig10":
        return {"frequency_hz": _F, "L_T_m": 0.2,
                "cases": [list(c) for c in _FIG10_CASES],
                "grid_points": 401, "mc_samples": 200_000}
    if fig_id == "fig11":
        return {"x0_grid": [1.0, 50.0, 50], "L_R_grid": [1.0, 10.0, 19]}
    raise KeyError(f"unknown figure id {fig_id!r}")


def link_params(bindings):
    """``make_link`` keywords from bindings named like the CLI's
    ``RunConfig`` fields; absent bindings (a swept one) are left out."""
    return {kw: bindings[name] for name, kw in _LINK_KEYS if name in bindings}


def _dof_sweep(link, key, values):
    """``dof_arrays`` along a sweep of ``make_link`` keyword ``key``, the
    other keywords fixed by ``link``: one call for the whole sweep."""
    return dof_arrays(link_arrays(**{**link, key: values}))


def sweep_rows(link, key, values):
    """(header, columns) of a DoF sweep; ``m_int`` is 0 where it is None."""
    res = _dof_sweep(link, key, values)
    return ([key, "m_real", "m_int", "status"],
            [values, res.m_real, res.m_int, res.visibility.statuses()])


def svd_compare_rows(link, key, values, spacing, threshold):
    """(header, columns, grid record) of the mode count against the
    sum-rule count of the channel matrix along a sweep, each column closed
    by its ``max`` entry.  The sweep's ``m_int`` picks the steps to count;
    each is built with ``make_link`` for ``channel_matrix``, and links
    without modes count 0 for both.  The record holds the shape of the
    largest matrix decomposed (0 x 0 without any)."""
    steps, m_int = values.tolist(), _dof_sweep(link, key, values).m_int.tolist()
    eds, shape = [], (0, 0)
    for v, m in zip(steps, m_int):
        ed = 0
        if m:
            cm = channel_matrix(make_link(**{**link, key: v}), spacing=spacing)
            shape = max(shape, cm.entries.shape, key=math.prod)
            ed = effective_dof(gram_powers(cm), threshold)
        eds.append(ed)
    diffs = [abs(m - ed) for m, ed in zip(m_int, eds)]
    columns = [steps + ["max"], m_int + [""], eds + [""], diffs + [max(diffs)]]
    return ([key, "m_int", "effective_dof", "abs_diff"], columns,
            _grid_record(shape))


def kernel_scan_rows(link, zeta_ref, n_samples):
    """(header, columns, kernel record) of the exact and far-field kernel
    across the effective receive aperture, with its significant minima
    flagged; the record counts the samples and the sinc-limit ones."""
    lk = make_link(**link)
    rep = classify_visibility(lk)
    scan = kernel_scan(lk, zeta_ref=zeta_ref, n_samples=n_samples, report=rep)
    far = np.abs(kernel_farfield(scan.zeta, zeta_ref, lk, rep))
    is_min = np.zeros(scan.zeta.size, dtype=int)
    is_min[scan.minima] = 1
    v = scan.values
    columns = [scan.zeta, v.real, v.imag, np.abs(v), far, is_min]
    record = {"samples": scan.zeta.size, "sinc_fallback": scan.sinc_fallback}
    return ["zeta", "re", "im", "magnitude", "magnitude_farfield",
            "is_minimum"], columns, record


def curve_rows(cfg, grid_points, mc_samples, seed):
    """(header, columns, quadrature record) of the analytic and Monte
    Carlo CCDF of ``cfg`` on ``grid_points`` thresholds across [0, 2C];
    the Monte Carlo column is NaN without samples."""
    grid = np.linspace(0.0, 2.0 * cfg.C, grid_points)
    curve = stats.ccdf(cfg, grid, mc_samples=mc_samples, seed=seed)
    mc = curve.mc_ccdf if curve.mc_ccdf is not None else np.full(grid.size, np.nan)
    quadrature = {"nodes": curve.quadrature_nodes,
                  "abs_error_estimate": curve.abs_error_estimate}
    return (["mu_th", "pdf", "ccdf_analytic", "ccdf_mc"],
            [curve.grid, curve.pdf, curve.ccdf, mc], quadrature)


def figure_rows(fig_id, seed=0):
    """(header, columns, manifest additions) of the data file behind the
    recipe: its ``figure_params`` bindings passed to the shared loops."""
    p = figure_params(fig_id)
    link, extra = link_params(p), {}
    if fig_id in _KERNEL_CONFIGS:
        _, cols, kernel = kernel_scan_rows(link, p["zeta_ref"], p["n_samples"])
        header = ["zeta", "magnitude_exact", "magnitude_farfield", "is_minimum"]
        cols = [cols[0], cols[3], cols[4], cols[5]]
        extra = {"kernel": kernel}
    elif fig_id == "fig4":
        header, cols = sweep_rows(link, "theta_R", _grid(p["theta_R_sweep"]))
    elif fig_id == "fig5":
        header, cols, svd_grid = _spectrum_rows(link, p["spacing"])
        extra = {"svd_grid": svd_grid}
    elif fig_id in _FIG7_GEOMETRIES:
        header, cols, svd_grid = svd_compare_rows(
            link, "theta_R", _grid(p["theta_R_sweep"]), p["spacing"],
            p["threshold"])
        extra = {"svd_grid": svd_grid}
    elif fig_id == "fig8":
        blocks = []
        for ratio in p["x0_over_LR"]:
            header, block = sweep_rows({**link, "x0": ratio * p["L_R_m"]}, "theta_R",
                                       _grid(p["theta_R_sweep"]))
            blocks.append(((ratio,), block))
        header, cols = ["x0_over_LR"] + header, _stack(blocks)
    elif fig_id in ("fig9a", "fig9b"):
        header, cols, extra = _curve_family(["R"], [
            ((R,), {"R": R, "L_R": p["L_R_m"], "scenario": p["scenario"]})
            for R in p["radii"]], p, seed)
    elif fig_id == "fig10":
        header, cols, extra = _curve_family(["x0", "L_R"], [
            ((x0, L_R), {"R": 20.0, "L_R": L_R, "x0": x0,
                         "scenario": stats.CONDITIONAL_ON_X0})
            for x0, L_R in p["cases"]], p, seed)
    else:  # fig11
        header, cols = _pov_rows(p)
    return header, cols, extra


def _grid(spec):
    lo, hi, n = spec
    return np.linspace(lo, hi, int(n))


def _stack(blocks):
    """(case values, columns) blocks one after another, each block's
    columns behind one constant column per case value."""
    return [np.concatenate(parts) for parts in zip(*(
        [np.full(len(cols[0]), v) for v in case] + cols for case, cols in blocks))]


def _curve_family(case_header, cases, p, seed):
    """Curves of several (case values, scenario keywords) pairs stacked
    with the case values in front, and one quadrature record holding the
    largest error estimate."""
    blocks, estimates = [], []
    for case, scenario in cases:
        cfg = stats.ScenarioConfig(L_T=p["L_T_m"], frequency=p["frequency_hz"],
                                   **scenario)
        header, block, quadrature = curve_rows(cfg, p["grid_points"],
                                               p["mc_samples"], seed)
        blocks.append((case, block))
        estimates.append(quadrature["abs_error_estimate"])
    return case_header + header, _stack(blocks), {"quadrature": {
        "nodes": quadrature["nodes"], "abs_error_estimate": max(estimates)}}


def _grid_record(shape):
    return {"rows": shape[0], "cols": shape[1]}


def _spectrum_rows(link, spacing):
    cm = channel_matrix(make_link(**link), spacing=spacing)
    rep = singular_spectrum(cm)
    index = np.arange(1, len(rep.singular_values) + 1)
    return (["index", "singular_value", "normalized_power", "cumulative_fraction"],
            [index, rep.singular_values, rep.normalized_powers,
             rep.cumulative_fraction], _grid_record(cm.entries.shape))


def _pov_rows(p):
    x0, L_R = np.meshgrid(_grid(p["x0_grid"]), _grid(p["L_R_grid"]), indexing="ij")
    x0, L_R = x0.ravel(), L_R.ravel()
    return ["x0", "L_R", "pov"], [x0, L_R, list(map(stats.pov, x0, L_R))]
