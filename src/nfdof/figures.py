"""Reference-figure recipes: one table of shared loops and bindings.

``FIGURES`` maps each figure id to the loop it runs and that loop's
bindings, and nothing else decides a recipe: ``figure_rows`` runs the
loop on the bindings, and the ``figure`` manifest records the same
bindings with the seed.  The loops are the commands' own (the sweep, the
SVD compare, the kernel scan and the distribution curve) plus the
singular spectrum and the visibility-probability surface.  Every loop
returns (header, columns, record), the record keyed as the manifest
writes it: empty, ``svd_grid``, ``kernel`` or ``quadrature``.  A binding
named like a field or ``stats`` key of the CLI's ``DOMAINS`` means what
it means there.  Rotation angles follow this package's
counter-clockwise-positive convention; captions quoted from
clockwise-positive plots have their receive rotation negated here (the
physical configuration, and hence all magnitudes, are identical).
"""

import math

import numpy as np

from . import dof_core, geometry, kernel, svd_oracle
from . import statistics as stats
from .constants import (CONDITIONAL_ON_X0, DEFAULT_SUM_RULE_FRACTION, FULL_VISIBILITY,
                        PARTIAL_R_PLUS, link_params)

__all__ = [
    "FIGURES", "FIGURE_IDS", "figure_rows",
    "sweep_rows", "svd_compare_rows", "kernel_scan_rows", "curve_rows",
]

def _dof_sweep(link, **swept):
    """Links and their ``dof_arrays`` in one call, of ``link`` with the
    ``make_link`` keywords ``swept`` set to arrays."""
    links = geometry.link_arrays(**{**link, **swept})
    return links, dof_core.dof_arrays(links)


def sweep_rows(link, key, values):
    """(header, columns, {}) of a DoF sweep; ``m_int`` is 0 where touching."""
    _, res = _dof_sweep(link, **{key: values})
    return ([key, "m_real", "m_int", "status"],
            [values, res.m_real, res.m_int, res.visibility.status], {})


def svd_compare_rows(link, key, values, spacing, threshold):
    """(header, columns, record) of the mode count against the sum-rule
    count of the channel matrix along a sweep, each column closed by its
    ``max`` entry.  The sweep's ``m_int`` picks the steps to count;
    ``grid_shapes`` checks their matrices from the sweep's segments before
    any work starts, then ``svd_oracle._count`` counts them one by one, in
    step order, and links without modes count 0 for both.  The record's
    ``svd_grid`` holds the shape of the largest matrix (0 x 0 without any)."""
    steps, (links, res) = values.tolist(), _dof_sweep(link, **{key: values})
    m_int = res.m_int.tolist()
    counted, vis = [m != 0 for m in m_int], res.visibility
    wavelength = np.broadcast_to(links.wavelength, vis.l_T.shape)
    shapes = svd_oracle.grid_shapes(*(v[counted].tolist() for v in (
        vis.l_T, vis.l_R, wavelength)), spacing)
    eds = [svd_oracle._count(geometry.make_link(**{**link, key: v}), spacing,
                             threshold, m) if m else 0 for v, m in zip(steps, m_int)]
    rows, cols = max([(0, 0)] + shapes, key=math.prod)
    diffs = [abs(m - ed) for m, ed in zip(m_int, eds)]
    columns = [steps + ["max"], m_int + [""], eds + [""], diffs + [max(diffs)]]
    return ([key, "m_int", "effective_dof", "abs_diff"], columns,
            {"svd_grid": {"rows": rows, "cols": cols}})


def kernel_scan_rows(link, zeta_ref, n_samples):
    """(header, columns, record) of the exact and far-field kernel across
    the effective receive aperture, with its significant minima flagged;
    the record's ``kernel`` counts the samples and the sinc-limit ones."""
    scan = kernel.kernel_scan(geometry.make_link(**link), zeta_ref=zeta_ref,
                              n_samples=n_samples)
    is_min = np.zeros(scan.zeta.size, dtype=int)
    is_min[scan.minima] = 1
    v = scan.values
    columns = [scan.zeta, v.real, v.imag, np.abs(v), np.abs(scan.farfield), is_min]
    return (["zeta", "re", "im", "magnitude", "magnitude_farfield", "is_minimum"],
            columns, {"kernel": {"samples": scan.zeta.size,
                                 "sinc_fallback": scan.sinc_fallback}})


def curve_rows(cfg, grid_points, mc_samples, seed):
    """(header, columns, record) of the analytic and Monte Carlo CCDF of
    ``cfg`` on ``grid_points`` thresholds across [0, 2C]; the Monte Carlo
    column is NaN without samples, and the record's ``quadrature`` holds
    the nodes and the error estimate."""
    grid = np.linspace(0.0, 2.0 * cfg.C, grid_points)
    return _curve_table(stats.ccdf(cfg, grid, mc_samples=mc_samples, seed=seed))


def _curve_table(curve):
    """(header, columns, record) of one ``DistributionCurve``."""
    mc = curve.mc_ccdf if curve.mc_ccdf is not None else np.full(curve.grid.size, np.nan)
    return (["mu_th", "pdf", "ccdf_analytic", "ccdf_mc"],
            [curve.grid, curve.pdf, curve.ccdf, mc],
            {"quadrature": {"nodes": curve.quadrature_nodes,
                            "abs_error_estimate": curve.abs_error_estimate}})


def figure_rows(fig_id, seed=0):
    """(header, columns, record) of the data file behind recipe
    ``fig_id``: its ``FIGURES`` loop run on its bindings."""
    loop, bindings = FIGURES[fig_id]
    return loop(bindings, seed)


def _grid(spec):
    lo, hi, n = spec
    return np.linspace(lo, hi, int(n))


def _stack(blocks):
    """(case values, columns) blocks one after another, each block's
    columns behind one constant column per case value."""
    return [np.concatenate(parts) for parts in zip(*(
        [np.full(len(cols[0]), v) for v in case] + cols for case, cols in blocks))]


# The table's loops, each run on (bindings, seed).

def _minima_rows(p, seed):
    _, cols, record = kernel_scan_rows(link_params(p), p["zeta_ref"], p["n_samples"])
    return (["zeta", "magnitude_exact", "magnitude_farfield", "is_minimum"],
            [cols[0], cols[3], cols[4], cols[5]], record)


def _theta_R_rows(p, seed):
    return sweep_rows(link_params(p), "theta_R", _grid(p["theta_R_sweep"]))


def _range_rows(p, seed):
    """theta_R sweeps at each x0 / L_R, stacked behind that ratio, as one
    array-core call on the (ratios x theta_R) links: x0 is a column of
    ratios times L_R against the row of theta_R, and each block of rows is
    bitwise that ratio's own ``sweep_rows``."""
    ratios, theta_R = np.asarray(p["x0_over_LR"], dtype=float), _grid(p["theta_R_sweep"])
    _, res = _dof_sweep(link_params(p), x0=ratios[:, None] * p["L_R_m"],
                        theta_R=theta_R)
    return (["x0_over_LR", "theta_R", "m_real", "m_int", "status"],
            [np.repeat(ratios, theta_R.size), np.tile(theta_R, ratios.size),
             *(v.ravel() for v in (res.m_real, res.m_int, res.visibility.status))], {})


def _svd_rows(p, seed):
    return svd_compare_rows(link_params(p), "theta_R", _grid(p["theta_R_sweep"]),
                            p["spacing"], p["threshold"])


def _spectrum_rows(p, seed):
    cm = svd_oracle.channel_matrix(geometry.make_link(**link_params(p)),
                                   spacing=p["spacing"])
    rep, (rows, cols) = svd_oracle.singular_spectrum(cm), cm.entries.shape
    index = np.arange(1, len(rep.singular_values) + 1)
    return (["index", "singular_value", "normalized_power", "cumulative_fraction"],
            [index, rep.singular_values, rep.normalized_powers,
             rep.cumulative_fraction], {"svd_grid": {"rows": rows, "cols": cols}})


def _curve_family(case_header, cases, p, seed):
    """Curves of several (case values, scenario keywords) pairs stacked
    with the case values in front, and one quadrature record holding the
    largest error estimate.  The cases share L_T, the carrier and so the
    threshold grid, and their Monte Carlo overlays are one ``_chunked``
    family: each chunk's uniforms are drawn once for all the curves."""
    cfgs = [stats.ScenarioConfig(L_T=p["L_T_m"], frequency=p["frequency_hz"], **scenario)
            for _, scenario in cases]
    grid = np.linspace(0.0, 2.0 * cfgs[0].C, p["grid_points"])
    curves = stats._ccdfs(cfgs, grid, p["mc_samples"], seed)
    header, _, record = _curve_table(curves[0])
    blocks = [(case, _curve_table(curve)[1]) for (case, _), curve in zip(cases, curves)]
    record["quadrature"]["abs_error_estimate"] = max(
        curve.abs_error_estimate for curve in curves)
    return case_header + header, _stack(blocks), record


def _radius_curve_rows(p, seed):
    return _curve_family(["R"], [
        ((R,), {"R": R, "L_R": p["L_R_m"], "scenario": p["scenario"]})
        for R in p["radii"]], p, seed)


def _conditional_curve_rows(p, seed):
    return _curve_family(["x0", "L_R"], [
        ((x0, L_R), {"R": p["R"], "L_R": L_R, "x0": x0, "scenario": p["scenario"]})
        for x0, L_R in p["cases"]], p, seed)


def _pov_rows(p, seed):
    x0, L_R = np.meshgrid(_grid(p["x0_grid"]), _grid(p["L_R_grid"]), indexing="ij")
    x0, L_R = x0.ravel(), L_R.ravel()
    return ["x0", "L_R", "pov"], [x0, L_R, stats.pov(x0, L_R)], {}


_F, _LAM = 30e9, 0.01
_FULL_TURN = [-np.pi, np.pi, 721]
# the off-axis link of fig4 and fig5
_OFF_AXIS = {"frequency_hz": _F, "L_T_m": 0.2, "L_R_m": 5.0,
             "theta_T": np.pi / 2, "x0_m": -5.0, "y0_m": 5.0}


def _kernel_link(L_T, theta_T, theta_R, x0, y0):
    """A 1024-sample kernel scan about zeta = 0 on a 5 m receive array."""
    return {"frequency_hz": _F, "L_T_m": L_T, "L_R_m": 5.0, "theta_T": theta_T,
            "theta_R": theta_R, "x0_m": x0, "y0_m": y0, "zeta_ref": 0.0,
            "n_samples": 1024}


def _svd_sweep(x0, y0, theta_T, center):
    """A half-turn theta_R sweep about ``center`` on the lambda/4 grid."""
    return {"frequency_hz": _F, "L_T_m": 0.2, "L_R_m": 5.0, "theta_T": theta_T,
            "x0_m": x0, "y0_m": y0,
            "theta_R_sweep": [center - np.pi / 2, center + np.pi / 2, 181],
            "threshold": DEFAULT_SUM_RULE_FRACTION, "spacing": _LAM / 4.0}


def _radius_curves(scenario):
    """Curves of ``scenario`` for a 2 m receive array in four disk radii."""
    return {"frequency_hz": _F, "L_T_m": 0.2, "L_R_m": 2.0,
            "radii": [5.0, 10.0, 20.0, 200.0], "scenario": scenario,
            "grid_points": 201, "mc_samples": 200_000}


# figure id -> (the shared loop it runs, its bindings)
FIGURES = {
    "fig3a": (_minima_rows, _kernel_link(0.2, 0.0, np.pi, 10.0, 0.0)),
    "fig3b": (_minima_rows, _kernel_link(0.2, np.pi / 3, np.pi, 10.0, 0.0)),
    "fig3c": (_minima_rows, _kernel_link(1.0, np.pi / 3, -np.pi / 3, -5.0, 5.0)),
    "fig3d": (_minima_rows, _kernel_link(0.2, np.pi / 3, -np.pi / 3, -5.0, 5.0)),
    "fig4": (_theta_R_rows, {**_OFF_AXIS, "theta_R_sweep": _FULL_TURN}),
    "fig5": (_spectrum_rows, {**_OFF_AXIS, "theta_R": -np.deg2rad(53.0),
                              "spacing": _LAM / 2.0}),
    "fig7a": (_svd_rows, _svd_sweep(10.0, 0.0, 0.0, np.pi)),
    "fig7b": (_svd_rows, _svd_sweep(0.0, 10.0, np.pi / 2, -np.pi / 2)),
    "fig7c": (_svd_rows, _svd_sweep(5.0, 5.0, np.pi / 4, -3 * np.pi / 4)),
    # the smallest x0 / L_R is the closest admissible distance
    # 1.2 (L_T + L_R) / L_R
    "fig8": (_range_rows, {"frequency_hz": _F, "L_T_m": 0.2, "L_R_m": 2.0,
                           "theta_T": 0.0, "y0_m": 0.0,
                           "x0_over_LR": [1.32, 2.0, 3.0, 5.0, 10.0],
                           "theta_R_sweep": _FULL_TURN}),
    "fig9a": (_radius_curve_rows, _radius_curves(PARTIAL_R_PLUS)),
    "fig9b": (_radius_curve_rows, _radius_curves(FULL_VISIBILITY)),
    "fig10": (_conditional_curve_rows, {
        "frequency_hz": _F, "L_T_m": 0.2, "R": 20.0,
        "scenario": CONDITIONAL_ON_X0,
        "cases": [[x0, L_R] for x0 in (5.0, 10.0) for L_R in (2.0, 5.0)],
        "grid_points": 401, "mc_samples": 200_000}),
    "fig11": (_pov_rows, {"x0_grid": [1.0, 50.0, 50], "L_R_grid": [1.0, 10.0, 19]}),
}
FIGURE_IDS = tuple(FIGURES)
