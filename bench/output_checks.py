"""Checks on the files each CLI command writes.

Every check has a kind:

* ``invariant`` -- something the program guarantees exactly (file shape,
  known statuses, probability ranges, the closed-form branch oracle).
  A failed invariant means a wrong output and makes the run incorrect.
* ``agreement`` -- the paper's tolerance between two independent routes
  (mode count vs SVD count within 1, analytic vs Monte Carlo CCDF within
  0.01).  A failed agreement fails the op and counts in the error rate.

Checks run outside the timed region.
"""

import json
import math

import numpy as np
from nfdof.constants import wavelength_from_frequency
from nfdof.statistics import excess_dof_branches

INVARIANT = "invariant"
AGREEMENT = "agreement"

STATUSES = ("full", "no-visibility", "partial-tx", "partial-rx", "touching")
SVD_MAX_ABS_DIFF = 1          # acceptance criterion 2
MC_SUP_GAP = 0.01             # acceptance criterion 8
# CSV cells carry 9 significant digits
CSV_REL_TOL = 1e-6
# analytic CCDF values come from adaptive quadrature with rel_tol 1e-8
CCDF_TOL = 1e-7
# rows closer than this to a branch edge (rad) are not compared to the
# oracle, because there the branch depends on rounding
BRANCH_EDGE_RAD = 1e-9


class Checker:
    """Collects which checks ran and which failed for one op."""

    def __init__(self):
        self.ran = {}
        self.failures = []

    def expect(self, name, kind, ok, detail=""):
        self.ran[name] = self.ran.get(name, 0) + 1
        if not ok:
            self.failures.append({"check": name, "kind": kind,
                                  "detail": str(detail)[:200]})
        return ok

    @property
    def incorrect(self):
        return any(f["kind"] == INVARIANT for f in self.failures)


def _table(text):
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _floats(rows, col):
    return np.array([float(r[col]) for r in rows])


def _is_count(cell):
    return cell.isdigit()


def _check_dof_rows(c, rows, col, expected_rows):
    """Sweep-style rows: value in column ``col``, then m_real, m_int, status."""
    c.expect("sweep.rows", INVARIANT, len(rows) == expected_rows,
             f"{len(rows)} rows, expected {expected_rows}")
    c.expect("sweep.parsed", INVARIANT,
             all(len(r) == col + 4 for r in rows), "ragged rows")
    bad_status = [r[col + 3] for r in rows if r[col + 3] not in STATUSES]
    c.expect("sweep.status", INVARIANT, not bad_status, bad_status[:3])
    bad_m = [r[col + 2] for r in rows if not _is_count(r[col + 2])]
    c.expect("sweep.m_int", INVARIANT, not bad_m, bad_m[:3])


def _check_branch_oracle(c, op, rows):
    """Facing-receiver theta_T sweep against the closed-form branches,
    after rotating the link back onto the +x axis."""
    cfg = op.config
    sw = cfg["sweep"]
    x0, y0 = cfg["x0_m"], cfg["y0_m"]
    d, phi = math.hypot(x0, y0), math.atan2(y0, x0)
    L_R, C = cfg["L_R_m"], cfg["L_T_m"] / wavelength_from_frequency(cfg["frequency_hz"])
    theta = np.linspace(sw["start"], sw["stop"], sw["steps"])
    axis = (theta - phi + math.pi) % (2.0 * math.pi) - math.pi
    a = math.atan(L_R / (2.0 * d))
    edges = np.array([-a - math.pi / 2, a - math.pi / 2,
                      math.pi / 2 - a, math.pi / 2 + a])
    near_edge = np.min(np.abs(axis[:, None] - edges[None, :]), axis=1) < BRANCH_EDGE_RAD
    mu, b_plus, b_full, b_minus = excess_dof_branches(d, axis, L_R, C)
    expected_status = np.where(b_full, "full", np.where(b_plus | b_minus,
                                                         "partial-rx", "no-visibility"))
    expected_m = np.where(b_plus | b_full | b_minus, mu + 1.0, 0.0)
    m_real = _floats(rows, 1)
    status = np.array([r[3] for r in rows])
    keep = ~near_edge
    status_ok = status[keep] == expected_status[keep]
    m_ok = (np.abs(m_real[keep] - expected_m[keep])
            <= CSV_REL_TOL * np.maximum(1.0, expected_m[keep]))
    bad = np.flatnonzero(~(status_ok & m_ok))
    c.expect("sweep.branch_oracle", INVARIANT, bad.size == 0,
             f"{bad.size} rows disagree, first at theta_T={theta[keep][bad[0]]!r}"
             if bad.size else "")


def _check_svd_rows(c, rows, expected_rows):
    c.expect("svd.rows", INVARIANT, len(rows) == expected_rows + 1,
             f"{len(rows)} rows, expected {expected_rows} + max")
    body, last = rows[:-1], rows[-1]
    counts_ok = all(_is_count(r[1]) and _is_count(r[2]) and _is_count(r[3]) for r in body)
    c.expect("svd.counts", INVARIANT, counts_ok, "non-integer count")
    if not counts_ok:
        return
    diffs = [int(r[3]) for r in body]
    c.expect("svd.abs_diff", INVARIANT,
             all(int(r[3]) == abs(int(r[1]) - int(r[2])) for r in body), "abs_diff mismatch")
    c.expect("svd.max_row", INVARIANT,
             last[0] == "max" and last[3] == str(max(diffs)), last)
    c.expect("svd.mode_count_gap", AGREEMENT, max(diffs) <= SVD_MAX_ABS_DIFF,
             f"max |m_int - effective_dof| = {max(diffs)}")


def _check_kernel_rows(c, header, rows, expected_rows):
    c.expect("kernel.rows", INVARIANT, len(rows) == expected_rows,
             f"{len(rows)} rows, expected {expected_rows}")
    zeta = _floats(rows, 0)
    mag = _floats(rows, header.index("magnitude_exact" if "magnitude_exact" in header
                                     else "magnitude"))
    far = _floats(rows, header.index("magnitude_farfield"))
    flags = {r[-1] for r in rows}
    c.expect("kernel.zeta_ascending", INVARIANT, bool(np.all(np.diff(zeta) > 0)))
    c.expect("kernel.magnitude", INVARIANT,
             bool(np.all(np.isfinite(mag)) and np.all(mag >= 0)
                  and np.all(np.isfinite(far)) and np.all(far >= 0)))
    c.expect("kernel.is_minimum", INVARIANT, flags <= {"0", "1"}, flags)
    if "re" in header:
        re_, im_ = _floats(rows, 1), _floats(rows, 2)
        c.expect("kernel.modulus", INVARIANT,
                 bool(np.all(np.abs(np.hypot(re_, im_) - mag) <= CSV_REL_TOL * mag)))


def _check_spectrum_rows(c, rows):
    idx = [int(r[0]) for r in rows]
    s, npow, cum = _floats(rows, 1), _floats(rows, 2), _floats(rows, 3)
    c.expect("spectrum.shape", INVARIANT, idx == list(range(1, len(rows) + 1)) and len(rows) > 0)
    c.expect("spectrum.descending", INVARIANT, bool(np.all(np.diff(s) <= 0)))
    c.expect("spectrum.powers", INVARIANT,
             abs(npow[0] - 1.0) <= CSV_REL_TOL and bool(np.all(npow <= 1.0 + CSV_REL_TOL)))
    c.expect("spectrum.cumulative", INVARIANT,
             bool(np.all(np.diff(cum) >= 0)) and abs(cum[-1] - 1.0) <= CSV_REL_TOL)


def _check_curve(c, grid, pdf, cc, mc):
    c.expect("ccdf.grid", INVARIANT, bool(np.all(np.diff(grid) > 0)))
    c.expect("ccdf.pdf", INVARIANT, bool(np.all(np.isfinite(pdf)) and np.all(pdf >= 0)))
    c.expect("ccdf.range", INVARIANT,
             bool(np.all(cc >= -CCDF_TOL) and np.all(cc <= 1.0 + CCDF_TOL)
                  and np.all(mc >= 0) and np.all(mc <= 1)))
    c.expect("ccdf.non_increasing", INVARIANT,
             bool(np.all(np.diff(cc) <= CCDF_TOL) and np.all(np.diff(mc) <= 0)),
             f"largest rise {np.max(np.diff(cc)):.3g}")
    gap = float(np.max(np.abs(cc - mc)))
    c.expect("ccdf.mc_gap", AGREEMENT, gap <= MC_SUP_GAP, f"sup gap {gap:.4g}")


def _check_curve_groups(c, rows, key_cols, first, expected_groups, points):
    keys = [tuple(r[k] for k in key_cols) for r in rows]
    groups = list(dict.fromkeys(keys))
    c.expect("ccdf.groups", INVARIANT,
             len(groups) == expected_groups and len(rows) == expected_groups * points,
             f"{len(groups)} curves, {len(rows)} rows")
    for g in groups:
        sel = [r for r, k in zip(rows, keys) if k == g]
        _check_curve(c, *(_floats(sel, first + j) for j in range(4)))


def _check_pov_rows(c, rows):
    x0, L_R, pov = _floats(rows, 0), _floats(rows, 1), _floats(rows, 2)
    expected = 0.5 + np.arctan(L_R / (2.0 * x0)) / math.pi
    c.expect("pov.rows", INVARIANT, len(rows) == 50 * 19)
    c.expect("pov.value", INVARIANT,
             bool(np.all(np.abs(pov - expected) <= CSV_REL_TOL)))


def _check_figure(c, fig_id, header, rows):
    if fig_id in ("fig3a", "fig3b", "fig3c", "fig3d"):
        _check_kernel_rows(c, header, rows, 1024)
    elif fig_id == "fig4":
        _check_dof_rows(c, rows, 0, 721)
    elif fig_id == "fig8":
        _check_dof_rows(c, rows, 1, 5 * 721)
    elif fig_id == "fig5":
        _check_spectrum_rows(c, rows)
    elif fig_id in ("fig7a", "fig7b", "fig7c"):
        _check_svd_rows(c, rows, 181)
    elif fig_id in ("fig9a", "fig9b"):
        _check_curve_groups(c, rows, (0,), 1, 4, 201)
    elif fig_id == "fig10":
        _check_curve_groups(c, rows, (0, 1), 2, 4, 401)
    elif fig_id == "fig11":
        _check_pov_rows(c, rows)
    else:
        c.expect("figure.known", INVARIANT, False, fig_id)


def check_op(op, text, manifest_text):
    """Run every check that applies to ``op``'s output; returns a Checker."""
    c = Checker()
    try:
        manifest = json.loads(manifest_text)
        c.expect("manifest", INVARIANT, manifest.get("tool") == "nfdof")
        header, rows = _table(text)
        if op.kind == "sweep":
            sw = op.config["sweep"]
            c.expect("sweep.header", INVARIANT,
                     header == [sw["parameter"], "m_real", "m_int", "status"], header)
            _check_dof_rows(c, rows, 0, sw["steps"])
            if sw["parameter"] == "theta_T":
                _check_branch_oracle(c, op, rows)
        elif op.kind == "svd-compare":
            _check_svd_rows(c, rows, op.config["sweep"]["steps"])
        elif op.kind == "kernel-scan":
            _check_kernel_rows(c, header, rows, op.config["n_samples"])
        elif op.kind == "stats":
            st = op.config["stats"]
            c.expect("stats.columns", INVARIANT,
                     all(r[4] == str(st["mc_samples"]) and r[5] == str(op.config["seed"])
                         for r in rows))
            c.expect("ccdf.groups", INVARIANT, len(rows) == st["grid_points"], len(rows))
            _check_curve(c, *(_floats(rows, j) for j in range(4)))
        elif op.kind == "figure":
            _check_figure(c, op.argv[op.argv.index("--id") + 1], header, rows)
        else:
            c.expect("kind.known", INVARIANT, False, op.kind)
    except (ValueError, IndexError, KeyError) as e:
        c.expect("parse", INVARIANT, False, repr(e))
    return c
