"""Deterministic mode counting for a pair of linear arrays.

The number of spatial communication modes (degrees of freedom, DoF)
between the effective (mutually visible) segments is obtained from the
span of the first-order phase slope across the receive aperture: with
``rho(zeta) = sin(theta_T - a(zeta))`` the mode index at a receive point
is ``(l_T / lambda) * (rho(zeta) - rho_c)``; evaluating it at the two
effective endpoints gives ``m_plus`` and ``m_minus`` and

    m = |m_plus - m_minus| + 1.

All angles ``a`` are measured from the effective transmit center to the
receive point, quadrant-correct.

``dof_arrays`` evaluates the count for every link of a ``LinkGeometry``
of arrays at once, its fields of any shapes that broadcast together (a
sweep's fixed parameters 0-d; 0-d links give 0-d fields): the array
classifier for the visibility, then the boundary angles, ``rho_c``,
``m_plus``/``m_minus`` and ``m_real`` as numpy expressions over the
visible links alone, a fixed parameter staying 0-d, and ``m_int``
in one conversion, 0 where a link touches.  It is the one array entry: a
sweep table is one call, its columns the ``DofResult``'s arrays.
``dof`` runs the same mode-span expressions on one link, after the
scalar ``classify_visibility``, and counts a touching link None.  Both
classifiers read one visibility decision (``geometry._decide``, the
array path through its table), so the count has one path and every
link's numbers are bitwise the sweep's.
Every point on an array comes from ``geometry.point_on``, or from the
same expression on the rotations' sines and cosines (``geometry._turns``).
``taylor_coeffs`` takes one link's report and refuses a report of arrays.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import geometry
from .geometry import (LinkGeometry, VisibilityReport, _along, _classify_many,
                       _take, _turns, classify_visibility, point_on)

__all__ = [
    "TaylorCoefficients", "DofResult",
    "taylor_coeffs", "dof", "dof_arrays",
    "dof_full_visibility_closed_form", "fraunhofer_distance",
    "minima_lattice_count",
]

# center distance below this multiple of (L_T + L_R) makes the constant-
# amplitude approximation questionable; results are flagged, not refused
AMPLITUDE_DISTANCE_FACTOR = 1.2


@dataclass(frozen=True)
class TaylorCoefficients:
    """Quadratic expansion of the point-to-point distance in the transmit
    coordinate: r(eta) ~ r0 + rho * eta + rho_tilde * eta**2.  Fields are
    arrays of the receive offsets' shape when those come as an array."""

    rho: float        # first-order slope, equals sin(theta_T - a)
    rho_tilde: float  # half the second derivative, 1/m, >= 0
    a: float          # angle from effective Tx center to the Rx point
    r0: float         # distance at eta = 0


@dataclass(frozen=True)
class DofResult:
    """Mode count, mode indices, boundary angles and visibility: floats
    from ``dof`` (one link), arrays of one shape from ``dof_arrays`` (many
    links).  ``m_int`` is None for a touching link from ``dof`` alone; the
    array path counts it 0 and leaves ``warnings`` empty."""

    m_real: float
    m_int: Optional[int]
    m_plus: float
    m_minus: float
    a_plus: float
    a_minus: float
    a_zero: float
    rho_c: float
    visibility: VisibilityReport
    warnings: List[str] = field(default_factory=list)


def taylor_coeffs(link: LinkGeometry, zeta, report: VisibilityReport) -> TaylorCoefficients:
    """Distance-expansion coefficients at receive offset ``zeta``
    (measured from the effective receive center), scalar or array."""
    _require_visible(report)
    zeta = np.asarray(zeta, dtype=float)
    tx_x, tx_y = point_on(link.theta_T, report.eta_c)
    qx, qy = point_on(link.theta_R, report.zeta_c + zeta, (link.x0, link.y0))
    dx, dy = qx - tx_x, qy - tx_y
    r0 = np.hypot(dx, dy)
    if np.any(r0 == 0.0):
        raise ValueError("degenerate geometry: coincident points")
    a = np.arctan2(dy, dx)
    thT = link.theta_T
    rho = np.sin(thT - a)
    rho_tilde = (dx * np.cos(thT) + dy * np.sin(thT)) ** 2 / (2.0 * r0 ** 3)
    co = (rho, rho_tilde, a, r0)
    if zeta.ndim == 0:
        co = tuple(float(c) for c in co)
    return TaylorCoefficients(*co)


def _mode_span(link, vis, turns):
    """(a_plus, a_minus, a_zero, rho_c, m_plus, m_minus, m_real) of the
    visible links of ``link``, one or many as ``vis`` holds floats or
    arrays: the angles from the effective transmit center to the
    effective receive endpoints and center, then the mode indices.  The
    points come from the rotations' ``geometry._turns``."""
    thT, (sin_T, cos_T, sin_R, cos_R) = link.theta_T, turns
    tx_x, tx_y = _along(sin_T, cos_T, vis.eta_c)  # the effective transmit center

    def angle(zeta):
        x, y = _along(sin_R, cos_R, vis.zeta_c + zeta, (link.x0, link.y0))
        return np.arctan2(y - tx_y, x - tx_x)

    a_plus, a_minus, a_zero = angle(+vis.l_R / 2.0), angle(-vis.l_R / 2.0), angle(0.0)
    rho_c = np.sin(thT - a_zero)
    scale = vis.l_T / link.wavelength
    m_plus = scale * (np.sin(thT - a_plus) - rho_c)
    m_minus = scale * (np.sin(thT - a_minus) - rho_c)
    m_real = np.abs(m_plus - m_minus) + 1.0
    return a_plus, a_minus, a_zero, rho_c, m_plus, m_minus, m_real


def dof(link: LinkGeometry) -> DofResult:
    """Full DoF evaluation: visibility -> boundary angles -> mode count."""
    report = classify_visibility(link)
    warnings = []
    d_min = AMPLITUDE_DISTANCE_FACTOR * (link.L_T + link.L_R)
    if link.d0 < d_min:
        warnings.append(
            f"center distance {link.d0:.6g} m below {d_min:.6g} m; "
            "constant-amplitude approximation may be unreliable"
        )
    nan = float("nan")
    if report.status == geometry.NO_VISIBILITY:
        return DofResult(0.0, 0, nan, nan, nan, nan, nan, nan, report, warnings)
    if report.status == geometry.TOUCHING:
        return DofResult(nan, None, nan, nan, nan, nan, nan, nan, report, warnings)
    span = map(float, _mode_span(link, report, _turns(link, math)))
    a_plus, a_minus, a_zero, rho_c, m_plus, m_minus, m_real = span
    return DofResult(m_real, round(m_real), m_plus, m_minus, a_plus,
                     a_minus, a_zero, rho_c, report, warnings)


_to_int = np.frompyfunc(int, 1, 1)


def dof_arrays(links: LinkGeometry) -> DofResult:
    """``dof`` of every link in ``links`` at once; link ``i``'s values are
    bitwise those of ``dof`` on ``make_link`` of its parameters, but for
    ``m_int``, which is 0 where ``dof`` gives None (a touching link).
    Every field has the links' broadcast shape; ``m_int`` is int64, or
    Python ints in an object array once any count reaches 2**62."""
    turns = _turns(links, np)
    vis, visible, touching = _classify_many(links, turns)
    shown = np.flatnonzero(visible)

    def at(v):
        return _take(v, visible.shape, shown)

    # the span of the visible links alone, the others NaN; arrays, 0-d
    # ones for 0-d links
    span = np.full((7, visible.size), np.nan)
    with np.errstate(all="ignore"):
        for row, v in zip(span, _mode_span(
                LinkGeometry(*map(at, vars(links).values())),
                VisibilityReport(None, None, *map(at, (vis.l_T, vis.l_R, vis.eta_c, vis.zeta_c))),
                tuple(map(at, turns)))):
            row[shown] = v
    a_plus, a_minus, a_zero, rho_c, m_plus, m_minus, m_real = (
        v[...] for v in span.reshape((7,) + visible.shape))
    # dof's round(): int64 while every count is below 2**62, else Python
    # ``int`` over the column, exact past 2**63 and raising round()'s
    # error on a count that is not finite
    rounded = np.where(visible, np.rint(m_real), 0.0)
    m_int = (rounded.astype(np.int64) if (np.abs(rounded) < 2.0 ** 62).all()
             else np.asarray(_to_int(rounded), dtype=object))
    m_real = np.where(visible | touching, m_real, 0.0)
    return DofResult(m_real, m_int, m_plus, m_minus, a_plus, a_minus,
                     a_zero, rho_c, vis)


def minima_lattice_count(m_plus, m_minus):
    """Number of nonzero integer mode indices strictly between m_minus and
    m_plus -- the predicted count of kernel-magnitude minima across the
    effective receive aperture."""
    lo, hi = min(m_plus, m_minus), max(m_plus, m_minus)
    first = math.floor(lo) + 1
    last = math.ceil(hi) - 1
    count = max(0, last - first + 1)
    if first <= 0 <= last:
        count -= 1
    return count


def dof_full_visibility_closed_form(x0, theta_T, L_T, L_R, wavelength):
    """Closed-form DoF for the axis-aligned fully visible family
    (receive array on the +x axis at distance x0, facing the origin):

        m = 1 + (2 L_T / lambda) cos(theta_T) sin(arctan(L_R / 2 x0))

    valid while theta_T stays within the full-visibility range
    [a - pi/2, pi/2 - a] with a = arctan(L_R / 2 x0).  A distance, length
    or wavelength that is not positive and finite, or a theta_T that is
    not finite, is refused by name.
    """
    _refuse_unless(_positive, "positive and finite", x0=x0)
    _refuse_unless(math.isfinite, "finite", theta_T=theta_T)
    _refuse_unless(_positive, "positive and finite", L_T=L_T, L_R=L_R, wavelength=wavelength)
    a = np.arctan(L_R / (2.0 * x0))
    if not (a - np.pi / 2.0 - 1e-12 <= theta_T <= np.pi / 2.0 - a + 1e-12):
        raise ValueError("theta_T outside the full-visibility range")
    return float(1.0 + (2.0 * L_T / wavelength) * np.cos(theta_T) * np.sin(a))


def fraunhofer_distance(L_T, L_R, wavelength):
    """Far-field boundary 2 (L_T + L_R)^2 / lambda; a length that is not
    nonnegative and finite, or a wavelength that is not positive and
    finite, is refused by name."""
    _refuse_unless(lambda v: math.isfinite(v) and v >= 0, "nonnegative and finite",
                   L_T=L_T, L_R=L_R)
    _refuse_unless(_positive, "positive and finite", wavelength=wavelength)
    return float(2.0 * (L_T + L_R) ** 2 / wavelength)


def _positive(v):
    return math.isfinite(v) and v > 0


def _refuse_unless(holds, what, **values):
    """Raise ValueError naming the first of ``values`` for which ``holds``
    is false."""
    for name, v in values.items():
        if not holds(v):
            raise ValueError(f"{name} must be {what}, got {v!r}")


def _require_visible(report: VisibilityReport):
    if np.ndim(report.status):
        raise ValueError("operation takes one link's visibility report, got arrays")
    if report.status not in geometry.VISIBLE:
        raise ValueError(f"operation requires visibility, got status {report.status!r}")
