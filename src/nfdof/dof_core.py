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
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import geometry
from .geometry import LinkGeometry, VisibilityReport, classify_visibility, point_on

__all__ = [
    "TaylorCoefficients", "DofResult",
    "exact_distance", "taylor_coeffs", "boundary_angles",
    "dof", "dof_full_visibility_closed_form", "fraunhofer_distance",
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
    gamma: float      # tan(a)
    a: float          # angle from effective Tx center to the Rx point
    r0: float         # distance at eta = 0


@dataclass(frozen=True)
class DofResult:
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


def exact_distance(link: LinkGeometry, eta, zeta, eta_c=0.0, zeta_c=0.0):
    """Euclidean distance between transmit point ``eta`` and receive
    point ``zeta``, both measured from the effective segment centers
    ``eta_c`` / ``zeta_c``."""
    s_t = eta + eta_c
    s_r = zeta + zeta_c
    half_T = link.tx.length / 2.0
    half_R = link.rx.length / 2.0
    tol = 1e-9
    if not (-half_T - tol <= s_t <= half_T + tol):
        raise ValueError("transmit coordinate outside the array segment")
    if not (-half_R - tol <= s_r <= half_R + tol):
        raise ValueError("receive coordinate outside the array segment")
    p = point_on(link.tx, s_t)
    q = point_on(link.rx, s_r)
    return float(np.hypot(q[0] - p[0], q[1] - p[1]))


def taylor_coeffs(link: LinkGeometry, zeta, report: VisibilityReport) -> TaylorCoefficients:
    """Distance-expansion coefficients at receive offset ``zeta``
    (measured from the effective receive center), scalar or array."""
    _require_visible(report)
    zeta = np.asarray(zeta, dtype=float)
    tx_center = point_on(link.tx, report.eta_c)
    q = point_on(link.rx, (report.zeta_c + zeta)[..., None])
    dx, dy = q[..., 0] - tx_center[0], q[..., 1] - tx_center[1]
    r0 = np.hypot(dx, dy)
    if np.any(r0 == 0.0):
        raise ValueError("degenerate geometry: coincident points")
    a = np.arctan2(dy, dx)
    thT = link.tx.rotation
    rho = np.sin(thT - a)
    rho_tilde = (dx * np.cos(thT) + dy * np.sin(thT)) ** 2 / (2.0 * r0 ** 3)
    co = (rho, rho_tilde, np.tan(a), a, r0)
    if zeta.ndim == 0:
        co = tuple(float(c) for c in co)
    return TaylorCoefficients(*co)


def boundary_angles(link: LinkGeometry, report: VisibilityReport):
    """Angles from the effective transmit center to the effective receive
    endpoints and center: (a_plus, a_minus, a_zero, rho_c)."""
    _require_visible(report)
    tx_center = point_on(link.tx, report.eta_c)

    def angle(zeta):
        q = point_on(link.rx, report.zeta_c + zeta)
        d = q - tx_center
        return float(np.arctan2(d[1], d[0]))

    a_plus = angle(+report.l_R / 2.0)
    a_minus = angle(-report.l_R / 2.0)
    a_zero = angle(0.0)
    rho_c = float(np.sin(link.tx.rotation - a_zero))
    return a_plus, a_minus, a_zero, rho_c


def dof(link: LinkGeometry, report: Optional[VisibilityReport] = None) -> DofResult:
    """Full DoF evaluation: visibility -> boundary angles -> mode count."""
    if report is None:
        report = classify_visibility(link)
    warnings = []
    d_min = AMPLITUDE_DISTANCE_FACTOR * (link.tx.length + link.rx.length)
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
    a_plus, a_minus, a_zero, rho_c = boundary_angles(link, report)
    thT, scale = link.tx.rotation, report.l_T / link.wavelength
    m_plus = float(scale * (np.sin(thT - a_plus) - rho_c))
    m_minus = float(scale * (np.sin(thT - a_minus) - rho_c))
    m_real = abs(m_plus - m_minus) + 1.0
    m_int = int(round(m_real))
    return DofResult(m_real, m_int, m_plus, m_minus, a_plus, a_minus, a_zero,
                     rho_c, report, warnings)


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
    [a - pi/2, pi/2 - a] with a = arctan(L_R / 2 x0).
    """
    if x0 <= 0:
        raise ValueError("x0 must be positive")
    a = np.arctan(L_R / (2.0 * x0))
    if not (a - np.pi / 2.0 - 1e-12 <= theta_T <= np.pi / 2.0 - a + 1e-12):
        raise ValueError("theta_T outside the full-visibility range")
    return float(1.0 + (2.0 * L_T / wavelength) * np.cos(theta_T) * np.sin(a))


def fraunhofer_distance(L_T, L_R, wavelength):
    """Far-field boundary 2 (L_T + L_R)^2 / lambda."""
    if L_T < 0 or L_R < 0 or wavelength <= 0:
        raise ValueError("lengths must be nonnegative and wavelength positive")
    return float(2.0 * (L_T + L_R) ** 2 / wavelength)


def _require_visible(report: VisibilityReport):
    if report.status not in (geometry.FULL, geometry.PARTIAL_TX, geometry.PARTIAL_RX):
        raise ValueError(f"operation requires visibility, got status {report.status!r}")
