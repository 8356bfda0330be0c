"""Reference mode span and point-to-point distance of one link.

The boundary angles and mode indices as ``nfdof.dof_core.dof`` computed
them before the count moved to array expressions: ``point_on`` pairs for
the effective transmit center and the receive points, then scalar angles
and indices.  The property tests hold the array core to these numbers
bit for bit.  ``exact_distance`` is the Euclidean distance that the
distance-expansion tests hold ``taylor_coeffs`` to.
"""

import numpy as np

from nfdof.geometry import FULL, PARTIAL_RX, PARTIAL_TX, point_on


def boundary_angles(link, report):
    """Angles from the effective transmit center to the effective receive
    endpoints and center: (a_plus, a_minus, a_zero, rho_c)."""
    assert report.status in (FULL, PARTIAL_TX, PARTIAL_RX), report.status
    tx_x, tx_y = point_on(link.theta_T, report.eta_c)

    def angle(zeta):
        x, y = point_on(link.theta_R, report.zeta_c + zeta, (link.x0, link.y0))
        return float(np.arctan2(y - tx_y, x - tx_x))

    a_plus = angle(+report.l_R / 2.0)
    a_minus = angle(-report.l_R / 2.0)
    a_zero = angle(0.0)
    rho_c = float(np.sin(link.theta_T - a_zero))
    return a_plus, a_minus, a_zero, rho_c


def mode_span(link, report):
    """(a_plus, a_minus, a_zero, rho_c, m_plus, m_minus, m_real, m_int) of
    a visible link."""
    a_plus, a_minus, a_zero, rho_c = boundary_angles(link, report)
    thT, scale = link.theta_T, report.l_T / link.wavelength
    m_plus = float(scale * (np.sin(thT - a_plus) - rho_c))
    m_minus = float(scale * (np.sin(thT - a_minus) - rho_c))
    m_real = abs(m_plus - m_minus) + 1.0
    return a_plus, a_minus, a_zero, rho_c, m_plus, m_minus, m_real, int(round(m_real))


def exact_distance(link, eta, zeta, eta_c=0.0, zeta_c=0.0):
    """Euclidean distance between transmit point ``eta`` and receive
    point ``zeta``, both measured from the effective segment centers
    ``eta_c`` / ``zeta_c``."""
    s_t = eta + eta_c
    s_r = zeta + zeta_c
    half_T = link.L_T / 2.0
    half_R = link.L_R / 2.0
    tol = 1e-9
    if not (-half_T - tol <= s_t <= half_T + tol):
        raise ValueError("transmit coordinate outside the array segment")
    if not (-half_R - tol <= s_r <= half_R + tol):
        raise ValueError("receive coordinate outside the array segment")
    px, py = point_on(link.theta_T, s_t)
    qx, qy = point_on(link.theta_R, s_r, (link.x0, link.y0))
    return float(np.hypot(qx - px, qy - py))
