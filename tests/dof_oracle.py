"""Reference mode span of one link, computed link by link.

The boundary angles and mode indices as ``nfdof.dof_core.dof`` computed
them before the count moved to array expressions: ``point_on`` arrays for
the effective transmit center and the receive points, then scalar angles
and indices.  The property tests hold the array core to these numbers
bit for bit.
"""

import numpy as np

from nfdof.geometry import FULL, PARTIAL_RX, PARTIAL_TX, point_on


def boundary_angles(link, report):
    """Angles from the effective transmit center to the effective receive
    endpoints and center: (a_plus, a_minus, a_zero, rho_c)."""
    assert report.status in (FULL, PARTIAL_TX, PARTIAL_RX), report.status
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


def mode_span(link, report):
    """(a_plus, a_minus, a_zero, rho_c, m_plus, m_minus, m_real, m_int) of
    a visible link."""
    a_plus, a_minus, a_zero, rho_c = boundary_angles(link, report)
    thT, scale = link.tx.rotation, report.l_T / link.wavelength
    m_plus = float(scale * (np.sin(thT - a_plus) - rho_c))
    m_minus = float(scale * (np.sin(thT - a_minus) - rho_c))
    m_real = abs(m_plus - m_minus) + 1.0
    return a_plus, a_minus, a_zero, rho_c, m_plus, m_minus, m_real, int(round(m_real))
