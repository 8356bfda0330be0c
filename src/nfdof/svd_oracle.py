"""Independent mode count from the SVD of the discretized channel matrix.

The effective segments of both arrays are sampled on uniform grids, the
free-space Green's function (exact distances, no expansion) fills the
channel matrix, and the number of effective modes is read off the
singular-value sum rule: the smallest number of leading modes holding a
given fraction of the total singular power.
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .dof_core import _require_visible
from .geometry import LinkGeometry, VisibilityReport, classify_visibility, point_on

__all__ = [
    "ChannelMatrix", "SvdReport",
    "green", "channel_matrix", "singular_spectrum", "effective_dof",
    "svd_report",
]

DEFAULT_SUM_RULE_FRACTION = 0.96


@dataclass(frozen=True)
class ChannelMatrix:
    entries: np.ndarray       # (N_r, N_t) complex
    tx_points: np.ndarray     # signed coordinates along the transmit array
    rx_points: np.ndarray     # signed coordinates along the receive array
    spacing: float


@dataclass(frozen=True)
class SvdReport:
    singular_values: np.ndarray
    normalized_powers: np.ndarray     # |s_j|^2 / |s_1|^2
    cumulative_fraction: np.ndarray   # running share of sum |s_j|^2


def green(point_t, point_r, k):
    """Scalar free-space Green's function exp(-j k r) / (4 pi r)."""
    r = float(np.hypot(point_r[0] - point_t[0], point_r[1] - point_t[1]))
    if r == 0.0:
        raise ValueError("green: coincident points")
    return np.exp(-1j * k * r) / (4.0 * np.pi * r)


def _grid(center_offset, length, spacing):
    n = int(np.floor(length / spacing + 1e-9)) + 1
    return center_offset + np.linspace(-length / 2.0, length / 2.0, n)


def channel_matrix(link: LinkGeometry, report: Optional[VisibilityReport] = None,
                   spacing: Optional[float] = None) -> ChannelMatrix:
    """Green's-function matrix over the effective segments.

    Points are placed endpoint-inclusive with count floor(l/spacing) + 1
    on each effective segment.  ``spacing`` defaults to a quarter
    wavelength and may not exceed half a wavelength.
    """
    if report is None:
        report = classify_visibility(link)
    _require_visible(report)
    if spacing is None:
        spacing = link.wavelength / 4.0
    if spacing > link.wavelength / 2.0 + 1e-15:
        raise ValueError("spacing must not exceed half a wavelength")
    if report.l_T <= 0 or report.l_R <= 0:
        raise ValueError("empty effective segment")
    tx_s = _grid(report.eta_c, report.l_T, spacing)
    rx_s = _grid(report.zeta_c, report.l_R, spacing)
    tx_pts = point_on(link.tx, tx_s[:, None])
    rx_pts = point_on(link.rx, rx_s[:, None])
    diff = rx_pts[:, None, :] - tx_pts[None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=2))
    if np.any(r == 0.0):
        raise ValueError("channel_matrix: coincident sample points")
    k = 2.0 * np.pi / link.wavelength
    H = np.exp(-1j * k * r) / (4.0 * np.pi * r)
    return ChannelMatrix(entries=H, tx_points=tx_s, rx_points=rx_s,
                         spacing=float(spacing))


def singular_spectrum(matrix: ChannelMatrix) -> SvdReport:
    """Descending singular spectrum with sum-rule bookkeeping."""
    H = matrix.entries
    if H.size == 0:
        raise ValueError("singular_spectrum: empty matrix")
    s = np.linalg.svd(H, compute_uv=False)
    p = s * s
    total = p.sum()
    return SvdReport(
        singular_values=s,
        normalized_powers=p / p[0],
        cumulative_fraction=np.cumsum(p) / total,
    )


def effective_dof(report: SvdReport, fraction=DEFAULT_SUM_RULE_FRACTION):
    """Smallest k whose leading-k cumulative singular power reaches
    ``fraction`` of the sum rule."""
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must be in (0, 1)")
    return int(np.searchsorted(report.cumulative_fraction, fraction) + 1)


def svd_report(link: LinkGeometry, spacing=None,
               report: Optional[VisibilityReport] = None) -> SvdReport:
    """Convenience wrapper: classify, discretize, decompose."""
    return singular_spectrum(channel_matrix(link, report=report, spacing=spacing))
