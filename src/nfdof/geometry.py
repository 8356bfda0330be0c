"""Planar geometry of two rotated linear arrays and their mutual visibility.

Conventions
-----------
* An array of length ``L`` rotated by ``theta`` (positive counter-
  clockwise, measured from the +y axis) and centered at ``c`` occupies
  the points ``c + s * (-sin(theta), cos(theta))`` for
  ``s in [-L/2, L/2]``.  The ``+`` endpoint is at ``s = +L/2``.
* Each array radiates/receives only into the half-plane on the side of
  its unit normal ``n = (cos(theta), sin(theta))``.
* The transmit array is centered at the origin; the receive array center
  is at ``c = (x0, y0)``.

Visibility between the two segments is classified as full, partial (one
endpoint of one array visible), touching (the segments intersect), or
none.  The classification reads only four signed endpoint distances.
With ``a = n_T . c``, ``b = -n_R . c`` and ``s = sin(theta_T - theta_R)``,

    d(R+/-) = a +/- (L_R / 2) s    receive endpoint ahead of the transmit line
    d(T+/-) = b -/+ (L_T / 2) s    transmit endpoint ahead of the receive line

* touching: each line meets the other segment, d(T+) d(T-) <= 0 and
  d(R+) d(R-) <= 0;
* partial-tx: the receive line crosses the transmit segment,
  d(T+) d(T-) < 0, and a > 0; the endpoint with d(T+/-) > 0 is visible
  (partial-rx is the mirror case, with b > 0);
* full: a > 0 and b > 0; anything else is no visibility.

Parallel lines give d(T+) = d(T-) and d(R+) = d(R-), so they need no
branch of their own.  Every sign comes from one predicate: a distance
within ``8 * 2**-52 * (|x0| + |y0| + (L_T + L_R) / 2)`` of zero, the
rounding level of its terms, counts as zero, so a decision never rests
on rounding noise.  When all four distances are zero the segments are
collinear, and they touch if they overlap (``d0 <= (L_T + L_R) / 2``)
and see nothing otherwise.

For partial cases the visible sub-segment is reported through its
effective length and its signed center offset along the array, measured
in the same ``s`` coordinate as above.  ``zeta_i``/``eta_i`` are the
coordinates of the line intersection point on the receive/transmit
array, so the visible receive interval is ``[-L_R/2, zeta_i]`` when the
``R-`` endpoint is visible and ``[zeta_i, L_R/2]`` when ``R+`` is
visible.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .constants import wavelength_from_frequency

__all__ = [
    "FULL", "NO_VISIBILITY", "PARTIAL_TX", "PARTIAL_RX", "TOUCHING",
    "ArrayGeometry", "LinkGeometry", "VisibilityReport",
    "wrap_angle", "endpoints", "direction", "normal", "classify_visibility",
    "make_link",
]

FULL = "full"
NO_VISIBILITY = "no-visibility"
PARTIAL_TX = "partial-tx"
PARTIAL_RX = "partial-rx"
TOUCHING = "touching"

# half-width of the zero band of a signed distance, per metre of
# |x0| + |y0| + (L_T + L_R) / 2: eight units of rounding
_ZERO_BAND = 8 * 2.0 ** -52


def wrap_angle(theta):
    """Wrap an angle into (-pi, pi]."""
    w = (theta + np.pi) % (2.0 * np.pi) - np.pi
    if w == -np.pi:
        w = np.pi
    return float(w)


@dataclass(frozen=True)
class ArrayGeometry:
    """A linear array: length (m), rotation (rad), center (m, m)."""

    length: float
    rotation: float
    center: Tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not (np.isfinite(self.length) and self.length > 0):
            raise ValueError("array length must be positive and finite")
        object.__setattr__(self, "rotation", wrap_angle(self.rotation))
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))


def direction(a: ArrayGeometry):
    """Unit vector along the array, pointing toward the + endpoint."""
    return np.array([-np.sin(a.rotation), np.cos(a.rotation)])


def normal(a: ArrayGeometry):
    """Unit normal into the radiating/receiving half-plane."""
    return np.array([np.cos(a.rotation), np.sin(a.rotation)])


def endpoints(a: ArrayGeometry):
    """(plus, minus) endpoints of the array as 2D points."""
    c = np.asarray(a.center, dtype=float)
    off = 0.5 * a.length * direction(a)
    return c + off, c - off


def point_on(a: ArrayGeometry, s):
    """Point at signed coordinate ``s`` along the array."""
    return np.asarray(a.center, dtype=float) + s * direction(a)


@dataclass(frozen=True)
class LinkGeometry:
    """A transmit/receive array pair plus the operating wavelength."""

    tx: ArrayGeometry
    rx: ArrayGeometry
    wavelength: float

    def __post_init__(self):
        if self.tx.center != (0.0, 0.0):
            raise ValueError("transmit array must be centered at the origin")
        if not (np.isfinite(self.wavelength) and self.wavelength > 0):
            raise ValueError("wavelength must be positive and finite")

    @property
    def d0(self):
        """Center-to-center distance (recomputed, never cached)."""
        return float(np.hypot(self.rx.center[0], self.rx.center[1]))


def make_link(L_T, L_R, theta_T, theta_R, x0, y0, wavelength=None, frequency=None):
    """Convenience constructor from the seven scalar link parameters."""
    if wavelength is None:
        if frequency is None:
            raise ValueError("give either wavelength or frequency")
        wavelength = wavelength_from_frequency(frequency)
    return LinkGeometry(
        tx=ArrayGeometry(L_T, theta_T),
        rx=ArrayGeometry(L_R, theta_R, (x0, y0)),
        wavelength=float(wavelength),
    )


@dataclass(frozen=True)
class VisibilityReport:
    """Visibility classification plus the effective array segments."""

    status: str
    visible_endpoint: Optional[str] = None  # 'T+', 'T-', 'R+', 'R-' or None
    l_T: float = 0.0
    l_R: float = 0.0
    eta_c: float = 0.0
    zeta_c: float = 0.0
    eta_i: Optional[float] = None
    zeta_i: Optional[float] = None


def _partial_segment(L, s_i, plus_visible):
    """Effective length and signed center of a partially visible array.

    The visible interval is [s_i, L/2] when the + endpoint is visible and
    [-L/2, s_i] when the - endpoint is visible.
    """
    if plus_visible:
        return L / 2.0 - s_i, (s_i + L / 2.0) / 2.0
    return s_i + L / 2.0, (s_i - L / 2.0) / 2.0


def classify_visibility(link: LinkGeometry) -> VisibilityReport:
    """Classify mutual visibility and compute the effective segments from
    the signs of the four endpoint distances (see the module docstring)."""
    thT, thR = link.tx.rotation, link.rx.rotation
    LT, LR = link.tx.length, link.rx.length
    x0, y0 = link.rx.center
    sd = math.sin(thT - thR)
    a = x0 * math.cos(thT) + y0 * math.sin(thT)
    b = -(x0 * math.cos(thR) + y0 * math.sin(thR))
    tol = _ZERO_BAND * (abs(x0) + abs(y0) + 0.5 * (LT + LR))

    def sign(d):
        return (d > tol) - (d < -tol)

    r_plus, r_minus = sign(a + 0.5 * LR * sd), sign(a - 0.5 * LR * sd)
    t_plus, t_minus = sign(b - 0.5 * LT * sd), sign(b + 0.5 * LT * sd)
    if r_plus == r_minus == t_plus == t_minus == 0:
        overlap = math.hypot(x0, y0) <= 0.5 * (LT + LR)
        return VisibilityReport(TOUCHING if overlap else NO_VISIBILITY)
    crosses_tx, crosses_rx = t_plus * t_minus, r_plus * r_minus
    if crosses_tx <= 0 and crosses_rx <= 0:
        return VisibilityReport(TOUCHING)
    if crosses_tx < 0 or crosses_rx < 0:
        # one line crosses the other segment (sd != 0 here); the crossing
        # coordinates go through the line parameter 0.5 + q (0 at the -
        # endpoint, 1 at the + one), the rounding the CLI outputs carry
        eta_i = ((0.5 + b / (LT * sd)) - 0.5) * LT
        zeta_i = ((0.5 - a / (LR * sd)) - 0.5) * LR
        if crosses_tx < 0 and sign(a) > 0:
            l_T, eta_c = _partial_segment(LT, eta_i, t_plus > 0)
            return VisibilityReport(PARTIAL_TX, "T+" if t_plus > 0 else "T-",
                                    l_T=l_T, l_R=LR, eta_c=eta_c,
                                    eta_i=eta_i, zeta_i=zeta_i)
        if crosses_rx < 0 and sign(b) > 0:
            l_R, zeta_c = _partial_segment(LR, zeta_i, r_plus > 0)
            return VisibilityReport(PARTIAL_RX, "R+" if r_plus > 0 else "R-",
                                    l_T=LT, l_R=l_R, zeta_c=zeta_c,
                                    eta_i=eta_i, zeta_i=zeta_i)
        return VisibilityReport(NO_VISIBILITY)
    if sign(a) > 0 and sign(b) > 0:
        return VisibilityReport(FULL, l_T=LT, l_R=LR)
    return VisibilityReport(NO_VISIBILITY)
