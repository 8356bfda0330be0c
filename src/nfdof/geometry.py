"""Planar geometry of two rotated linear arrays and their mutual visibility.

Conventions
-----------
* An array of length ``L`` rotated by ``theta`` (positive counter-
  clockwise, measured from the +y axis) and centered at ``c`` occupies
  the points ``c + s * (-sin(theta), cos(theta))`` for ``s in [-L/2,
  L/2]``, the ``(x, y)`` pairs of ``point_on``, which broadcasts over
  links and coordinates.  The ``+`` endpoint is at ``s = +L/2``.
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
on rounding noise; nor does a cut end (below), which takes a or b as 0
where its sign is zero.  When all four distances are zero the segments
are collinear: they touch if they overlap, ``LinkGeometry.d0 <= (L_T +
L_R) / 2`` on both paths, and see nothing otherwise.

For partial cases the visible sub-segment is reported through its
effective length and its signed center offset along the array, measured
in the same ``s`` coordinate as above.  Its cut end, away from the
visible endpoint, is where the other array's line crosses the array:
the visible receive interval is ``[-L_R/2, zeta_c + l_R/2]`` when the
``R-`` endpoint is visible and ``[zeta_c - l_R/2, L_R/2]`` when ``R+`` is
visible, and likewise on the transmit array.

Arrays of links
---------------
``link_arrays`` is ``make_link`` over parameter arrays of any shape, 0-d
too (a sweep is one call).  Each field keeps its own parameter's shape
and the fields broadcast together: a sweep's fixed parameters stay 0-d,
so they are checked, wrapped and turned into a sine and cosine once.
Both classifiers take s, the zero band and the six signed distances
d(R+), d(R-), d(T+), d(T-), a and b from ``_distances`` (``math`` for
one link, numpy for many), given each rotation's (sin, cos) from
``_turns``, and read one decision, ``_decide`` of the six signs and of
the overlap: ``classify_visibility`` calls it, and ``classify_arrays``
looks it up in a table of its 3**6 * 2 values built at import, which
also holds the visible and touching masks; only that lookup is
broadcast to the links' shape.  The cut expressions are the same on
both paths, so each link's report is bitwise the scalar one.  One link
takes ``make_link`` then ``classify_visibility``: a one-element
``classify_arrays`` call costs some 40 times as much.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import SPEED_OF_LIGHT, wavelength_from_frequency

__all__ = [
    "FULL", "NO_VISIBILITY", "PARTIAL_TX", "PARTIAL_RX", "TOUCHING", "VISIBLE",
    "LinkGeometry", "VisibilityReport",
    "wrap_angle", "point_on",
    "classify_visibility", "make_link", "link_arrays", "classify_arrays",
]

FULL = "full"
NO_VISIBILITY = "no-visibility"
PARTIAL_TX = "partial-tx"
PARTIAL_RX = "partial-rx"
TOUCHING = "touching"
VISIBLE = (FULL, PARTIAL_TX, PARTIAL_RX)  # the statuses of links with modes

# half-width of the zero band of a signed distance, per metre of
# |x0| + |y0| + (L_T + L_R) / 2: eight units of rounding
_ZERO_BAND = 8 * 2.0 ** -52


def wrap_angle(theta):
    """Wrap an angle, or an array of angles, into (-pi, pi]."""
    w = (theta + np.pi) % (2.0 * np.pi) - np.pi
    if isinstance(theta, np.ndarray):
        return np.where(w == -np.pi, np.pi, w)
    if w == -np.pi:
        w = np.pi
    return float(w)


def point_on(rotation, s, center=(0.0, 0.0)):
    """(x, y) of the point at signed coordinate ``s`` along the array of
    ``rotation`` centred at ``center``, for every caller: ``center + s *
    (-sin, cos)`` of the rotation, the unit vector toward the + endpoint.
    All arguments broadcast (many links, many points)."""
    return _along(np.sin(rotation), np.cos(rotation), s, center)


def _along(sin, cos, s, center=(0.0, 0.0)):
    """``point_on`` from the rotation's ``sin`` and ``cos``."""
    return center[0] + s * -sin, center[1] + s * cos


@dataclass(frozen=True)
class LinkGeometry:
    """The seven numbers of a link: array lengths (m), rotations (rad,
    wrapped into (-pi, pi]), receive centre (m, m) and wavelength (m).
    ``make_link`` fills the fields with floats (one link), ``link_arrays``
    with float arrays, each of its parameter's shape, that broadcast
    together (many links)."""

    L_T: float
    L_R: float
    theta_T: float
    theta_R: float
    x0: float
    y0: float
    wavelength: float

    @property
    def d0(self):
        """Center-to-center distance (recomputed, never cached)."""
        return np.hypot(self.x0, self.y0)


def _check_array(length, rotation, x, y):
    if not (math.isfinite(length) and length > 0):
        raise ValueError("array length must be positive and finite")
    if not (math.isfinite(rotation) and math.isfinite(x) and math.isfinite(y)):
        raise ValueError("array rotation and center must be finite")


def make_link(L_T, L_R, theta_T, theta_R, x0, y0, frequency) -> LinkGeometry:
    """One link from its seven scalar parameters, checked in this order:
    frequency, ``L_T`` and ``theta_T``, ``L_R`` then ``theta_R`` and the
    receive centre, then the wavelength."""
    wavelength = wavelength_from_frequency(frequency)
    _check_array(L_T, theta_T, 0.0, 0.0)
    _check_array(L_R, theta_R, x0, y0)
    if not (math.isfinite(wavelength) and wavelength > 0):
        raise ValueError("wavelength must be positive and finite")
    return LinkGeometry(float(L_T), float(L_R), wrap_angle(theta_T), wrap_angle(theta_R),
                        float(x0), float(y0), float(wavelength))


@dataclass(frozen=True)
class VisibilityReport:
    """Visibility classification plus the effective array segments, of
    one link or as arrays for many (endpoints in an object array)."""

    status: str
    visible_endpoint: Optional[str] = None  # 'T+', 'T-', 'R+', 'R-' or None
    l_T: float = 0.0
    l_R: float = 0.0
    eta_c: float = 0.0
    zeta_c: float = 0.0


def _decide(r_plus, r_minus, t_plus, t_minus, sign_a, sign_b, overlap):
    """Status and visible endpoint from the signs (-1, 0 or 1) of d(R+),
    d(R-), d(T+), d(T-), a and b, for both classifiers.  ``overlap`` (``d0
    <= (L_T + L_R) / 2``) is read only for a collinear link, all four
    distances zero: it touches if it overlaps and sees nothing otherwise."""
    if not (r_plus or r_minus or t_plus or t_minus):
        return (TOUCHING if overlap else NO_VISIBILITY), None
    crosses_tx, crosses_rx = t_plus * t_minus, r_plus * r_minus
    if crosses_tx <= 0 and crosses_rx <= 0:
        return TOUCHING, None
    if crosses_tx < 0 and sign_a > 0:
        return PARTIAL_TX, "T+" if t_plus > 0 else "T-"
    if crosses_rx < 0 and sign_b > 0:
        return PARTIAL_RX, "R+" if r_plus > 0 else "R-"
    if crosses_tx < 0 or crosses_rx < 0 or sign_a <= 0 or sign_b <= 0:
        return NO_VISIBILITY, None
    return FULL, None


# _decide's status, endpoint and partial-tx, partial-rx, visible and
# touching masks at the index that reads its six signs + 1 as base-3
# digits, then the overlap bit
_DECISIONS = [_decide(*x) for x in itertools.product(*[(-1, 0, 1)] * 6, (0, 1))]
_STATUSES = np.array([status for status, _ in _DECISIONS])
_ENDPOINTS = np.array([endpoint for _, endpoint in _DECISIONS], dtype=object)
_MASKS = np.array([[status in kind for status, _ in _DECISIONS]
                   for kind in ((PARTIAL_TX,), (PARTIAL_RX,), VISIBLE, (TOUCHING,))])


def _partial_segment(L, d, sd, plus):
    """Effective length and signed center of a partially visible array of
    length ``L``, ``plus`` the sign of its visible endpoint, cut where the
    other line crosses it, at ``d / sd`` from its centre."""
    cut = d / sd
    return L / 2.0 - plus * cut, (cut + plus * L / 2.0) / 2.0


def _turns(link, trig):
    """The (sin, cos) of theta_T and of theta_R of ``link``, taken once and
    shared by ``_distances`` and the mode span's points: ``trig`` is
    ``math`` for one link, ``numpy`` for many."""
    thT, thR = link.theta_T, link.theta_R
    return trig.sin(thT), trig.cos(thT), trig.sin(thR), trig.cos(thR)


def _distances(link, trig, turns):
    """(sin(theta_T - theta_R), a, b, the zero band, and the six signed
    distances d(R+), d(R-), d(T+), d(T-), a and b) of ``link``, for both
    classifiers, given its ``_turns``."""
    sin_T, cos_T, sin_R, cos_R = turns
    LT, LR, x0, y0 = link.L_T, link.L_R, link.x0, link.y0
    sd = trig.sin(link.theta_T - link.theta_R)
    a = x0 * cos_T + y0 * sin_T
    b = -(x0 * cos_R + y0 * sin_R)
    tol = _ZERO_BAND * (abs(x0) + abs(y0) + 0.5 * (LT + LR))
    half_R, half_T = 0.5 * LR * sd, 0.5 * LT * sd
    return sd, a, b, tol, (a + half_R, a - half_R, b - half_T, b + half_T, a, b)


def classify_visibility(link: LinkGeometry, turns=None) -> VisibilityReport:
    """Classify mutual visibility and compute the effective segments from
    the signs of the four endpoint distances (see the module docstring);
    ``turns``, the link's ``_turns``, if the caller has taken them."""
    LT, LR = link.L_T, link.L_R
    sd, a, b, tol, (rp, rm, tp, tm, _, _) = _distances(link, math,
                                                       turns or _turns(link, math))
    # the sign predicate written out: a loop or a call per sign is 15-25% slower
    lo = -tol
    r_plus, r_minus = (rp > tol) - (rp < lo), (rm > tol) - (rm < lo)
    t_plus, t_minus = (tp > tol) - (tp < lo), (tm > tol) - (tm < lo)
    sign_a, sign_b = (a > tol) - (a < lo), (b > tol) - (b < lo)
    # d0 only for a collinear link, the one case where _decide reads it
    overlap = not (r_plus or r_minus or t_plus or t_minus) and link.d0 <= 0.5 * (LT + LR)
    status, endpoint = _decide(r_plus, r_minus, t_plus, t_minus, sign_a, sign_b, overlap)
    l_T, l_R = (LT, LR) if status in VISIBLE else (0.0, 0.0)
    eta_c = zeta_c = 0.0
    if status == PARTIAL_TX:
        l_T, eta_c = _partial_segment(LT, b if sign_b else 0.0, sd, t_plus)
    if status == PARTIAL_RX:
        l_R, zeta_c = _partial_segment(LR, -a if sign_a else 0.0, sd, r_plus)
    return VisibilityReport(status, endpoint, l_T, l_R, eta_c, zeta_c)


def link_arrays(L_T, L_R, theta_T, theta_R, x0, y0, frequency) -> LinkGeometry:
    """``make_link`` over arrays: the same ``LinkGeometry`` with each field
    a float array of its own parameter's shape (0-d for a scalar), so the
    fields broadcast together and a sweep checks and wraps its constants
    once.  Every link is checked as ``make_link`` checks it: the first
    link that fails, in broadcast order, is handed to ``make_link``, which
    raises its error, so an array fails exactly as a loop over its links
    would."""
    p = {"L_T": L_T, "L_R": L_R, "theta_T": theta_T, "theta_R": theta_R,
         "x0": x0, "y0": y0, "frequency": frequency}
    p = {k: np.asarray(v, dtype=float) for k, v in p.items()}
    with np.errstate(all="ignore"):
        lam = np.asarray(SPEED_OF_LIGHT / p["frequency"])
        bad = [(p["frequency"] <= 0) | ~(np.isfinite(lam) & (lam > 0))]
        bad += [~(np.isfinite(p[k]) & (p[k] > 0)) for k in ("L_T", "L_R")]
        bad += [~np.isfinite(p[k]) for k in ("theta_T", "theta_R", "x0", "y0")]
        thT, thR = wrap_angle(p["theta_T"]), wrap_angle(p["theta_R"])
    if any(b.any() for b in bad):
        i = np.flatnonzero(np.logical_or.reduce(np.broadcast_arrays(*bad)))[0]
        make_link(**{k: float(v.flat[i])
                     for k, v in zip(p, np.broadcast_arrays(*p.values()))})
    return LinkGeometry(p["L_T"], p["L_R"], thT, thR, p["x0"], p["y0"], lam)


def classify_arrays(links: LinkGeometry) -> VisibilityReport:
    """``classify_visibility`` of every link in ``links``: the same signs
    and segment expressions, the decision read from ``_decide``'s table;
    every field has the links' broadcast shape."""
    return _classify_many(links, _turns(links, np))[0]


def _take(v, shape, index):
    """``v``, of a shape that broadcasts to the links' ``shape``, at the
    links' flat ``index``; a 0-d ``v`` as it is."""
    if np.ndim(v) == 0:
        return v
    if np.shape(v) != shape:
        v = np.broadcast_to(v, shape)
    return v.reshape(-1)[index]


def _classify_many(links, turns):
    """(``classify_arrays`` of ``links`` given its ``_turns``, then its
    visible and touching masks).  The signs take the shapes of the
    geometry's fields; the decision index alone is broadcast to the links'
    shape, which the wavelength may widen, and the cuts are taken on the
    partial links alone."""
    LT, LR = links.L_T, links.L_R
    with np.errstate(all="ignore"):
        sd, a, b, tol, distances = _distances(links, np, turns)
        lo = -tol
        signs = [(d > tol).astype(np.int8) - (d < lo) for d in distances]
        r_plus, r_minus, t_plus, t_minus, sign_a, sign_b = signs
        index = np.zeros(np.shape(a), dtype=np.int16)  # below 3**6 * 2
        for digit in signs:
            index = 3 * index + (digit + 1)
        index = 2 * index
        # d0 only if some link is collinear, the one case where _decide reads it
        if not np.all(r_plus | r_minus | t_plus | t_minus):
            index = index + (links.d0 <= 0.5 * (LT + LR))
    # a flat index: the lookup is a copy, and an array, for 0-d links too
    shape = np.broadcast_shapes(*map(np.shape, vars(links).values()))
    flat = np.broadcast_to(index, shape).reshape(-1)
    partial_tx, partial_rx, visible, touching = _MASKS.take(flat, axis=1).reshape(
        (4,) + shape)
    l_T, l_R = np.where(visible, LT, 0.0), np.where(visible, LR, 0.0)
    eta_c, zeta_c = np.zeros(shape), np.zeros(shape)
    # the cuts on the partial links alone, from b (transmit) and -a (receive)
    # as the scalar path takes them
    with np.errstate(all="ignore"):
        for mask, L, sign, d, flip, plus, length, center in (
                (partial_tx, LT, sign_b, b, 1.0, t_plus, l_T, eta_c),
                (partial_rx, LR, sign_a, a, -1.0, r_plus, l_R, zeta_c)):
            at = np.flatnonzero(mask)
            if at.size:
                L, sign, d, sd_at, plus = (_take(v, shape, at)
                                           for v in (L, sign, d, sd, plus))
                length.flat[at], center.flat[at] = _partial_segment(
                    L, np.where(sign, flip * d, 0.0), sd_at, plus)
    return VisibilityReport(
        status=_STATUSES[flat].reshape(shape),
        visible_endpoint=_ENDPOINTS[flat].reshape(shape),
        l_T=l_T, l_R=l_R, eta_c=eta_c, zeta_c=zeta_c), visible, touching
