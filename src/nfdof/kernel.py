"""Aperture correlation kernel of the quadratic-phase (near-field) model.

For a receive point ``zeta`` and a reference point ``zeta_ref`` the
kernel is the integral over the effective transmit aperture of the phase
mismatch between the two focusing profiles,

    K(zeta, zeta_ref) = 1/(4 pi d0)^2 *
        Integral_{-h}^{h} exp(-j phi(eta)) d eta,
    phi(eta) = k (drho * eta + drho_t * eta^2),   h = l_T / 2,

with ``drho``/``drho_t`` the differences of the first/second order
distance-expansion coefficients at the two points.  Minima of |K| as a
function of ``zeta`` locate (semi-)orthogonal focusing functions, which
is the cross-check against the mode-index count.

The integral is evaluated in Faddeeva-scaled form.  Completing the
square turns it into a difference of error functions times
exp(j k drho^2 / (4 drho_t)); writing each error function through the
Faddeeva function w (``erfc(t) = exp(-t^2) w(j t)``, or ``2 - erfc(-t)``
when Re t < 0, so that w is only taken in the upper half-plane) folds
that factor into exp(-j phi(-/+h)), the integrand's own phase at the
aperture ends.  Every term is then bounded, from the near field into the
far field, where the kernel tends to the familiar sinc.  w is taken
only on the ray x exp(3i pi / 4), x >= 0, inside the upper half-plane,
from ``numerics.faddeeva``: Weideman's rational approximation with
N = 40 terms, in numpy alone, within 6e-14 relative of 30-digit mpmath
on that ray, so a kernel scan loads no scipy.  The constant
``2 exp(j k drho^2 / (4 drho_t))`` survives only when the stationary
point -drho / (2 drho_t) lies inside the aperture (drho_t < 0 is
handled by conjugation).  Two regimes are evaluated differently:

* when the quadratic phase across the aperture k |drho_t| h^2 is below
  ``SINC_PHASE`` the sinc is exact to rounding (its first correction is
  a third of that phase), and the closed form would divide by ~0;
* when the total phase k (|drho| h + |drho_t| h^2) is below
  ``QUADRATURE_PHASE`` (next to the reference point) the two end terms
  nearly cancel, while the integrand has barely one oscillation, so a
  fixed Gauss-Legendre rule integrates it to rounding.

Against 40-digit quadrature the result is within a few 1e-15 of the
peak l_T / (4 pi d0)^2 on every regime and at every switch.

``kernel_exact``, ``kernel_farfield`` and ``kernel_scan`` share one pass
that evaluates the coefficients once for the exact kernel, the far-field
(sinc) kernel and the sinc-limit samples, with one set of refusals; the
sinc-limit mask is the one ``_aperture_integral`` evaluated with.
"""

from dataclasses import dataclass
from typing import List

import numpy as np

from .constants import MIN_SCAN_SAMPLES
from .dof_core import taylor_coeffs, _require_visible
from .geometry import LinkGeometry, VisibilityReport, classify_visibility
from .numerics import faddeeva, gauss_legendre

__all__ = [
    "KernelSample", "KernelScan",
    "kernel_exact", "kernel_farfield", "kernel_scan",
    "find_minima",
]

# quadratic phase k |drho_t| h^2 (rad) below which the sinc limit is used
SINC_PHASE = 1e-15

# total phase (rad) below which the Gauss-Legendre rule replaces the
# closed form; 24 nodes integrate exp(-j phi) with phi <= 8 to rounding
QUADRATURE_PHASE = 8.0
_GL_NODES, _GL_WEIGHTS = gauss_legendre(24)

# a local minimum must undercut its neighboring maxima by this factor to
# count (the partial-visibility cases have non-zero minima)
MINIMA_DEPTH_FACTOR = 0.5


@dataclass(frozen=True)
class KernelSample:
    zeta: float
    value: complex
    magnitude: float


@dataclass(frozen=True)
class KernelScan:
    """Exact and far-field kernel sampled across the effective receive
    aperture, with the significant minima of the exact one's magnitude."""

    reference_zeta: float
    zeta: np.ndarray      # sample points, ascending
    values: np.ndarray    # complex exact kernel at each sample
    farfield: np.ndarray  # real far-field (sinc) kernel at each sample
    minima: List[int]     # indices of the significant minima of |values|
    sinc_fallback: int    # exact-kernel samples taken in the sinc limit

    @property
    def samples(self) -> List[KernelSample]:
        return [KernelSample(z, v, abs(v))
                for z, v in zip(self.zeta.tolist(), self.values.tolist())]


def _delta_coeffs(zeta, zeta_ref, link, report):
    """(drho, drho_t) of each ``zeta`` against ``zeta_ref``, both taken
    from one coefficient evaluation so that zeta == zeta_ref gives 0."""
    co = taylor_coeffs(link, np.append(zeta, zeta_ref), report)
    shape = np.shape(zeta)
    return ((co.rho[:-1] - co.rho[-1]).reshape(shape),
            (co.rho_tilde[:-1] - co.rho_tilde[-1]).reshape(shape))


def _aperture_integral(drho, drho_t, wavelength, l_T):
    """(integral over [-h, h] of exp(-j k (drho eta + drho_t eta^2)), the
    mask of the points taken in the sinc limit)."""
    k = 2.0 * np.pi / wavelength
    h = l_T / 2.0
    out = np.empty(drho.shape, dtype=complex)
    sinc = k * np.abs(drho_t) * h ** 2 <= SINC_PHASE
    quad = ~sinc & (k * (np.abs(drho) * h + np.abs(drho_t) * h * h)
                    <= QUADRATURE_PHASE)
    closed = ~(sinc | quad)
    out[sinc] = l_T * np.sinc(l_T / wavelength * drho[sinc])
    eta = h * _GL_NODES
    phase = k * (drho[quad, None] * eta + drho_t[quad, None] * eta * eta)
    out[quad] = h * (np.exp(-1j * phase) @ _GL_WEIGHTS)
    # closed form for drho_t > 0; drho_t < 0 is the conjugate of (-drho, -drho_t)
    neg = drho_t[closed] < 0.0
    p = np.where(neg, -drho[closed], drho[closed])
    s = np.abs(drho_t[closed])
    scale = np.exp(0.25j * np.pi) * np.sqrt(k) / (2.0 * np.sqrt(s))
    # both aperture ends, -h then h, in one faddeeva call
    eta_e = np.array([[-h], [h]])
    slope = p + 2.0 * s * eta_e          # phi'(eta_e) / k
    sign = np.where(slope >= 0.0, 1.0, -1.0)
    ends = (sign * np.exp(-1j * k * (p * eta_e + s * eta_e * eta_e))
            * faddeeva(1j * sign * scale * slope))
    total = ends[0] - ends[1]
    inside = (p - 2.0 * s * h < 0.0) & (p + 2.0 * s * h >= 0.0)
    total[inside] += 2.0 * np.exp(1j * k * p[inside] ** 2 / (4.0 * s[inside]))
    val = (np.sqrt(np.pi) / (2.0 * np.exp(0.25j * np.pi) * np.sqrt(k * s))
           * total)
    out[closed] = np.where(neg, np.conj(val), val)
    return out, sinc


def _kernel(zeta, zeta_ref, link, report):
    """(exact kernel, far-field kernel, sinc-limit mask) at each ``zeta``
    from one ``_delta_coeffs`` evaluation."""
    _require_visible(report)
    half = report.l_R / 2.0 + 1e-12
    # written so that a NaN point fails it too
    if not (np.all(np.abs(zeta) <= half) and abs(zeta_ref) <= half):
        raise ValueError("zeta outside the effective receive aperture")
    drho, drho_t = _delta_coeffs(zeta, zeta_ref, link, report)
    amplitude = 1.0 / (4.0 * np.pi * link.d0) ** 2
    integral, sinc = _aperture_integral(drho, drho_t, link.wavelength, report.l_T)
    exact = amplitude * integral
    if not np.all(np.isfinite(exact)):
        raise OverflowError("kernel_exact: non-finite result")
    far = amplitude * report.l_T * np.sinc(report.l_T / link.wavelength * drho)
    return exact, far, sinc


def kernel_farfield(zeta, zeta_ref, link: LinkGeometry, report: VisibilityReport):
    """First-order (sinc) kernel, real-valued; scalar or array ``zeta``."""
    val = _kernel(zeta, zeta_ref, link, report)[1]
    return float(val) if np.ndim(zeta) == 0 else val


def kernel_exact(zeta, zeta_ref, link: LinkGeometry, report: VisibilityReport):
    """Kernel including the quadratic phase term, for a scalar (complex
    result) or an array of receive points (complex array).

    Valid from the near field into the far field; see the module
    docstring for the evaluation regimes.
    """
    val = _kernel(zeta, zeta_ref, link, report)[0]
    return complex(val) if np.ndim(zeta) == 0 else val


def find_minima(magnitudes):
    """Indices of significant local minima of a sampled magnitude curve.

    A strict local minimum counts only if it is below half of the smaller
    of its two enclosing local maxima (segment endpoints act as maxima).
    """
    mags = np.asarray(magnitudes, dtype=float)
    inner, left, right = mags[1:-1], mags[:-2], mags[2:]
    minima = np.flatnonzero((inner < left) & (inner < right)) + 1
    if minima.size == 0:
        return []
    maxima = np.concatenate(
        ([0], np.flatnonzero((inner > left) & (inner > right)) + 1,
         [mags.size - 1]))
    after = np.searchsorted(maxima, minima)  # first maximum past each minimum
    ref = np.minimum(mags[maxima[after - 1]], mags[maxima[after]])
    return minima[mags[minima] < MINIMA_DEPTH_FACTOR * ref].tolist()


def kernel_scan(link: LinkGeometry, zeta_ref=0.0, n_samples=1024) -> KernelScan:
    """Sample the exact and far-field kernel of ``link`` (classified here)
    uniformly across its effective receive aperture and locate the
    significant minima of the exact one's magnitude."""
    if n_samples < MIN_SCAN_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_SCAN_SAMPLES}")
    report = classify_visibility(link)
    zs = np.linspace(-report.l_R / 2.0, report.l_R / 2.0, int(n_samples))
    values, far, sinc = _kernel(zs, zeta_ref, link, report)
    return KernelScan(reference_zeta=float(zeta_ref), zeta=zs, values=values,
                      farfield=far, minima=find_minima(np.abs(values)),
                      sinc_fallback=int(np.count_nonzero(sinc)))
