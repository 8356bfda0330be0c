"""Reference deconditioning of the mode-count distributions.

Per-point adaptive quadrature of the conditional laws over the disk
placement, written in the textbook arcsine/arccos form (independent of
the cancellation-free forms in ``nfdof.statistics``).  Every integral is split
at the support edges omega(mu) and psi(mu), clipped to R, so that no
piece has a kink or a compact support inside it.  ``mp_ccdf``/``mp_pdf``
repeat the same integrals with mpmath at 30 digits, with extra split
points toward a nearly coincident singularity.
"""

import mpmath
import numpy as np

from nfdof.numerics import integrate
from nfdof.statistics import CONDITIONAL_ON_X0, FULL_VISIBILITY

_REL_TOL = 1e-11


def _a(x, L_R):
    return np.arctan(L_R / (2.0 * x))


def _p(x, R):
    return 4.0 * np.sqrt(max(R * R - x * x, 0.0)) / (np.pi * R * R)


def _edges(mu, cfg):
    """omega, psi in the arcsin/tan form."""
    C = cfg.C
    omega = cfg.L_R / (2.0 * np.tan((np.arcsin(mu / C - 1.0) + np.pi / 2.0) / 2.0))
    psi = cfg.L_R / (2.0 * np.tan(np.arcsin(mu / (2.0 * C))))
    return omega, psi


def full_ccdf_given_x0(mu, x, cfg):
    a = _a(x, cfg.L_R)
    lo, hi = 2.0 * cfg.C * np.sin(a) ** 2, 2.0 * cfg.C * np.sin(a)
    if mu <= lo:
        return 1.0
    if mu >= hi:
        return 0.0
    return 2.0 * np.arccos(mu / hi) / (np.pi - 2.0 * a)


def full_pdf_given_x0(mu, x, cfg):
    a = _a(x, cfg.L_R)
    Ca = cfg.C * np.sin(a)
    if not (2.0 * Ca * np.sin(a) < mu < 2.0 * Ca):
        return 0.0
    return 1.0 / ((np.pi - 2.0 * a) * Ca * np.sqrt(1.0 - (mu / (2.0 * Ca)) ** 2))


def partial_ccdf_given_x0(mu, x, cfg):
    a = _a(x, cfg.L_R)
    if mu <= 0.0:
        return 1.0
    if mu >= 2.0 * cfg.C * np.sin(a) ** 2:
        return 0.0
    val = ((2.0 * a - np.pi / 2.0) - np.arcsin(mu / cfg.C - 1.0)) / (2.0 * a)
    return min(max(val, 0.0), 1.0)


def partial_pdf_given_x0(mu, x, cfg):
    a = _a(x, cfg.L_R)
    C = cfg.C
    if not (0.0 < mu < 2.0 * C * np.sin(a) ** 2):
        return 0.0
    return 1.0 / (2.0 * a * C * np.sqrt(1.0 - (mu / C - 1.0) ** 2))


def _mixture(mu, x0, cfg, partial, full):
    a = _a(x0, cfg.L_R)
    v_partial, v_full = a / np.pi, (np.pi - 2.0 * a) / (2.0 * np.pi)
    return ((2.0 * v_partial * partial(mu, x0, cfg) + v_full * full(mu, x0, cfg))
            / (v_partial * 2.0 + v_full))


def _pieces(mu, cfg):
    omega, psi = _edges(mu, cfg)
    w, s = min(omega, cfg.R), min(psi, cfg.R)
    if cfg.scenario == FULL_VISIBILITY:
        return ((0.0, w), (w, s))
    return ((0.0, w),)


def _quad(f, pieces):
    return sum(integrate(f, lo, hi, rel_tol=_REL_TOL).value
               for lo, hi in pieces if hi > lo)


def ccdf(cfg, mu):
    """CCDF of mu at one threshold."""
    mu = float(mu)
    if mu <= 0.0:
        return 1.0
    if mu >= 2.0 * cfg.C:
        return 0.0
    if cfg.scenario == CONDITIONAL_ON_X0:
        return _mixture(mu, cfg.x0, cfg, partial_ccdf_given_x0, full_ccdf_given_x0)
    law = full_ccdf_given_x0 if cfg.scenario == FULL_VISIBILITY else partial_ccdf_given_x0
    return _quad(lambda x: law(mu, x, cfg) * _p(x, cfg.R), _pieces(mu, cfg))


def pdf(cfg, mu):
    """Density of mu at one threshold."""
    mu = float(mu)
    if not (0.0 < mu < 2.0 * cfg.C):
        return 0.0
    if cfg.scenario == CONDITIONAL_ON_X0:
        return _mixture(mu, cfg.x0, cfg, partial_pdf_given_x0, full_pdf_given_x0)
    law = full_pdf_given_x0 if cfg.scenario == FULL_VISIBILITY else partial_pdf_given_x0
    return _quad(lambda x: law(mu, x, cfg) * _p(x, cfg.R), _pieces(mu, cfg)[-1:])


# --- 30-digit reference ----------------------------------------------------

def _mp_quad(f, lo, hi, singular_at=None):
    """30-digit quadrature of f over [lo, hi]; when a singularity sits
    just outside the interval at ``singular_at``, the interval is split
    geometrically toward it."""
    if hi <= lo:
        return mpmath.mpf(0)
    pts = [lo, hi]
    if singular_at is not None:
        end = hi if abs(singular_at - hi) < abs(singular_at - lo) else lo
        gap = abs(singular_at - end)
        step = (hi - lo) / 10
        while gap > 0 and step > gap:
            pts.append(end - step if end == hi else end + step)
            step /= 10
    return mpmath.quad(f, sorted(pts))


def _mp_values(cfg, mu):
    """(pdf, ccdf) of the full or partial scenario at 30 digits."""
    with mpmath.workdps(30):
        C, h, R = mpmath.mpf(cfg.C), mpmath.mpf(cfg.L_R) / 2, mpmath.mpf(cfg.R)
        mu = mpmath.mpf(mu)
        omega = h * mpmath.sqrt((2 * C - mu) / mu)
        psi = h * mpmath.sqrt((2 * C - mu) * (2 * C + mu)) / mu
        w, s = min(omega, R), min(psi, R)

        def p(x):
            return 4 * mpmath.sqrt(R * R - x * x) / (mpmath.pi * R * R)

        def a(x):
            return mpmath.atan(h / x)

        if cfg.scenario == FULL_VISIBILITY:
            def law_cc(x):
                z = mu / (2 * C * mpmath.sin(a(x)))
                return 2 * mpmath.acos(z) / (mpmath.pi - 2 * a(x))

            def law_pdf(x):
                Ca = C * mpmath.sin(a(x))
                z = mu / (2 * Ca)
                return 1 / ((mpmath.pi - 2 * a(x)) * Ca * mpmath.sqrt(1 - z * z))

            # psi just above R makes 1/sqrt(psi - x) nearly singular at R;
            # R just above psi makes sqrt(R - x) nearly singular at psi
            near = psi if psi > R else R
            head = _mp_quad(p, 0, w, singular_at=R if w < R else None)
            cc = head + _mp_quad(lambda x: law_cc(x) * p(x), w, s, singular_at=near)
            dens = _mp_quad(lambda x: law_pdf(x) * p(x), w, s, singular_at=near)
        else:
            def law_cc(x):
                return ((2 * a(x) - mpmath.pi / 2) - mpmath.asin(mu / C - 1)) / (2 * a(x))

            cc = _mp_quad(lambda x: law_cc(x) * p(x), 0, w,
                          singular_at=R if w < R else None)
            dens = _mp_quad(lambda x: p(x) / (2 * a(x)), 0, w,
                            singular_at=R if w < R else None)
            dens /= C * mpmath.sqrt(1 - (mu / C - 1) ** 2)
        # tanh-sinh nodes within rounding of an edge may step past it;
        # their weights are far below 1e-30
        return float(mpmath.re(dens)), float(mpmath.re(cc))


def mp_pdf(cfg, mu):
    return _mp_values(cfg, mu)[0]


def mp_ccdf(cfg, mu):
    return _mp_values(cfg, mu)[1]
