"""Special functions, quadrature, and reproducible random streams.

Kernel evaluation and Monte Carlo funnel through the entry points here
so that accuracy and reproducibility are controlled in one place:

* ``faddeeva`` -- scaled complementary error function, array-valued,
  the building block of the aperture kernel's closed form; pure numpy,
  by Weideman's rational approximation (see below),
* ``erfi``   -- imaginary error function on the complex plane,
* ``integrate`` -- adaptive 1D quadrature with an error report, the
  reference the test oracles check fixed-node rules against,
* ``gauss_legendre`` -- the fixed-node rules themselves, the one place
  the kernel, the distributions and the SVD count take them from,
* ``sample_stream`` -- counter-based uniform random generator,
* ``usable_cpus`` -- how many CPUs the Monte Carlo pool may use.

``faddeeva`` follows J. A. C. Weideman, "Computation of the complex
error function", SIAM J. Numer. Anal. 31 (1994): with N = 40 terms and
L = sqrt(N / sqrt(2)),

    w(z) ~ 2 p(Z) / (L - i z)^2 + (1 / sqrt(pi)) / (L - i z),
    Z = (L + i z) / (L - i z),

where p is a polynomial of degree N - 1 whose coefficients come from
one FFT, taken on the first call (so that a run which never scans the
kernel does not load ``numpy.fft``).  It holds on the closed upper
half-plane, where the kernel takes w; against ``scipy.special.wofz``
the relative difference is below 2e-14 on the kernel's ray
z = x exp(3i pi / 4), x in [0, 1e12], on random points with |z| from
1e-3 to 1e9, and 1e-6 above the real axis, and against 30-digit
mpmath it is below 6e-14 on the ray.  w(0) = 1 exactly.

scipy and mpmath are imported inside the functions that use them
(``erfi`` and ``integrate``), so importing the package, running a sweep
or scanning the kernel loads neither.
"""

import functools
import os
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureResult", "faddeeva", "erfi", "integrate", "gauss_legendre",
           "sample_stream", "usable_cpus"]

# erfi arguments beyond this radius are refused outright: erfi grows as
# exp(|z|^2) off the real line, and silently returning garbage would be
# worse than an error.  (The kernel uses the bounded ``faddeeva`` form.)
ERFI_MAX_ABS = 50.0

# When the Faddeeva-based evaluation suffers catastrophic cancellation
# (result tiny compared to the intermediate terms) we re-evaluate with
# arbitrary precision instead.
_CANCELLATION_RATIO = 1e-2
_MPMATH_DPS = 30

# terms of Weideman's approximation of the Faddeeva function, and its scale
FADDEEVA_TERMS = 40
_FADDEEVA_L = (FADDEEVA_TERMS / 2.0 ** 0.5) ** 0.5


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a 1D integral plus the integrator's own error estimate."""

    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool = True


@functools.cache
def _faddeeva_coefficients():
    """Coefficients of Weideman's polynomial p, highest degree first."""
    n, L = FADDEEVA_TERMS, _FADDEEVA_L
    t = L * np.tan(np.arange(1 - 2 * n, 2 * n) * np.pi / (4 * n))
    f = np.concatenate(([0.0], np.exp(-t * t) * (L * L + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (4 * n)
    return tuple(a[n:0:-1].tolist())


def faddeeva(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-i z), elementwise, on the
    closed upper half-plane (Weideman's approximation; see the module
    docstring).

    |w(z)| <= 1 there, where the aperture kernel evaluates it; it stays
    finite for every finite argument, so no radius is refused.  Raises
    ``ValueError`` for non-finite input and for Im z < 0, where the
    approximation does not hold.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("faddeeva: non-finite input")
    if np.any(z.imag < 0.0):
        raise ValueError("faddeeva: Im z < 0 is outside the upper half-plane")
    coefficients = _faddeeva_coefficients()
    iz = 1j * z
    d = _FADDEEVA_L - iz
    big_z = (_FADDEEVA_L + iz) / d
    p = np.full(z.shape, coefficients[0], dtype=complex)
    for c in coefficients[1:]:
        p *= big_z
        p += c
    return (2.0 * p / d + 1.0 / np.sqrt(np.pi)) / d


def erfi(z):
    """Imaginary error function Erfi(z) = -i erf(i z) for complex z.

    Accurate to better than 1e-10 relative error for |z| <= 5 and well
    behaved on the exp(3i pi/4) ray inside the supported radius.
    Raises ``ValueError`` for non-finite input or |z| > 50 and
    ``OverflowError`` when the result magnitude exceeds double range.
    """
    from scipy import special
    z = complex(z)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ValueError("erfi: non-finite input")
    if abs(z) > ERFI_MAX_ABS:
        raise ValueError(f"erfi: |z| = {abs(z):.3g} exceeds supported radius {ERFI_MAX_ABS}")

    if z.imag == 0.0:
        val = special.erfi(z.real)
        if not np.isfinite(val):
            raise OverflowError("erfi: result overflows double precision")
        return complex(val)

    # erfi(z) = -i erf(i z); evaluate erf via the scaled Faddeeva function,
    # using erf(-w) = -erf(w) to keep Re(w) >= 0 where the identity
    # erf(w) = 1 - exp(-w^2) wofz(i w) is stable.
    w = 1j * z
    sign = 1.0
    if w.real < 0.0:
        w, sign = -w, -1.0
    tail = np.exp(-w * w) * special.wofz(1j * w)
    val = sign * (1.0 - tail)
    if not (np.isfinite(val.real) and np.isfinite(val.imag)):
        raise OverflowError("erfi: result overflows double precision")
    if abs(val) < _CANCELLATION_RATIO * max(1.0, abs(tail)):
        # near a complex zero of erf the subtraction above loses digits
        import mpmath
        with mpmath.workdps(_MPMATH_DPS):
            val = sign * complex(mpmath.erf(mpmath.mpc(w.real, w.imag)))
    return -1j * val


def integrate(f, a, b, rel_tol=1e-8, points=None):
    """Adaptive quadrature of ``f`` over [a, b].

    Handles integrable inverse-square-root endpoint singularities (the
    arcsine-type densities that appear in the distribution module).
    Non-convergence is reported through the ``converged`` flag rather
    than by discarding the best estimate.
    """
    from scipy.integrate import quad
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("integrate: bounds must be finite")
    if a > b:
        raise ValueError("integrate: lower bound exceeds upper bound")
    if a == b:
        return QuadratureResult(0.0, 0.0, 1, True)
    out = quad(f, a, b, epsrel=rel_tol, epsabs=1e-14, limit=200, points=points,
               full_output=1)
    value, abserr, info = out[0], out[1], out[2]
    converged = len(out) < 4
    return QuadratureResult(float(value), float(abserr), int(info["neval"]), converged)


@functools.lru_cache(maxsize=256)
def gauss_legendre(p):
    """The p-point Gauss-Legendre rule on [-1, 1], read-only, cached by p."""
    nodes, weights = np.polynomial.legendre.leggauss(p)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def sample_stream(seed, substream=0):
    """Deterministic uniform sampler for a (seed, substream) pair.

    Built on the counter-based Philox generator (Salmon, Moraes, Dror &
    Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC'11), so
    distinct substreams are independent and any position of a stream
    can be reached directly: ``bit_generator.advance(k)`` skips k blocks
    of four doubles.  The Monte Carlo chunks of ``statistics.monte_carlo``
    and ``statistics.ccdf`` are drawn that way, and
    ``tests/test_statistics.py`` checks that the draws do not depend on
    how the work is split across threads: the chunks reproduce the
    serial stream bit for bit, on one CPU and on four.
    """
    ss = np.random.SeedSequence((int(seed), int(substream)))
    return np.random.Generator(np.random.Philox(ss))


def usable_cpus():
    """CPUs this process may run on: its affinity set where the platform
    has one, else every CPU of the machine.  The Monte Carlo runner
    ``statistics._chunked`` draws its chunks on one thread per CPU
    counted here."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
