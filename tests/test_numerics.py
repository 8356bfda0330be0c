"""Special functions, quadrature, and random-stream contracts."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sp_stats

from nfdof.numerics import erfi, faddeeva, integrate, sample_stream


def erfi_series_oracle(z, terms=120, dps=50):
    """High-precision Maclaurin series for the imaginary error function."""
    with mpmath.workdps(dps):
        zz = mpmath.mpc(z)
        total = mpmath.mpc(0)
        for n in range(terms):
            total += zz ** (2 * n + 1) / (mpmath.factorial(n) * (2 * n + 1))
        return complex(total * 2 / mpmath.sqrt(mpmath.pi))


class TestErfi:
    def test_zero(self):
        assert erfi(0.0) == 0.0

    def test_odd_symmetry(self):
        z = 0.7 + 0.3j
        assert erfi(-z) == pytest.approx(-erfi(z), rel=1e-12)

    def test_frozen_reference_value(self):
        # series oracle at z = 1 (frozen)
        assert erfi(1.0).real == pytest.approx(1.6504257587975428, rel=1e-12)
        assert erfi(1.0).imag == 0.0

    def test_against_series_oracle_disk(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(300):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(z) > 5:
                continue
            ref = erfi_series_oracle(z)
            err = abs(erfi(z) - ref) / max(abs(ref), 1e-300)
            worst = max(worst, err)
        assert worst <= 1e-10

    def test_kernel_ray_large_arguments(self):
        # finite and bounded on the exp(3i pi/4) ray inside the radius
        for x in (10.0, 30.0, 46.0):
            val = erfi(np.exp(3j * np.pi / 4) * x)
            assert np.isfinite(val.real) and np.isfinite(val.imag)
            assert abs(val) < 2.0

    @given(st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                              allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_conjugate_symmetry(self, z):
        assert erfi(np.conj(z)) == pytest.approx(np.conj(erfi(z)), abs=1e-12)

    def test_real_line_real_and_increasing(self):
        xs = np.linspace(-5, 5, 41)
        vals = [erfi(float(x)) for x in xs]
        assert all(abs(v.imag) <= 1e-12 for v in vals)
        assert all(b.real > a.real for a, b in zip(vals, vals[1:]))

    def test_argument_too_large(self):
        with pytest.raises(ValueError):
            erfi(60.0)
        with pytest.raises(ValueError):
            erfi(40 + 40j)

    def test_non_finite_input(self):
        with pytest.raises(ValueError):
            erfi(float("nan"))
        with pytest.raises(ValueError):
            erfi(complex(float("inf"), 0.0))

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            erfi(30.0)


class TestFaddeeva:
    def test_against_mpmath_upper_half_plane(self):
        """Elementwise, including the far arguments of the kernel's
        far field where erfi itself would overflow."""
        rng = np.random.default_rng(4)
        radii = 10.0 ** rng.uniform(-3, 9, 200)
        angles = rng.uniform(0.0, np.pi, 200)
        z = radii * np.exp(1j * angles)
        got = faddeeva(z)
        assert got.shape == z.shape
        with mpmath.workdps(30):
            for zi, wi in zip(z, got):
                zz = mpmath.mpc(zi.real, zi.imag)
                ref = complex(mpmath.exp(-zz * zz) * mpmath.erfc(-1j * zz))
                assert abs(wi - ref) <= 1e-13 * abs(ref)
                assert abs(wi) <= 1.0

    def test_non_finite_input(self):
        with pytest.raises(ValueError):
            faddeeva(np.array([1.0, float("nan")]))


class TestFaddeevaOnTheKernelRay:
    """The kernel takes w only on z = x exp(3i pi / 4), x >= 0."""

    def test_against_mpmath_on_the_ray(self):
        """Dense where Weideman's approximation is weakest, x in [4, 14]."""
        x = np.concatenate(([0.0], np.linspace(0.0, 4.0, 60),
                            np.linspace(4.0, 14.0, 400), np.logspace(1.2, 9.0, 140)))
        z = x * np.exp(0.75j * np.pi)
        got = faddeeva(z)
        assert np.all(np.abs(got) <= 1.0)
        with mpmath.workdps(30):
            for zi, wi in zip(z, got):
                zz = mpmath.mpc(zi.real, zi.imag)
                ref = complex(mpmath.exp(-zz * zz) * mpmath.erfc(-1j * zz))
                assert abs(wi - ref) <= 1e-13 * abs(ref)

    def test_lower_half_plane_refused(self):
        with pytest.raises(ValueError, match="upper half-plane"):
            faddeeva(np.array([1.0 + 1.0j, 1.0 - 1e-300j]))


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda x: 1.0, 0.0, 1.0).value == pytest.approx(1.0, abs=1e-12)

    def test_disk_density_normalization(self):
        R = 20.0
        f = lambda x: 4 * math.sqrt(R * R - x * x) / (math.pi * R * R)
        assert integrate(f, 0.0, R).value == pytest.approx(1.0, abs=1e-10)

    def test_arcsine_endpoint_singularity(self):
        res = integrate(lambda r: 1.0 / math.sqrt(1 - r * r), -1.0, 1.0)
        assert res.value == pytest.approx(math.pi, rel=1e-10)

    def test_polynomials_exact(self):
        rng = np.random.default_rng(1)
        for deg in range(11):
            coeffs = rng.uniform(-2, 2, deg + 1)
            p = np.polynomial.Polynomial(coeffs)
            exact = p.integ()(2.0) - p.integ()(-1.0)
            got = integrate(lambda x: float(p(x)), -1.0, 2.0).value
            assert got == pytest.approx(exact, abs=1e-12 * max(1, abs(exact)))

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate(lambda x: x, 0.0, float("inf"))

    def test_reports_error_estimate_and_evaluations(self):
        res = integrate(lambda x: math.sin(x), 0.0, 1.0)
        assert res.abs_error_estimate >= 0.0
        assert res.evaluations >= 1
        assert res.converged


class TestSampleStream:
    def test_deterministic(self):
        a = sample_stream(42, 3).random(1000)
        b = sample_stream(42, 3).random(1000)
        assert np.array_equal(a, b)

    def test_substreams_uncorrelated(self):
        x = sample_stream(7, 0).random(100_000)
        y = sample_stream(7, 1).random(100_000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.01

    def test_unit_interval(self):
        draws = sample_stream(0, 0).random(1_000_000)
        assert draws.min() >= 0.0
        assert draws.max() < 1.0

    def test_chi_square_uniformity(self):
        draws = sample_stream(123, 0).random(1_000_000)
        counts, _ = np.histogram(draws, bins=100, range=(0.0, 1.0))
        _, p = sp_stats.chisquare(counts)
        assert p > 0.001
