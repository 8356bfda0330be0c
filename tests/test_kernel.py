"""Closed-form aperture kernel against direct quadrature and the
mode-index lattice prediction."""

import cmath
import warnings

import mpmath
import numpy as np
import pytest

from nfdof import geometry, kernel
from nfdof.dof_core import dof, dof_arrays, minima_lattice_count, taylor_coeffs
from nfdof.geometry import classify_visibility, link_arrays, make_link
from nfdof.kernel import (
    _aperture_integral, _delta_coeffs, find_minima, kernel_exact,
    kernel_farfield, kernel_scan,
)
from nfdof.numerics import integrate

F = 30e9
LAMBDA = 0.01

# the four reference configurations used throughout: (L_T, L_R, thT, thR, x0, y0)
CONFIGS = {
    "parallel-broadside": (0.2, 5.0, 0.0, np.pi, 10.0, 0.0),
    "tilted-tx": (0.2, 5.0, np.pi / 3, np.pi, 10.0, 0.0),
    "tilted-both-long": (1.0, 5.0, np.pi / 3, -np.pi / 3, -5.0, 5.0),
    "tilted-both-short": (0.2, 5.0, np.pi / 3, -np.pi / 3, -5.0, 5.0),
}
EXPECTED_MINIMA = {
    "parallel-broadside": 8,
    "tilted-tx": 3,
    "tilted-both-long": 18,
    "tilted-both-short": 2,
}


def make(name):
    L_T, L_R, thT, thR, x0, y0 = CONFIGS[name]
    lk = make_link(L_T, L_R, thT, thR, x0, y0, frequency=F)
    return lk, classify_visibility(lk)


def kernel_quadrature(zeta, zeta_ref, lk, rep):
    """Independent oracle: direct numerical integration of the phase-
    mismatch integral over the effective transmit aperture."""
    from nfdof.dof_core import taylor_coeffs

    co = taylor_coeffs(lk, zeta, rep)
    co_r = taylor_coeffs(lk, zeta_ref, rep)
    drho = co.rho - co_r.rho
    drho_t = co.rho_tilde - co_r.rho_tilde
    k = 2 * np.pi / lk.wavelength
    amp = 1.0 / (4 * np.pi * lk.d0) ** 2
    h = rep.l_T / 2
    re = integrate(lambda e: np.cos(k * (drho * e + drho_t * e * e)), -h, h,
                   rel_tol=1e-12)
    im = integrate(lambda e: -np.sin(k * (drho * e + drho_t * e * e)), -h, h,
                   rel_tol=1e-12)
    return amp * complex(re.value, im.value)


def find_minima_reference(mags):
    """Plain-loop statement of ``find_minima``'s rule: a strict local
    minimum below half of the smaller of its enclosing local maxima."""
    n = len(mags)
    interior_min = [i for i in range(1, n - 1)
                    if mags[i] < mags[i - 1] and mags[i] < mags[i + 1]]
    maxima = [0] + [i for i in range(1, n - 1)
                    if mags[i] > mags[i - 1] and mags[i] > mags[i + 1]] + [n - 1]
    kept = []
    for i in interior_min:
        left = max(m for m in maxima if m < i)
        right = min(m for m in maxima if m > i)
        if mags[i] < 0.5 * min(mags[left], mags[right]):
            kept.append(i)
    return kept


class TestKernelValues:
    def test_self_kernel_is_aperture_peak(self):
        for name in CONFIGS:
            lk, rep = make(name)
            peak = rep.l_T / (4 * np.pi * lk.d0) ** 2
            v = kernel_exact(0.0, 0.0, lk, rep)
            assert abs(v) == pytest.approx(peak, rel=1e-9)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(6)
        for name in CONFIGS:
            lk, rep = make(name)
            peak = rep.l_T / (4 * np.pi * lk.d0) ** 2
            for _ in range(12):
                z = rng.uniform(-rep.l_R / 2, rep.l_R / 2)
                zr = rng.uniform(-rep.l_R / 8, rep.l_R / 8)
                got = kernel_exact(z, zr, lk, rep)
                want = kernel_quadrature(z, zr, lk, rep)
                assert abs(got - want) <= 1e-12 * peak

    def test_array_matches_scalar_calls(self):
        for name in CONFIGS:
            lk, rep = make(name)
            peak = rep.l_T / (4 * np.pi * lk.d0) ** 2
            zs = np.linspace(-rep.l_R / 2, rep.l_R / 2, 101)
            got = kernel_exact(zs, 0.3, lk, rep)
            assert got.shape == zs.shape
            want = [kernel_exact(float(z), 0.3, lk, rep) for z in zs]
            assert np.max(np.abs(got - want)) <= 1e-15 * peak
            ff = kernel_farfield(zs, 0.3, lk, rep)
            assert ff == pytest.approx([kernel_farfield(float(z), 0.3, lk, rep)
                                        for z in zs], rel=1e-15, abs=1e-15 * peak)

    def test_hermitian_symmetry(self):
        pairs = {"parallel-broadside": ((1.2, 0.2), (-2.1, 0.0)),
                 "tilted-both-short": ((0.3, -1.1), (1.2, 0.2))}
        for name, cases in pairs.items():
            lk, rep = make(name)
            for z, zr in cases:
                a = kernel_exact(z, zr, lk, rep)
                b = kernel_exact(zr, z, lk, rep)
                assert a == pytest.approx(b.conjugate(), abs=1e-12 * abs(a))

    def test_nonzero_minima_in_oblique_case(self):
        # oblique geometry: the kernel minima are shallow but non-zero
        lk, rep = make("tilted-both-long")
        scan = kernel_scan(lk, n_samples=2048)
        peak = max(s.magnitude for s in scan.samples)
        mags = np.array([s.magnitude for s in scan.samples])
        for i in scan.minima:
            assert mags[i] > 1e-3 * peak

    def test_outside_aperture_raises(self):
        lk, rep = make("parallel-broadside")
        with pytest.raises(ValueError):
            kernel_exact(rep.l_R, 0.0, lk, rep)
        # the far-field kernel and the scan share the exact kernel's refusal
        with pytest.raises(ValueError, match="outside the effective receive aperture"):
            kernel_farfield(rep.l_R, 0.0, lk, rep)
        with pytest.raises(ValueError, match="outside the effective receive aperture"):
            kernel_scan(lk, zeta_ref=rep.l_R)

    def test_nan_receive_point_refused(self):
        """A NaN receive or reference point fails the aperture check, with
        no numeric warning before the refusal."""
        lk, rep = make("parallel-broadside")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: kernel_exact(np.nan, 0.0, lk, rep),
                         lambda: kernel_exact(np.array([0.0, np.nan]), 0.0, lk, rep),
                         lambda: kernel_exact(0.0, np.nan, lk, rep),
                         lambda: kernel_scan(lk, zeta_ref=np.nan)):
                with pytest.raises(ValueError, match="outside the effective receive aperture"):
                    call()

    def test_requires_visibility(self):
        lk = make_link(0.2, 5.0, np.pi / 2, np.pi, -5.0, 5.0, frequency=F)
        rep = classify_visibility(lk)
        with pytest.raises(ValueError):
            kernel_exact(0.0, 0.0, lk, rep)

    @pytest.mark.parametrize("x0", [[10.0], [10.0, 12.0]])
    def test_refuses_a_report_of_arrays(self, x0):
        """The coefficients and the kernel take one link's report; a
        ``dof_arrays`` report is refused with a ValueError that says so,
        for one link as for two."""
        links = link_arrays(0.2, 5.0, 0.0, np.pi, x0, 0.0, F)
        rep = dof_arrays(links).visibility
        with pytest.raises(ValueError, match="one link's visibility report"):
            taylor_coeffs(links, 0.0, rep)
        with pytest.raises(ValueError, match="one link's visibility report"):
            kernel_exact(0.0, 0.0, links, rep)


class TestFarfieldKernel:
    def test_peak_value(self):
        lk, rep = make("parallel-broadside")
        peak = rep.l_T / (4 * np.pi * lk.d0) ** 2
        assert kernel_farfield(0.0, 0.0, lk, rep) == pytest.approx(peak)

    def test_zero_crossings_at_integer_indices(self):
        """The sinc kernel vanishes where the mode-index difference from
        the reference point is a nonzero integer."""
        lk, rep = make("parallel-broadside")
        from nfdof.dof_core import taylor_coeffs

        co_ref = taylor_coeffs(lk, 0.0, rep)
        scale = rep.l_T / lk.wavelength

        def index_of(zeta):
            return scale * (taylor_coeffs(lk, zeta, rep).rho - co_ref.rho)

        # bisection for the receive offsets where the index hits 1 and 2
        for target in (1.0, 2.0, -1.0):
            lo, hi = (0.0, rep.l_R / 2) if target > 0 else (-rep.l_R / 2, 0.0)
            if index_of(lo) > index_of(hi):
                lo, hi = hi, lo
            for _ in range(80):
                mid = (lo + hi) / 2
                if index_of(mid) < target:
                    lo = mid
                else:
                    hi = mid
            z = (lo + hi) / 2
            peak = rep.l_T / (4 * np.pi * lk.d0) ** 2
            assert abs(kernel_farfield(z, 0.0, lk, rep)) < 1e-9 * peak

    def test_exact_degenerates_when_quadratic_terms_match(self):
        # zeta = zeta_ref has exactly matching quadratic coefficients
        lk, rep = make("tilted-tx")
        v = kernel_exact(0.7, 0.7, lk, rep)
        assert v.imag == 0.0
        assert v.real == pytest.approx(kernel_farfield(0.7, 0.7, lk, rep))


class TestFarFieldAndReferencePoint:
    """The closed form stays finite and accurate from the near field into
    the far field, and next to the reference point."""

    @pytest.mark.parametrize("L_T", [0.2, 2.0])
    def test_range_sweep_matches_quadrature_and_tends_to_sinc(self, L_T):
        deviation = []
        for x0 in (10.0, 100.0, 1e3, 1e4):
            lk = make_link(L_T, 5.0, 0.3, np.pi, x0, 0.0, frequency=F)
            rep = classify_visibility(lk)
            peak = rep.l_T / (4 * np.pi * lk.d0) ** 2
            zs = np.linspace(-rep.l_R / 2, rep.l_R / 2, 9)
            got = kernel_exact(zs, 0.0, lk, rep)
            want = [kernel_quadrature(z, 0.0, lk, rep) for z in zs]
            assert np.max(np.abs(got - want)) <= 1e-9 * peak, x0
            deviation.append(
                np.max(np.abs(got - kernel_farfield(zs, 0.0, lk, rep))) / peak)
        assert all(b < a for a, b in zip(deviation, deviation[1:]))
        assert deviation[-1] < 1e-5

    @pytest.mark.parametrize("zeta_ref", [0.0, 0.7, -1.9])
    def test_points_next_to_the_reference(self, zeta_ref):
        # the closed form alone is off by ~3e-10 of the peak here; the
        # oracle agrees with the Gauss-Legendre branch to ~1e-15
        offsets = np.logspace(-10, -3, 15)
        for name in CONFIGS:
            lk, rep = make(name)
            peak = rep.l_T / (4 * np.pi * lk.d0) ** 2
            zs = np.concatenate([zeta_ref - offsets, zeta_ref + offsets])
            zs = zs[np.abs(zs) <= rep.l_R / 2]
            got = kernel_exact(zs, zeta_ref, lk, rep)
            want = [kernel_quadrature(z, zeta_ref, lk, rep) for z in zs]
            assert np.max(np.abs(got - want)) <= 1e-12 * peak, name

    @pytest.mark.parametrize("link", [(2.5, 2.0, 0.5, 3.5, 0.6, 2.2),
                                      (1.5, 1.0, -0.75, 3.4, 0.9, 0.3)])
    def test_stationary_point_inside_the_aperture(self, link):
        """Close-range links where the phase is stationary inside the
        transmit aperture, far from the reference point."""
        lk = make_link(*link, frequency=F)
        rep = classify_visibility(lk)
        peak = rep.l_T / (4 * np.pi * lk.d0) ** 2
        zs = np.linspace(-rep.l_R / 2, rep.l_R / 2, 17)
        co, co_ref = taylor_coeffs(lk, zs, rep), taylor_coeffs(lk, 0.3, rep)
        drho, drho_t = co.rho - co_ref.rho, co.rho_tilde - co_ref.rho_tilde
        h, k = rep.l_T / 2, 2 * np.pi / lk.wavelength
        inside = ((np.abs(drho) < 2 * np.abs(drho_t) * h)
                  & (k * (np.abs(drho) * h + np.abs(drho_t) * h * h) > 8))
        assert np.count_nonzero(inside) >= 10
        got = kernel_exact(zs, 0.3, lk, rep)
        want = [kernel_quadrature(z, 0.3, lk, rep) for z in zs]
        assert np.max(np.abs(got - want)) <= 1e-9 * peak


def aperture_integral_mpmath(drho, drho_t, k, h):
    """30-digit quadrature of exp(-j k (drho eta + drho_t eta^2)) over
    [-h, h], split into pieces of about 3 rad of phase."""
    with mpmath.workdps(30):
        f = lambda e: mpmath.exp(-1j * k * (drho * e + drho_t * e * e))
        pieces = int(k * (abs(drho) * h + abs(drho_t) * h * h) / 3) + 2
        return complex(mpmath.quad(f, mpmath.linspace(-h, h, pieces)))


class TestApertureIntegral:
    """Each evaluation regime and both switches against 30-digit
    quadrature, with (drho, drho_t) set directly."""

    K, H = 2 * np.pi / LAMBDA, 0.1

    def cases(self):
        k, h = self.K, self.H
        out = []
        # around the Gauss-Legendre switch: total phase 7.9 and 8.1 rad,
        # from purely linear to purely quadratic, every sign
        for total in (7.9, 8.1):
            for share in (0.0, 0.3, 0.7, 1.0):
                for sp, sq in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    out.append((sp * share * total / (k * h),
                                sq * (1 - share) * total / (k * h * h)))
        # around the sinc switch, with small and large linear phase
        for quad_phase in (3e-16, 3e-15, 1e-12):
            for lin_phase in (1e-6, 0.5, 40.0):
                out.append((lin_phase / (k * h), quad_phase / (k * h * h)))
        # stationary point inside the aperture, large phase
        out.append((0.01, 0.2))
        out.append((-0.03, -0.4))
        return out

    def test_against_mpmath(self):
        cases = self.cases()
        drho = np.array([c[0] for c in cases])
        drho_t = np.array([c[1] for c in cases])
        got = _aperture_integral(drho, drho_t, LAMBDA, 2 * self.H)[0]
        for (p, q), g in zip(cases, got):
            want = aperture_integral_mpmath(p, q, self.K, self.H)
            assert abs(g - want) <= 1e-14 * 2 * self.H, (p, q)


def focusing_phase(eta, zeta, lk, rep):
    """Quadratic focusing phase k (rho eta + rho_tilde eta^2) (rad) at
    transmit offset ``eta`` for the receive point ``zeta``."""
    co = taylor_coeffs(lk, zeta, rep)
    return 2 * np.pi / lk.wavelength * (co.rho * eta + co.rho_tilde * eta * eta)


class TestFocusingPhase:
    def test_zero_at_center(self):
        lk, rep = make("parallel-broadside")
        assert focusing_phase(0.0, 0.0, lk, rep) == 0.0

    def test_broadside_is_pure_quadratic(self):
        lk, rep = make("parallel-broadside")
        k = 2 * np.pi / LAMBDA
        for eta in (0.05, 0.1):
            # rho = 0, rho_tilde = 1/(2 d0) at the broadside center
            assert focusing_phase(eta, 0.0, lk, rep) == pytest.approx(
                k * eta * eta / 20.0, rel=1e-12)

    def test_taylor_remainder_small(self):
        """The quadratic phase tracks the true propagation phase to a
        fraction of a radian across the transmit aperture."""
        from dof_oracle import exact_distance
        from nfdof.dof_core import taylor_coeffs

        lk, rep = make("parallel-broadside")
        k = 2 * np.pi / LAMBDA
        zeta = 1.5
        co = taylor_coeffs(lk, zeta, rep)
        for eta in np.linspace(-0.1, 0.1, 11):
            true_phase = k * (exact_distance(lk, eta, zeta) - co.r0)
            model = focusing_phase(eta, zeta, lk, rep)
            assert abs(true_phase - model) < 0.05

    def test_farfield_quadratic_phase_negligible(self):
        """At n times the far-field distance the quadratic phase at the
        aperture edge is pi / (8 n): below the classical pi/8 criterion
        and scaling as predicted."""
        from nfdof.dof_core import fraunhofer_distance, taylor_coeffs

        d_ff = fraunhofer_distance(0.2, 0.0, LAMBDA)  # transmit-only aperture
        k = 2 * np.pi / LAMBDA
        for n in (1.0, 10.0):
            lk = make_link(0.2, 5.0, 0.0, np.pi, n * d_ff, 0.0, frequency=F)
            rep = classify_visibility(lk)
            co = taylor_coeffs(lk, 0.0, rep)
            edge_phase = k * co.rho_tilde * 0.1 ** 2
            assert edge_phase == pytest.approx(np.pi / (8 * n), rel=1e-12)


class TestMinimaCount:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_exact_farfield_and_lattice_agree(self, name):
        lk, _ = make(name)
        res = dof(lk)
        lattice = minima_lattice_count(res.m_plus, res.m_minus)
        assert lattice == EXPECTED_MINIMA[name]
        scan = kernel_scan(lk, n_samples=4096)
        assert len(scan.minima) == lattice
        assert len(find_minima(np.abs(scan.farfield))) == lattice

    def test_find_minima_simple(self):
        mags = [1.0, 0.1, 1.0, 0.8, 1.0]
        assert find_minima(mags) == [1]  # 0.8 is too shallow

    def test_find_minima_flat(self):
        assert find_minima([1.0, 1.0, 1.0, 1.0]) == []

    def test_find_minima_matches_reference_loop(self):
        curves = []
        for name in sorted(CONFIGS):
            lk, _ = make(name)
            curves.append(np.abs(kernel_scan(lk).values))
        rng = np.random.default_rng(21)
        for n in (3, 4, 5, 17, 64, 300, 1024):
            curves.append(rng.random(n))
            curves.append(np.round(rng.random(n), 1))  # ties and plateaus
            curves.append(np.abs(np.sinc(np.linspace(-6, 6, n))
                                 + 0.05 * rng.standard_normal(n)))
        for mags in curves:
            assert find_minima(mags) == find_minima_reference(mags)

    def test_scan_contract(self):
        lk, rep = make("tilted-tx")
        scan = kernel_scan(lk, n_samples=256)
        assert len(scan.samples) == 256
        assert scan.samples[0].zeta == pytest.approx(-rep.l_R / 2)
        assert scan.samples[-1].zeta == pytest.approx(rep.l_R / 2)
        assert scan.reference_zeta == 0.0

    def test_scan_rejects_tiny_sampling(self):
        lk, _ = make("parallel-broadside")
        with pytest.raises(ValueError):
            kernel_scan(lk, n_samples=32)

    def test_scan_requires_visibility(self):
        lk = make_link(0.2, 5.0, np.pi / 2, np.pi, -5.0, 5.0, frequency=F)
        with pytest.raises(ValueError):
            kernel_scan(lk)


class TestScanSinglePass:
    """A scan's exact and far-field columns and its sinc-limit count come
    from one coefficient evaluation, and equal the public kernels."""

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("zeta_ref", [0.0, 0.7])
    def test_columns_are_the_public_kernels(self, name, zeta_ref):
        lk, rep = make(name)
        # an odd count samples zeta = 0, which takes the sinc limit
        # against zeta_ref = 0
        scan = kernel_scan(lk, zeta_ref=zeta_ref, n_samples=1025)
        assert np.array_equal(scan.values, kernel_exact(scan.zeta, zeta_ref, lk, rep))
        assert np.array_equal(scan.farfield,
                              kernel_farfield(scan.zeta, zeta_ref, lk, rep))
        drho_t = _delta_coeffs(scan.zeta, zeta_ref, lk, rep)[1]
        # the quadratic phase across the aperture against kernel.SINC_PHASE
        phase = 2.0 * np.pi / lk.wavelength * np.abs(drho_t) * (rep.l_T / 2.0) ** 2
        sinc = np.count_nonzero(phase <= kernel.SINC_PHASE)
        assert scan.sinc_fallback == sinc == (zeta_ref == 0.0)
        assert scan.minima == find_minima(np.abs(scan.values))

    def test_one_coefficient_evaluation(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return taylor_coeffs(*args)

        monkeypatch.setattr(kernel, "taylor_coeffs", counted)
        lk, _ = make("tilted-both-long")
        kernel_scan(lk, zeta_ref=0.3)
        assert len(calls) == 1
