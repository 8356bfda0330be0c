"""Distance expansion, boundary angles, and mode counting."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dof_oracle import exact_distance
from nfdof import geometry
from nfdof.dof_core import (
    dof, dof_full_visibility_closed_form, fraunhofer_distance,
    minima_lattice_count, taylor_coeffs,
)
from nfdof.geometry import classify_visibility, make_link

F = 30e9
LAMBDA = 0.01


def link(L_T=0.2, L_R=5.0, thT=0.0, thR=np.pi, x0=10.0, y0=0.0):
    return make_link(L_T, L_R, thT, thR, x0, y0, frequency=F)


class TestExactDistance:
    def test_center_to_center(self):
        assert exact_distance(link(), 0.0, 0.0) == pytest.approx(10.0)

    def test_endpoint_to_endpoint(self):
        # transmit + endpoint (0, 0.1); theta_R = pi flips the receive
        # axis, so s_r = -2.5 is the spatial point (10, +2.5)
        d = exact_distance(link(), 0.1, -2.5)
        assert d == pytest.approx(math.hypot(10.0, 2.4))

    def test_offset_centers(self):
        lk = link(thT=1.4)
        rep = classify_visibility(lk)
        d = exact_distance(lk, 0.0, 0.0, rep.eta_c, rep.zeta_c)
        tx = np.array([-np.sin(1.4), np.cos(1.4)]) * rep.eta_c
        rx = np.array([10.0, 0.0]) + np.array([0.0, -1.0]) * rep.zeta_c
        assert d == pytest.approx(float(np.hypot(*(rx - tx))))

    def test_outside_segment_raises(self):
        with pytest.raises(ValueError):
            exact_distance(link(), 0.2, 0.0)
        with pytest.raises(ValueError):
            exact_distance(link(), 0.0, 3.0)


class TestTaylorCoefficients:
    def test_paraxial_center(self):
        lk = link()
        rep = classify_visibility(lk)
        tc = taylor_coeffs(lk, 0.0, rep)
        assert tc.r0 == pytest.approx(10.0)
        assert tc.a == pytest.approx(0.0)
        assert tc.rho == pytest.approx(0.0)
        # broadside: (d . n)^2 = x0^2, rho_tilde = 1 / (2 r0)
        assert tc.rho_tilde == pytest.approx(1.0 / 20.0)

    def test_slope_matches_finite_difference(self):
        lk = link(thT=0.9, thR=2.5, x0=8.0, y0=3.0)
        rep = classify_visibility(lk)
        assert rep.status == geometry.FULL
        for zeta in (-1.0, 0.0, 1.4):
            tc = taylor_coeffs(lk, zeta, rep)
            f = lambda e: exact_distance(lk, e, zeta, rep.eta_c, rep.zeta_c)
            h = 1e-5
            d1 = (f(h) - f(-h)) / (2 * h)
            h = 1e-3  # larger step: curvature estimate divides by h^2
            d2 = (f(h) - 2 * f(0.0) + f(-h)) / (h * h)
            assert tc.rho == pytest.approx(d1, abs=1e-8)
            assert 2 * tc.rho_tilde == pytest.approx(d2, abs=1e-6)
            assert tc.rho_tilde >= 0.0

    def test_requires_visibility(self):
        lk = link(thT=np.pi / 2, thR=np.pi, x0=-5, y0=5)
        rep = classify_visibility(lk)
        with pytest.raises(ValueError):
            taylor_coeffs(lk, 0.0, rep)


class TestBoundaryAngles:
    def test_paraxial(self):
        res = dof(link())
        assert res.a_plus == pytest.approx(-0.24497866312686414, rel=1e-12)
        assert res.a_minus == pytest.approx(+0.24497866312686414, rel=1e-12)
        assert res.a_zero == pytest.approx(0.0, abs=1e-15)
        assert res.rho_c == pytest.approx(0.0, abs=1e-15)

    def test_partial_case(self):
        res = dof(link(thT=1.4))
        assert res.a_plus == pytest.approx(-0.17079632679, rel=1e-6)
        assert res.a_minus == pytest.approx(+0.24497866313, rel=1e-6)
        assert res.a_zero == pytest.approx(+0.03874224190, rel=1e-6)


class TestModeIndices:
    def test_paraxial(self):
        res = dof(link())
        assert res.m_plus == pytest.approx(+4.85071250072666, rel=1e-12)
        assert res.m_minus == pytest.approx(-4.85071250072666, rel=1e-12)


class TestDof:
    def test_paraxial_reference(self):
        res = dof(link())
        assert res.m_real == pytest.approx(10.70142500145332, rel=1e-12)
        assert res.m_int == 11
        assert res.warnings == []

    def test_partial_receive_case(self):
        res = dof(link(thT=1.4))
        assert res.visibility.status == geometry.PARTIAL_RX
        assert res.m_real == pytest.approx(2.70392844841, rel=1e-9)
        assert res.m_int == 3

    def test_no_visibility(self):
        res = dof(link(thT=np.pi / 2, thR=np.pi, x0=-5, y0=5))
        assert res.m_real == 0.0
        assert res.m_int == 0
        assert math.isnan(res.m_plus) and math.isnan(res.a_plus)

    def test_touching(self):
        res = dof(link(L_R=5.0, thT=0.0, thR=np.pi / 2, x0=0.5, y0=0.0))
        assert math.isnan(res.m_real)
        assert res.m_int is None

    @pytest.mark.parametrize("index", range(7))
    def test_numpy_scalar_parameter(self, index):
        """Any of ``make_link``'s seven parameters may be a numpy scalar:
        the link holds floats, and its count is the float link's."""
        params = [0.2, 5.0, 1.4, np.pi, 10.0, 0.0, F]   # a partial receive link
        want = dof(make_link(*params))
        params[index] = np.float64(params[index])
        lk = make_link(*params)
        assert all(type(v) is float for v in dataclasses.astuple(lk))
        assert dof(lk) == want and want.visibility.status == geometry.PARTIAL_RX

    def test_close_range_warning(self):
        res = dof(link(x0=3.0))
        assert len(res.warnings) == 1
        assert "amplitude" in res.warnings[0]

    def test_matches_closed_form_full_visibility(self):
        for thT in (-0.3, 0.0, 0.7, 1.2):
            got = dof(link(thT=thT)).m_real
            want = dof_full_visibility_closed_form(10.0, thT, 0.2, 5.0, LAMBDA)
            assert got == pytest.approx(want, rel=1e-9)

    def test_upper_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            lk = link(thT=rng.uniform(-np.pi, np.pi),
                      thR=rng.uniform(-np.pi, np.pi),
                      x0=rng.uniform(-25, 25), y0=rng.uniform(-25, 25))
            if lk.d0 < 1.0:
                continue
            res = dof(lk)
            if not math.isnan(res.m_real):
                assert res.m_real <= 1.0 + 2 * lk.L_T / lk.wavelength + 1e-9

    def test_monotone_in_distance(self):
        vals = [dof(link(x0=x)).m_real for x in (7.0, 10.0, 20.0, 50.0, 200.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_reciprocity(self):
        """Swapping transmit and receive roles preserves the mode count up
        to the accuracy of the first-order phase-slope approximation (the
        exact channel is reciprocal; the closed-form count is evaluated
        from whichever side transmits)."""
        cases = [(0.9, 2.5, 8.0, 3.0), (0.0, np.pi, 10.0, 0.0),
                 (1.4, np.pi, 10.0, 0.0), (0.3, -2.2, 6.0, -4.0)]
        for thT, thR, x0, y0 in cases:
            fwd = dof(make_link(0.2, 5.0, thT, thR, x0, y0, frequency=F))
            rev = dof(make_link(5.0, 0.2, thR, thT, -x0, -y0, frequency=F))
            if math.isnan(fwd.m_real):
                assert math.isnan(rev.m_real)
            else:
                assert rev.m_real == pytest.approx(fwd.m_real, rel=0.05)
                assert abs(rev.m_int - fwd.m_int) <= 1


@given(phi=st.floats(-np.pi, np.pi), thT=st.floats(-1.2, 1.2),
       x0=st.floats(5.0, 30.0), y0=st.floats(-10.0, 10.0))
@settings(max_examples=100, deadline=None)
def test_rotation_invariance(phi, thT, x0, y0):
    base = dof(link(thT=thT, thR=np.pi, x0=x0, y0=y0))
    c, s = np.cos(phi), np.sin(phi)
    rot = dof(link(thT=thT + phi, thR=np.pi + phi,
                   x0=c * x0 - s * y0, y0=s * x0 + c * y0))
    if math.isnan(base.m_real):
        assert math.isnan(rot.m_real)
    else:
        assert rot.m_real == pytest.approx(base.m_real, abs=1e-7)


class TestClosedForm:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            dof_full_visibility_closed_form(10.0, 1.5, 0.2, 5.0, LAMBDA)
        with pytest.raises(ValueError):
            dof_full_visibility_closed_form(-1.0, 0.0, 0.2, 5.0, LAMBDA)

    @pytest.mark.parametrize("args, name", [
        ((10.0, 0.0, 0.2, 5.0, 0.0), "wavelength"),      # was ZeroDivisionError
        ((10.0, 0.0, 0.2, 5.0, -0.01), "wavelength"),    # was -8.70
        ((10.0, 0.0, 0.2, 5.0, math.inf), "wavelength"),
        ((10.0, 0.0, -0.2, 5.0, LAMBDA), "L_T"),         # was -8.70
        ((10.0, 0.0, math.nan, 5.0, LAMBDA), "L_T"),     # was nan
        ((10.0, 0.0, 0.2, -5.0, LAMBDA), "L_R"),
        ((10.0, 0.0, 0.2, math.nan, LAMBDA), "L_R"),
        ((math.nan, 0.0, 0.2, 5.0, LAMBDA), "x0"),       # was "theta_T outside ..."
        ((math.inf, 0.0, 0.2, 5.0, LAMBDA), "x0"),       # was 1.0
        ((10.0, math.nan, 0.2, 5.0, LAMBDA), "theta_T"),
    ])
    def test_impossible_inputs_refused_by_name(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            dof_full_visibility_closed_form(*args)

    def test_large_receive_limit(self):
        # as the receive array grows, sin(arctan(...)) -> 1 and the count
        # approaches the aperture bound 1 + 2 L_T / lambda
        m = dof_full_visibility_closed_form(10.0, 0.0, 0.2, 1e6, LAMBDA)
        assert m == pytest.approx(1.0 + 2 * 0.2 / LAMBDA, rel=1e-9)


class TestFraunhofer:
    def test_reference_value(self):
        assert fraunhofer_distance(0.2, 2.0, LAMBDA) == pytest.approx(968.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            fraunhofer_distance(0.2, 2.0, 0.0)
        with pytest.raises(ValueError):
            fraunhofer_distance(-0.1, 2.0, LAMBDA)

    @pytest.mark.parametrize("args, name", [
        ((0.2, math.nan, LAMBDA), "L_R"),                # was nan
        ((0.2, math.inf, LAMBDA), "L_R"),
        ((math.inf, 2.0, LAMBDA), "L_T"),
        ((0.2, 2.0, math.inf), "wavelength"),
        ((0.2, 2.0, math.nan), "wavelength"),
        ((0.2, 2.0, -LAMBDA), "wavelength"),
    ])
    def test_impossible_inputs_refused_by_name(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            fraunhofer_distance(*args)


class TestMinimaLatticeCount:
    def test_symmetric_span(self):
        assert minima_lattice_count(4.851, -4.851) == 8

    def test_one_sided_span(self):
        assert minima_lattice_count(14.561, -4.130) == 18

    def test_no_interior_integer(self):
        assert minima_lattice_count(0.4, -0.4) == 0
        assert minima_lattice_count(0.9, 0.1) == 0

    def test_zero_excluded(self):
        assert minima_lattice_count(1.5, -0.5) == 1
        assert minima_lattice_count(2.912, -0.826) == 2

    def test_order_invariant(self):
        assert minima_lattice_count(-2.943, 1.908) == 3
        assert minima_lattice_count(1.908, -2.943) == 3
