"""Analytic mode-count distributions against the Monte Carlo and the
per-link engine."""

import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import deconditioning_oracle as oracle
import mpmath
import numpy as np
import pytest

from branch_oracle import branch_interval, visibility_fraction
from nfdof import statistics as stats
from nfdof.dof_core import dof, dof_arrays
from nfdof.geometry import TOUCHING, link_arrays, make_link
from nfdof.numerics import integrate, sample_stream
from nfdof.statistics import (
    CONDITIONAL_ON_X0, FULL_VISIBILITY, PARTIAL_R_MINUS, PARTIAL_R_PLUS,
    DistributionCurve, ScenarioConfig, ccdf,
    empirical_ccdf, excess_dof_branches, monte_carlo, pov,
)

F = 30e9


def cfg(R=20.0, scenario=FULL_VISIBILITY, x0=None, L_T=0.2, L_R=5.0):
    return ScenarioConfig(R=R, L_T=L_T, L_R=L_R, frequency=F,
                          scenario=scenario, x0=x0)


class TestScenarioConfig:
    def test_scale(self):
        assert cfg().C == pytest.approx(20.0)
        assert cfg().wavelength == pytest.approx(0.01)

    def test_bad_scenario(self):
        with pytest.raises(ValueError):
            cfg(scenario="bogus")

    def test_conditional_needs_x0(self):
        with pytest.raises(ValueError):
            cfg(scenario=CONDITIONAL_ON_X0)
        with pytest.raises(ValueError):
            cfg(scenario=CONDITIONAL_ON_X0, x0=25.0)

    @pytest.mark.parametrize("scenario", [FULL_VISIBILITY, PARTIAL_R_PLUS,
                                          PARTIAL_R_MINUS])
    def test_x0_only_where_read(self, scenario):
        """Only the conditional scenario reads x0; the others refuse one
        rather than carry a value the curve never used."""
        with pytest.raises(ValueError, match="x0 must be given only in the "
                                             "'conditional-on-x0' scenario"):
            cfg(scenario=scenario, x0=5.0)

    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            cfg(R=0.0)

    @pytest.mark.parametrize("field", ["R", "L_T", "L_R", "frequency", "x0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_finite_parameters(self, field, value):
        """NaN passes an ``<= 0`` test, and inf a ``> 0`` one; both are
        refused, as is a non-finite x0 in a scenario that ignores it."""
        fields = dict(R=20.0, L_T=0.2, L_R=5.0, frequency=F,
                      scenario=FULL_VISIBILITY, x0=None)
        with pytest.raises(ValueError, match="finite"):
            ScenarioConfig(**{**fields, field: value})

    def test_wavelength_that_overflows(self):
        """3e8 / 1e-300 Hz overflows to an infinite wavelength and C = 0:
        refused with ``make_link``'s message, not a degenerate curve."""
        with pytest.raises(OverflowError, match="^wavelength must be positive and finite$"):
            ScenarioConfig(R=20.0, L_T=0.2, L_R=5.0, frequency=1e-300,
                           scenario=FULL_VISIBILITY)


def density(c, mu):
    """The scenario's density of mu at one threshold, as a float."""
    return float(stats.pdf(c, mu))


def full_at_x0(c, mu, x0):
    """Full-visibility density of mu at a fixed axis distance x0, for
    0 < mu < 2C."""
    return float(stats._at_x0(np.array([mu]), x0, c.C, c.L_R / 2.0)[2][0])


class TestPlacementDensity:
    """The disk-placement law 4 sqrt(R^2 - x0^2) / (pi R^2) through its
    closed-form CDF."""

    def test_center_value(self):
        # slope 4 / (pi R) at x0 = 0, which is 1 / (5 pi) with R = 20
        h = 1e-6
        slope = (stats._disk_cdf(h, 20.0) - stats._disk_cdf(-h, 20.0)) / (2 * h)
        assert slope == pytest.approx(1.0 / (5.0 * np.pi), rel=1e-8)

    def test_edge_zero(self):
        # the density vanishes at the rim: the CDF's last step is flat
        h = 1e-6
        assert (1.0 - stats._disk_cdf(20.0 - h, 20.0)) / h < 1e-4

    def test_normalized(self):
        assert stats._disk_cdf(0.0, 20.0) == 0.0
        assert stats._disk_cdf(20.0, 20.0) == pytest.approx(1.0, abs=1e-15)


class TestPartialBranchDensity:
    def test_endpoint_slope_density_normalized(self):
        # the varying endpoint slope rho has density C pdf(C (1 + rho));
        # substitute rho = sin(t) to absorb the arcsine endpoint
        # singularities exactly
        c = cfg(scenario=PARTIAL_R_PLUS)
        val = integrate(
            lambda t: c.C * density(c, c.C * (1.0 + np.sin(t))) * np.cos(t),
            -np.pi / 2, np.pi / 2, rel_tol=1e-6).value
        assert val == pytest.approx(1.0, abs=1e-3)

    def test_plus_minus_branches_identical(self):
        mu = [0.5, 3.0, 10.0, 25.0]
        assert (stats.pdf(cfg(scenario=PARTIAL_R_PLUS), mu).tolist()
                == stats.pdf(cfg(scenario=PARTIAL_R_MINUS), mu).tolist())

    def test_outside_support(self):
        c = cfg(scenario=PARTIAL_R_PLUS)
        assert stats.pdf(c, [-1.0, 41.0]).tolist() == [0.0, 0.0]


class TestFullVisibilityDensity:
    def test_conditional_support(self):
        c = cfg()
        x0 = 10.0
        a = np.arctan(5.0 / 20.0)
        lo = 2 * 20.0 * np.sin(a) ** 2
        hi = 2 * 20.0 * np.sin(a)
        assert full_at_x0(c, lo - 1e-9, x0) == 0.0
        assert full_at_x0(c, hi + 1e-9, x0) == 0.0
        assert full_at_x0(c, (lo + hi) / 2, x0) > 0.0

    def test_conditional_normalized(self):
        c = cfg()
        x0 = 10.0
        val = integrate(lambda m: full_at_x0(c, m, x0),
                        0.0, 2 * c.C, rel_tol=1e-6).value
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_marginal_normalized(self):
        c = cfg()
        val = integrate(lambda m: density(c, m), 1e-9, 2 * c.C,
                        rel_tol=1e-6).value
        assert val == pytest.approx(1.0, abs=1e-3)


class TestConditionalMixture:
    def test_normalized(self):
        c = cfg(scenario=CONDITIONAL_ON_X0, x0=10.0)
        val = integrate(lambda m: density(c, m), 1e-9,
                        2 * c.C, rel_tol=1e-6).value
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_weights_sum_to_visible_mass(self):
        v_partial, v_full, v_total = stats._mixture_weights(10.0, 5.0)
        assert 2 * v_partial + v_full == pytest.approx(v_total)
        assert v_total == pytest.approx(pov(10.0, 5.0))


class TestVisibilityProbability:
    def test_reference_value(self):
        assert pov(10.0, 5.0) == pytest.approx(
            0.5 + np.arctan(0.25) / np.pi)
        assert pov(10.0, 5.0) == pytest.approx(0.57798, abs=1e-5)

    def test_monotone_in_distance(self):
        vals = [pov(x, 5.0) for x in (1.0, 5.0, 20.0, 100.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_limits(self):
        assert pov(1e9, 5.0) == pytest.approx(0.5, abs=1e-6)
        assert pov(1e-9, 5.0) == pytest.approx(1.0, abs=1e-6)

    def test_invalid(self):
        with pytest.raises(ValueError):
            pov(0.0, 5.0)

    def test_arrays_match_scalar_calls(self):
        """pov of arrays is the scalar pov of each pair, bit for bit; a
        scalar call returns a float."""
        rng = np.random.default_rng(2)
        x0, L_R = rng.uniform(0.01, 200.0, 1000), rng.uniform(0.1, 20.0, 1000)
        assert pov(x0, L_R).tolist() == [pov(x, L) for x, L in zip(x0, L_R)]
        assert type(pov(10.0, 5.0)) is float

    def test_against_mc(self):
        frac = visibility_fraction(10.0, 5.0, 200_000, seed=1)
        assert frac == pytest.approx(pov(10.0, 5.0), abs=5e-3)

    @pytest.mark.parametrize("x0", [-5.0, 0.0, -0.0, np.inf, np.nan,
                                    np.array([1.0, -1.0])])
    def test_non_positive_x0_refused(self, x0):
        """A placement behind, on or infinitely far from the transmitter
        is refused, not turned into a probability."""
        with pytest.raises(ValueError, match="x0 must be positive"):
            pov(x0, 2.0)

    @pytest.mark.parametrize("L_R", [-1.0, 0.0, -0.0, np.inf, np.nan,
                                     np.array([1.0, -1.0])])
    def test_bad_L_R_refused(self, L_R):
        """A receive length that is not positive and finite is refused, not
        turned into a probability."""
        with pytest.raises(ValueError, match="L_R must be positive and finite"):
            pov(10.0, L_R)


def _where_branches(x0, theta_T, L_R, C):
    """Reference branch evaluator: every formula over every draw, one
    result kept per draw through np.where, in the order r-plus, full,
    r-minus."""
    x0 = np.asarray(x0, dtype=float)
    theta_T = np.asarray(theta_T, dtype=float)
    a = np.arctan(L_R / (2.0 * x0))
    b_plus = (theta_T > -a - np.pi / 2.0) & (theta_T < a - np.pi / 2.0)
    b_full = (theta_T >= a - np.pi / 2.0) & (theta_T <= np.pi / 2.0 - a)
    b_minus = (theta_T > np.pi / 2.0 - a) & (theta_T < np.pi / 2.0 + a)
    mu = np.zeros(np.broadcast(x0, theta_T).shape)
    mu = np.where(b_plus, C * (1.0 + np.sin(theta_T + a)), mu)
    mu = np.where(b_full, 2.0 * C * np.sin(a) * np.cos(theta_T), mu)
    mu = np.where(b_minus, C * (1.0 + np.sin(a - theta_T)), mu)
    return mu, b_plus, b_full, b_minus


def _disk_x0(u, v, R):
    """Axis distances of disk placements from radius uniforms u and angle
    uniforms v, out of place: |R sqrt(u) cos(2 pi v)|, floored at 1e-12 R."""
    return np.maximum(np.abs(R * np.sqrt(u) * np.cos(2.0 * np.pi * v)), 1e-12 * R)


def _reference_draws(c, n, seed):
    """``monte_carlo``'s draws made out of place, the conditional x0
    filled into an array of the draws' length, through
    ``_where_branches``."""
    rng = sample_stream(seed, 0)
    if c.scenario == CONDITIONAL_ON_X0:
        x0 = np.full(n, float(c.x0))
    else:
        x0 = _disk_x0(rng.random(n), rng.random(n), c.R)
    a = np.arctan(c.L_R / (2.0 * x0))
    lo, hi = {PARTIAL_R_PLUS: (-a - np.pi / 2.0, a - np.pi / 2.0),
              PARTIAL_R_MINUS: (np.pi / 2.0 - a, np.pi / 2.0 + a),
              FULL_VISIBILITY: (a - np.pi / 2.0, np.pi / 2.0 - a),
              CONDITIONAL_ON_X0: (-a - np.pi / 2.0, np.pi / 2.0 + a)}[c.scenario]
    theta_T = lo + rng.random(n) * (hi - lo)
    return _where_branches(x0, theta_T, c.L_R, c.C)[0]


class TestBranchEvaluator:
    def test_intervals_partition(self):
        a = np.arctan(5.0 / 20.0)
        lo_p, hi_p = branch_interval(10.0, 5.0, PARTIAL_R_PLUS)
        lo_f, hi_f = branch_interval(10.0, 5.0, FULL_VISIBILITY)
        lo_m, hi_m = branch_interval(10.0, 5.0, PARTIAL_R_MINUS)
        assert hi_p == pytest.approx(lo_f) and hi_f == pytest.approx(lo_m)
        assert lo_p == pytest.approx(-a - np.pi / 2)
        assert hi_m == pytest.approx(np.pi / 2 + a)

    def test_matches_per_link_engine(self):
        """Dual route: vectorized branch formulas against the exact
        visibility + mode-count engine, link by link."""
        rng = np.random.default_rng(11)
        C = 20.0
        checked = 0
        while checked < 300:
            x0 = rng.uniform(0.5, 30.0)
            thT = rng.uniform(-np.pi, np.pi)
            mu_vec, b_p, b_f, b_m = excess_dof_branches(x0, thT, 5.0, C)
            lk = make_link(0.2, 5.0, thT, np.pi, x0, 0.0, frequency=F)
            res = dof(lk)
            if res.m_int is None:
                continue  # touching: branch formulas do not apply
            mu_engine = 0.0 if res.m_real == 0.0 else res.m_real - 1.0
            if not (b_p or b_f or b_m):
                assert mu_vec == 0.0
            assert float(mu_vec) == pytest.approx(mu_engine, abs=1e-9)
            checked += 1

    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("L_T, L_R, R", [(0.2, 2.0, 20.0), (0.2, 5.0, 20.0),
                                             (1.0, 3.0, 5.0)])
    def test_monte_carlo_draws_match_array_core(self, seed, L_T, L_R, R):
        """Monte Carlo's own draws through the general link engine
        (``dof_arrays``).  The two agree on status and count wherever the
        segments are apart; where the transmit segment reaches the receive
        line, x0 <= (L_T / 2) |sin(theta_T)|, the segments intersect and
        the engine says touching while the branch formulas still give a
        mu.  The conditional scenario sits at x0 = L_T / 4, where most
        draws intersect."""
        n = 50_000
        for scenario in (PARTIAL_R_PLUS, PARTIAL_R_MINUS, FULL_VISIBILITY,
                         CONDITIONAL_ON_X0):
            c = cfg(R=R, L_T=L_T, L_R=L_R, scenario=scenario,
                    x0=L_T / 4 if scenario == CONDITIONAL_ON_X0 else None)
            # monte_carlo's draws, replayed
            rng = sample_stream(seed, 0)
            x0 = np.full(n, c.x0) if c.x0 else _disk_x0(rng.random(n), rng.random(n), R)
            lo, hi = branch_interval(x0, L_R, scenario)
            thT = lo + rng.random(n) * (hi - lo)
            mu, b_p, b_f, b_m = excess_dof_branches(x0, thT, L_R, c.C)
            assert np.array_equal(mu, monte_carlo(c, n, seed=seed))
            res = dof_arrays(link_arrays(L_T, L_R, thT, np.pi, x0, 0.0, F))
            vis = res.visibility
            # the visible receive endpoint of a partial-rx link, else the status
            got = np.array([e or s for s, e in zip(vis.status.tolist(),
                                                   vis.visible_endpoint.tolist())])
            want = np.select([b_f, b_p, b_m], ["full", "R+", "R-"], "none")

            reach = 0.5 * L_T * np.abs(np.sin(thT))
            keep = np.abs(x0 - reach) > 1e-12 * (x0 + reach)  # off the edge
            apart, meets = keep & (x0 > reach), keep & (x0 <= reach)
            assert meets.any() == (scenario != FULL_VISIBILITY), scenario
            assert np.array_equal(got[apart], want[apart]), scenario
            err = np.abs(res.m_real - 1.0 - mu)[apart] / np.maximum(1.0, mu[apart])
            assert err.max() <= 1e-12, scenario
            # so every disagreement is an intersecting placement
            assert np.all(got[meets] == TOUCHING), scenario

    def test_vectorized_shapes(self):
        mu, b_p, b_f, b_m = excess_dof_branches(
            np.array([5.0, 10.0]), np.array([0.0, 1.5]), 5.0, 20.0)
        assert mu.shape == (2,)
        assert b_f[0] and b_m[1]

    def test_call_forms(self):
        """Scalars give a 0-d mu and numpy-bool masks; a scalar x0 with
        an array theta_T, an array x0 with a scalar theta_T and two arrays
        all match the reference, with writeable masks of their own."""
        mu, *masks = excess_dof_branches(10.0, 0.3, 5.0, 20.0)
        assert isinstance(mu, np.ndarray) and mu.shape == ()
        assert all(isinstance(m, np.bool_) for m in masks)
        assert mu == _where_branches(10.0, 0.3, 5.0, 20.0)[0]
        theta = np.linspace(-np.pi, np.pi, 101)
        x0 = np.geomspace(0.01, 100.0, 101)
        for args in ((10.0, theta), (x0, 0.3), (x0, theta),
                     (x0[:, None], theta[None, :])):
            got = excess_dof_branches(*args, 5.0, 20.0)
            for g, w in zip(got, _where_branches(*args, 5.0, 20.0)):
                assert g.shape == w.shape and np.array_equal(g, w)
            for m in got[1:]:
                assert m.dtype == bool and m.flags.writeable and m.flags.owndata

    @pytest.mark.parametrize("x0", [20.0 * 1e-12, 0.3, 10.0, 20.0, 1e6])
    def test_edges_match_reference(self, x0):
        """theta_T exactly on each of the six branch edges and one ulp
        either side: the same branch and the same mu as the reference,
        with x0 a scalar and an array."""
        L_R, C = 5.0, 20.0
        a = np.arctan(L_R / (2.0 * x0))
        edges = np.array([-a - np.pi / 2.0, a - np.pi / 2.0,     # r-plus
                          a - np.pi / 2.0, np.pi / 2.0 - a,      # full
                          np.pi / 2.0 - a, np.pi / 2.0 + a])     # r-minus
        theta = np.concatenate([edges, np.nextafter(edges, -np.inf),
                                np.nextafter(edges, np.inf)])
        want = _where_branches(x0, theta, L_R, C)
        for x in (x0, np.full(theta.shape, x0)):
            got = excess_dof_branches(x, theta, L_R, C)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), x0
        # every edge is exact: on it, each draw lies in one branch or none
        assert np.all(want[1].astype(int) + want[2] + want[3] <= 1)
        # the sorted path: the same mu on the ascending theta_T, whose
        # pieces cover it in order
        theta = np.sort(theta)
        mu, pieces = stats._sorted_excess_dof(a, theta, C, np.empty(theta.size))
        assert np.array_equal(mu, _where_branches(x0, theta, L_R, C)[0]), x0
        ends = sorted((s.start, s.stop) for s, _ in pieces)
        assert [e[0] for e in ends] == [0] + [e[1] for e in ends[:-1]], ends
        assert ends[-1][1] == theta.size, ends


_BRANCH_ORDER = (PARTIAL_R_PLUS, FULL_VISIBILITY, PARTIAL_R_MINUS)


class TestBranchMu:
    """``_branch_mu``, the one place each branch's formula is written."""

    @pytest.mark.parametrize("branch", _BRANCH_ORDER)
    @pytest.mark.parametrize("x0", [0.3, 10.0, None])   # None: an array of x0
    def test_matches_reference_inside_the_branch(self, branch, x0):
        """Bit for bit ``_where_branches`` on draws strictly inside the
        branch, with a scalar and with an array half angle: written into a
        slice of a larger buffer, whose other entries and theta_T stay as
        they were, and written over theta_T itself."""
        rng = np.random.default_rng(5)
        n, L_R, C = 10_000, 5.0, 20.0
        x = rng.uniform(0.01, 100.0, n) if x0 is None else x0
        a = np.arctan(L_R / (2.0 * x))
        lo, hi = {PARTIAL_R_PLUS: (-a - np.pi / 2.0, a - np.pi / 2.0),
                  FULL_VISIBILITY: (a - np.pi / 2.0, np.pi / 2.0 - a),
                  PARTIAL_R_MINUS: (np.pi / 2.0 - a, np.pi / 2.0 + a)}[branch]
        theta = lo + rng.uniform(0.01, 0.99, n) * (hi - lo)
        want = _where_branches(x, theta, L_R, C)
        assert want[1 + _BRANCH_ORDER.index(branch)].all()
        kept, buf = theta.copy(), np.full(n + 10, np.nan)
        stats._branch_mu(branch, theta, np.copy(a), C, buf[3:3 + n])
        assert np.array_equal(buf[3:3 + n], want[0])
        assert np.isnan(buf[:3]).all() and np.isnan(buf[3 + n:]).all()
        assert np.array_equal(theta, kept)
        assert stats._branch_mu(branch, theta, np.copy(a), C, theta) is theta
        assert np.array_equal(theta, want[0])

    @pytest.mark.parametrize("x0", [20.0 * 1e-12, 0.3, 10.0, 20.0, 1e6])
    def test_edges(self, x0):
        """A disk-drawn chunk takes its scenario's formula also on a draw
        that rounds onto a branch edge or past it.  On each shared edge and
        one ulp either side, the formulas that meet there agree with each
        other and with 2C sin^2(a) to a few ulps of C; on the outer edges,
        -a - pi/2 (r-plus) and pi/2 + a (r-minus), the formula is 0 up to
        eps C."""
        L_R, C = 5.0, 20.0
        a = stats._half_angle(x0, L_R)
        tol = 4 * np.spacing(C)

        def mu(branch, edge):
            e = stats._edge(a, *edge)
            theta = np.array([np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf)])
            return stats._branch_mu(branch, theta, np.full(3, a), C, np.empty(3))

        plus, full, minus = (stats._BRANCHES[b] for b in _BRANCH_ORDER)
        assert plus[1] == full[0] and full[1] == minus[0]   # the shared edges
        for (below, above), edge in (((PARTIAL_R_PLUS, FULL_VISIBILITY), plus[1]),
                                     ((FULL_VISIBILITY, PARTIAL_R_MINUS), minus[0])):
            low, high = mu(below, edge), mu(above, edge)
            assert np.max(np.abs(low - high)) <= tol, (x0, low, high)
            assert np.max(np.abs(low - 2.0 * C * np.sin(a) ** 2)) <= tol, (x0, low)
        for branch, edge in ((PARTIAL_R_PLUS, plus[0]), (PARTIAL_R_MINUS, minus[1])):
            got = mu(branch, edge)
            assert np.max(np.abs(got)) <= np.finfo(float).eps * C, (x0, branch, got)


class TestCcdfCurves:
    def test_starts_at_one_and_decreases(self):
        for scenario, x0 in ((FULL_VISIBILITY, None),
                             (PARTIAL_R_PLUS, None),
                             (CONDITIONAL_ON_X0, 10.0)):
            c = cfg(scenario=scenario, x0=x0)
            grid = np.linspace(0.0, 2 * c.C, 81)
            curve = ccdf(c, grid)
            assert curve.ccdf[0] == pytest.approx(1.0, abs=1e-9)
            assert np.all(np.diff(curve.ccdf) <= 1e-9)
            assert curve.ccdf[-1] == pytest.approx(0.0, abs=1e-9)

    def test_full_visibility_reference_points(self):
        # frozen values cross-checked by Monte Carlo; larger deployment
        # disks push mass toward lower mode counts
        vals = {5.0: 0.8161, 10.0: 0.4442, 20.0: 0.2261}
        for R, want in vals.items():
            curve = ccdf(cfg(R=R), np.array([20.0]))
            assert curve.ccdf[0] == pytest.approx(want, abs=0.001), R
        # shorter receive array (the statistical-study default length)
        curve = ccdf(cfg(R=5.0, L_R=2.0), np.array([20.0]))
        assert 0.30 < curve.ccdf[0] < 0.40
        assert curve.ccdf[0] == pytest.approx(0.3585, abs=0.001)

    def test_matches_monte_carlo(self):
        for scenario, x0 in ((FULL_VISIBILITY, None),
                             (PARTIAL_R_PLUS, None),
                             (PARTIAL_R_MINUS, None),
                             (CONDITIONAL_ON_X0, 10.0)):
            c = cfg(scenario=scenario, x0=x0)
            grid = np.linspace(0.0, 2 * c.C, 101)
            curve = ccdf(c, grid, mc_samples=200_000, seed=3)
            sup = np.max(np.abs(curve.ccdf - curve.mc_ccdf))
            assert sup < 0.01, scenario

    def test_grid_validation(self):
        c = cfg()
        with pytest.raises(ValueError):
            ccdf(c, np.array([]))
        with pytest.raises(ValueError):
            ccdf(c, np.array([1.0, 0.5]))

    def test_grid_must_be_one_dimensional(self, monkeypatch):
        """A 0-d grid and a 2-D grid, also one whose rows each ascend, are
        refused by name, with and without draws, before any curve or draw
        is made."""
        def work(*args):
            raise AssertionError("work before the grid was checked")
        monkeypatch.setattr(stats, "_curve", work)
        monkeypatch.setattr(stats, "_chunked", work)
        c = cfg()
        for grid in (1.0, [[2.0, 3.0], [0.0, 1.0]]):
            for mc in (0, 10_000):
                with pytest.raises(ValueError, match="threshold grid must be one-dimensional"):
                    ccdf(c, grid, mc)

    def test_nan_threshold_refused(self):
        """A NaN threshold is refused by name, also where it hides a
        descent from the ascending check; +-inf are valid thresholds."""
        c = cfg()
        for grid, mc in (([0.0, np.nan, 1.0], 10_000), ([0.0, 2.0, np.nan, 1.0], 0)):
            with pytest.raises(ValueError, match="threshold grid must not contain NaN"):
                ccdf(c, grid, mc)
        with pytest.raises(ValueError, match="threshold grid must not contain NaN"):
            stats.pdf(c, np.nan)
        curve = ccdf(c, [-np.inf, np.inf], 10_000)
        assert curve.ccdf.tolist() == curve.mc_ccdf.tolist() == [1.0, 0.0]


class TestMonteCarlo:
    def test_deterministic(self):
        c = cfg()
        a = monte_carlo(c, 20_000, seed=5)
        b = monte_carlo(c, 20_000, seed=5)
        assert np.array_equal(a, b)

    def test_seed_changes_draws(self):
        c = cfg()
        a = monte_carlo(c, 20_000, seed=5)
        b = monte_carlo(c, 20_000, seed=6)
        assert not np.array_equal(a, b)

    def test_support(self):
        c = cfg()
        mu = monte_carlo(c, 50_000, seed=2)
        assert mu.min() >= 0.0
        assert mu.max() <= 2 * c.C + 1e-12

    # (R, L_T, L_R, conditional x0): x0 at the 1e-12 R floor, x0 = R,
    # L_R >> x0 and L_R << x0, and x0 spread over (0, R] by seed (None)
    @pytest.mark.parametrize("R, L_T, L_R, x0", [
        (20.0, 0.2, 5.0, None), (5.0, 1.0, 3.0, None),
        (20.0, 0.2, 5.0, 20.0), (20.0, 0.5, 2.0, 20.0 * 1e-12),
        (0.01, 0.2, 5.0, 0.001), (1e5, 0.5, 0.01, 5e4)])
    def test_draws_match_reference(self, R, L_T, L_R, x0):
        """Bitwise the draws of the whole-array evaluator, in every
        scenario, on 50 seeds."""
        for seed in range(50):
            x = R * (seed + 1) / 50.0 if x0 is None else x0
            for scenario in (PARTIAL_R_PLUS, PARTIAL_R_MINUS, FULL_VISIBILITY,
                             CONDITIONAL_ON_X0):
                c = cfg(R=R, L_T=L_T, L_R=L_R, scenario=scenario,
                        x0=x if scenario == CONDITIONAL_ON_X0 else None)
                assert np.array_equal(monte_carlo(c, 10_000, seed=seed),
                                      _reference_draws(c, 10_000, seed)), (scenario, seed)

    def test_minimum_sample_count(self):
        with pytest.raises(ValueError, match="need at least 1e4 samples"):
            monte_carlo(cfg(), 100)
        with pytest.raises(ValueError, match="need at least 1e4 samples"):
            ccdf(cfg(), np.linspace(0.0, 1.0, 5), mc_samples=100)

    def test_empirical_ccdf_basics(self):
        vals = empirical_ccdf([1.0, 2.0, 3.0, 4.0], [0.0, 2.5, 10.0])
        assert vals == pytest.approx([1.0, 0.5, 0.0])

    def test_empirical_ccdf_refuses_an_empty_sample(self):
        """An empty sample is refused by name, not turned into NaN."""
        with pytest.raises(ValueError, match="samples must not be empty"):
            empirical_ccdf([], [0.0, 1.0])


def _scenarios():
    """One config of each scenario, the conditional one at x0 = 10 m."""
    return [cfg(scenario=s, x0=10.0 if s == CONDITIONAL_ON_X0 else None)
            for s in (PARTIAL_R_PLUS, PARTIAL_R_MINUS, FULL_VISIBILITY,
                      CONDITIONAL_ON_X0)]


def _traced_peak(f):
    """The peak of the memory traced while ``f()`` runs, in bytes."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkedDraws:
    """``ccdf`` draws fixed chunks, each from its own positions of the one
    stream, on at most one thread per CPU, and counts each chunk on the
    thread that drew it; ``monte_carlo`` returns the same draws in stream
    order."""

    def _cpus(self, monkeypatch, cpus):
        """Patch the host to ``cpus`` CPUs; returns the list that records,
        for each Monte Carlo call, the set of threads that drew its
        chunks."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        calls, pool = [], stats._pool

        class Recorded:
            def __init__(self, width):
                self.pool = pool(width)

            def map(self, chunk, starts):
                threads = set()
                calls.append(threads)

                def traced(start):
                    threads.add(threading.get_ident())
                    return chunk(start)
                return self.pool.map(traced, starts)
        monkeypatch.setattr(stats, "_pool", Recorded)
        return calls

    @staticmethod
    def _threads(calls, most):
        """Whether there was one recorded Monte Carlo call and at least
        one and at most ``most`` threads drew its chunks."""
        return len(calls) == 1 and 1 <= len(calls[0]) <= most

    @pytest.mark.parametrize("seed", [0, 7])
    def test_chunk_streams_reproduce_the_serial_stream(self, seed):
        n, k = 200_003, 1000
        serial = sample_stream(seed, 0).random(3 * n)
        state = sample_stream(seed, 0).bit_generator.state["state"]
        for start in (0, 5, 4096, n - 7, n, n + 1, 2 * n + 3):
            assert np.array_equal(stats._uniforms(state, start, np.empty(k)),
                                  serial[start:start + k]), start

    @pytest.mark.parametrize("n", [10_000, 2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1,
                                   200_003])
    def test_one_and_four_cpus_agree(self, monkeypatch, n):
        """Up to four threads, switching often, add up the chunks' counts
        of one ``ccdf``: a chunk counted twice or not at all would differ
        from the one-thread bytes, and both are those of the whole-array
        reference's draws, which ``monte_carlo`` returns."""
        chunks = -(-n // stats._CHUNK)
        interval = sys.getswitchinterval()
        for c in _scenarios():
            reference = _reference_draws(c, n, 3)
            assert np.array_equal(monte_carlo(c, n, seed=3), reference), c.scenario
            grid = np.linspace(0.0, 2.0 * c.C, 201)
            counted = {}
            for cpus in (1, 4):
                drawn = self._cpus(monkeypatch, cpus)
                sys.setswitchinterval(1e-6)
                try:
                    counted[cpus] = ccdf(c, grid, n, seed=3).mc_ccdf.tobytes()
                finally:
                    sys.setswitchinterval(interval)
                # no more threads than CPUs or than chunks
                assert self._threads(drawn, min(cpus, chunks)), (c.scenario, cpus, drawn)
            assert counted[1] == counted[4], c.scenario
            assert counted[1] == empirical_ccdf(reference, grid).tobytes(), c.scenario

    @pytest.mark.parametrize("n", [10_000, 2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1,
                                   200_003])
    def test_ccdf_counts_as_one_sort_of_the_draws(self, monkeypatch, n):
        """The per-chunk counts give the bytes of the whole-array CCDF, on
        one CPU and on four, at thresholds that tie: below 0, 0 (the
        value of a draw outside every branch), 2C, one past 2C, and some
        of the draws themselves."""
        for c in _scenarios():
            draws = monte_carlo(c, n, seed=3)
            grid = np.sort(np.concatenate((
                [-1.0, 0.0, 2.0 * c.C, np.nextafter(2.0 * c.C, np.inf)],
                draws[::997], np.linspace(0.0, 2.0 * c.C, 51))))
            expected = empirical_ccdf(draws, grid).tobytes()
            for cpus in (1, 4):
                self._cpus(monkeypatch, cpus)
                assert ccdf(c, grid, n, seed=3).mc_ccdf.tobytes() == expected, (
                    c.scenario, cpus)

    @pytest.mark.parametrize("n", [10_000, 2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1,
                                   200_003])
    def test_sorted_chunks_count_as_one_sort_of_the_draws(self, monkeypatch, n):
        """Random fixed-x0 families of 1-4 curves, x0 from 1e-9 R to R,
        counted on sorted chunks by up to four threads switching often:
        every curve is the bytes of ``empirical_ccdf`` of its
        ``monte_carlo`` draws, at thresholds that tie draws, 0, 2C and the
        next float above 2C."""
        rng = np.random.default_rng(n)
        interval = sys.getswitchinterval()
        for family in range(3):
            R, curves = float(rng.choice([5.0, 20.0, 200.0])), int(rng.integers(1, 5))
            x0 = R * 10.0 ** rng.uniform(-9.0, 0.0, curves)
            if family == 0:
                x0[:2] = 1e-9 * R, R
            cfgs = [cfg(R=R, L_R=float(rng.choice([0.5, 2.0, 5.0])), x0=float(x),
                        scenario=CONDITIONAL_ON_X0) for x in x0]
            seed, C = int(rng.integers(1000)), cfgs[0].C
            draws = [monte_carlo(c, n, seed) for c in cfgs]
            grid = np.sort(np.concatenate(
                [[-1.0, 0.0, 2.0 * C, np.nextafter(2.0 * C, np.inf)],
                 np.linspace(0.0, 2.0 * C, 51)] + [d[::997] for d in draws]))
            want = [empirical_ccdf(d, grid).tobytes() for d in draws]
            for cpus in (1, 4):
                self._cpus(monkeypatch, cpus)
                sys.setswitchinterval(1e-6)
                try:
                    got = stats._ccdfs(cfgs, grid, n, seed)
                finally:
                    sys.setswitchinterval(interval)
                assert [g.mc_ccdf.tobytes() for g in got] == want, (cfgs, cpus)

    def test_piece_out_of_order_is_sorted(self):
        """A rising or falling piece with one swapped pair fails the order
        check and is sorted in place, and a piece of no known order is
        sorted; each counts as one sort of its values.  A piece in order is
        counted where it lies."""
        grid = np.array([-1.0, 0.0, 2.5, 3.0, 4.0, 9.0, 10.0])
        values = np.arange(10.0)
        want = np.searchsorted(values, grid, "right")
        order = np.empty(values.size, bool)
        for falling in (False, True):
            piece = values[::-1].copy() if falling else values.copy()
            kept = piece.copy()
            assert np.array_equal(stats._piece_counts(piece, falling, grid, order), want)
            assert np.array_equal(piece, kept), falling
            piece[[3, 4]] = piece[[4, 3]]
            assert np.array_equal(stats._piece_counts(piece, falling, grid, order), want)
            assert np.array_equal(piece, values), falling
        piece = np.random.default_rng(0).permutation(values)
        assert np.array_equal(stats._piece_counts(piece, None, grid, order), want)
        assert np.array_equal(piece, values)

    def test_ccdf_holds_no_draw_array(self, monkeypatch):
        """On two CPUs the traced peak of a 10^6-draw ``ccdf`` stays below
        8e6 bytes, the size of those draws in one array."""
        self._cpus(monkeypatch, 2)
        for c in _scenarios():
            grid = np.linspace(0.0, 2.0 * c.C, 201)
            peak = _traced_peak(lambda: ccdf(c, grid, 10 ** 6))
            assert peak < 8 * 10 ** 6, (c.scenario, peak)

    def test_ccdf_holds_counts_of_no_more_chunks_than_threads(self, monkeypatch):
        """On two CPUs and a 2e4-point grid, 123 chunks peak within 4 MB of
        31: the 92 more chunks' counts (160 kB each, 14.7 MB) are added up
        as they are made, not held until the last chunk is drawn."""
        self._cpus(monkeypatch, 2)
        c = cfg(scenario=CONDITIONAL_ON_X0, x0=10.0)
        grid = np.linspace(0.0, 2.0 * c.C, 20_000)
        few, many = (_traced_peak(lambda: ccdf(c, grid, n)) for n in (10 ** 6, 4 * 10 ** 6))
        assert many < few + 4 * 10 ** 6, (few, many)

    def test_counts_do_not_grow_with_the_chunks(self, monkeypatch):
        """On two CPUs at 10^5 thresholds, a warmed ``_chunked`` has a traced
        peak within 10% alike at 10^6 draws (31 chunks) and at 4e6 (123
        chunks): the runner holds one array of counts, whatever the number
        of chunks."""
        self._cpus(monkeypatch, 2)
        c = cfg()
        grid = np.linspace(0.0, 2.0 * c.C, 10 ** 5)
        stats._chunked([c], 10 ** 6, 0, grid)   # each pool thread makes its buffers
        few, many = (_traced_peak(lambda: stats._chunked([c], n, 0, grid))
                     for n in (10 ** 6, 4 * 10 ** 6))
        assert abs(many - few) <= 0.1 * few, (few, many)

    def test_stream_opened_once_in_the_calling_thread(self, monkeypatch):
        """The pool calls no traced function: ``sample_stream`` runs once
        per ``monte_carlo`` or ``ccdf`` call, in the calling thread."""
        self._cpus(monkeypatch, 4)
        calls, real = [], stats.sample_stream
        monkeypatch.setattr(stats, "sample_stream", lambda *a, **k: (
            calls.append(threading.current_thread()) or real(*a, **k)))
        for i, c in enumerate(_scenarios(), start=1):
            monte_carlo(c, 200_003, seed=i)
            ccdf(c, np.linspace(0.0, 2.0 * c.C, 11), 200_003, seed=i)
            assert calls == [threading.main_thread()] * (2 * i), c.scenario

    # fig9a's radii (x0 drawn from the disk) and fig10's cases (x0 fixed)
    _FAMILIES = {
        "disk": [cfg(R=R, scenario=s) for R, s in (
            (5.0, PARTIAL_R_PLUS), (10.0, FULL_VISIBILITY), (20.0, PARTIAL_R_MINUS),
            (200.0, PARTIAL_R_PLUS))],
        "fixed": [cfg(R=20.0, L_R=L_R, x0=x0, scenario=CONDITIONAL_ON_X0)
                  for x0 in (5.0, 10.0) for L_R in (2.0, 5.0)]}

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    @pytest.mark.parametrize("cpus", [1, 4])
    def test_family_curves_are_their_own_ccdfs(self, monkeypatch, family, cpus):
        """Every curve of a family, whose chunks draw the uniforms once
        for all its curves, is bitwise its own ``ccdf``, with threads
        switching often: at most one thread per CPU and one
        ``sample_stream`` call, in the calling thread, per family call."""
        cfgs, n = self._FAMILIES[family], 200_003
        grid = np.linspace(0.0, 2.0 * cfgs[0].C, 201)
        alone = [ccdf(c, grid, n, seed=5) for c in cfgs]
        drawn = self._cpus(monkeypatch, cpus)
        calls, real = [], stats.sample_stream
        monkeypatch.setattr(stats, "sample_stream", lambda *a, **k: (
            calls.append(threading.current_thread()) or real(*a, **k)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            curves = stats._ccdfs(cfgs, grid, n, 5)
        finally:
            sys.setswitchinterval(interval)
        assert self._threads(drawn, cpus) and calls == [threading.main_thread()], drawn
        for c, got, want in zip(cfgs, curves, alone):
            for field in ("grid", "pdf", "ccdf", "mc_ccdf"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (
                    c, field)
            assert (got.quadrature_nodes, got.abs_error_estimate) == (
                want.quadrature_nodes, want.abs_error_estimate)

    def test_mixed_family_refused(self):
        """A family draws x0 from the disk for every curve or for none."""
        mixed = [self._FAMILIES["disk"][0], self._FAMILIES["fixed"][0]]
        with pytest.raises(ValueError, match="a family of curves"):
            stats._ccdfs(mixed, np.linspace(0.0, 1.0, 5), 10_000, 0)
        with pytest.raises(ValueError, match="a family of curves"):
            stats._chunked(mixed, 10_000, 0, np.linspace(0.0, 1.0, 5))

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_family_holds_no_draw_array(self, monkeypatch, family):
        """On two CPUs the traced peak of a four-curve family at 10^6 draws
        stays below 8e6 bytes, the size of one curve's draws in one array."""
        self._cpus(monkeypatch, 2)
        cfgs = self._FAMILIES[family]
        grid = np.linspace(0.0, 2.0 * cfgs[0].C, 201)
        peak = _traced_peak(lambda: stats._ccdfs(cfgs, grid, 10 ** 6, 0))
        assert peak < 8 * 10 ** 6, (family, peak)


class TestWorkers:
    """The Monte Carlo pool and its threads' chunk buffers last for the
    process, through a chunk's error; a forked child makes its own."""

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts the minor page faults that Linux reports")
    def test_no_page_faults_per_call(self):
        """In a fresh process, after two warm-up calls, 20 conditional-on-x0
        ``ccdf`` calls (201 thresholds, 2e5 draws) and 20 disk-drawn chunk
        runs of 2e5 draws each, counted at 201 thresholds, take under 100
        minor faults per call: the workers write every chunk into buffers
        they keep.  Allocating the chunk arrays anew took about 1,100 and
        2,450 per call."""
        entry = """if True:
            import json, resource
            import numpy as np
            from nfdof import statistics as stats

            def faults(call):
                call(); call()
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                for _ in range(20):
                    call()
                return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20

            def cfg(scenario, x0=None):
                return stats.ScenarioConfig(R=20.0, L_T=0.2, L_R=5.0, frequency=30e9,
                                            scenario=scenario, x0=x0)
            fixed, full = cfg(stats.CONDITIONAL_ON_X0, 10.0), cfg(stats.FULL_VISIBILITY)
            grid = np.linspace(0.0, 2.0 * fixed.C, 201)
            print(json.dumps({
                "ccdf": faults(lambda: stats.ccdf(fixed, grid, 200_000, seed=1)),
                "chunked": faults(lambda: stats._chunked([full], 200_000, 1, grid))}))
        """
        src = str(Path(stats.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", entry], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120,
                              check=True)
        per_call = json.loads(proc.stdout)
        assert all(v < 100 for v in per_call.values()), per_call

    def test_chunk_error_reaches_the_caller(self, monkeypatch):
        """An exception in the chunk at 2^15, raised as it draws its first
        uniforms, is raised in the calling thread with its type and
        message, and a ``ccdf`` after it gives the bytes of a fresh
        process."""
        c = cfg(scenario=FULL_VISIBILITY)
        grid = np.linspace(0.0, 2.0 * c.C, 201)
        real = stats._uniforms

        def uniforms(state, start, out):
            if start == 2 ** 15:
                raise ZeroDivisionError(f"chunk {start} on {threading.current_thread().name}")
            return real(state, start, out)
        monkeypatch.setattr(stats, "_uniforms", uniforms)
        with pytest.raises(ZeroDivisionError, match="^chunk 32768 on nfdof-monte-carlo"):
            stats._chunked([c], 200_003, 4, grid)
        monkeypatch.undo()
        got = ccdf(c, grid, 200_003, seed=4).mc_ccdf.tobytes().hex()
        entry = ("import numpy as np; from nfdof import statistics as stats; "
                 "c = stats.ScenarioConfig(R=20.0, L_T=0.2, L_R=5.0, frequency=30e9, "
                 "scenario=stats.FULL_VISIBILITY); "
                 "grid = np.linspace(0.0, 2.0 * c.C, 201); "
                 "print(stats.ccdf(c, grid, 200_003, seed=4).mc_ccdf.tobytes().hex())")
        src = str(Path(stats.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", entry], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120,
                              check=True)
        assert got == proc.stdout.strip()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_draws_as_its_parent(self):
        """After a ``ccdf`` here, whose workers a forked child does not
        inherit, the child's same ``ccdf`` finishes within 30 s and gives
        the same bytes."""
        c = cfg(scenario=FULL_VISIBILITY)
        grid = np.linspace(0.0, 2.0 * c.C, 201)
        want = ccdf(c, grid, 200_000, seed=2).mc_ccdf.tobytes()
        read, write = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12 on warns that forking a threaded process may deadlock
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:                       # the child: write the bytes, then leave
            code = 1
            try:
                os.close(read)
                os.write(write, ccdf(c, grid, 200_000, seed=2).mc_ccdf.tobytes())
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        got, deadline = b"", time.monotonic() + 30.0
        try:
            while select.select([read], [], [], max(0.0, deadline - time.monotonic()))[0]:
                part = os.read(read, 1 << 16)
                if not part:
                    break
                got += part
        finally:
            os.close(read)
            if os.waitpid(pid, os.WNOHANG) == (0, 0):   # still running after 30 s
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        assert got == want


def _mu_at_omega(c, x):
    """Threshold whose always-exceeded edge omega(mu) sits at x."""
    h = c.L_R / 2.0
    return 2.0 * c.C * h * h / (x * x + h * h)


def _mu_at_psi(c, x):
    """Threshold whose never-exceeded edge psi(mu) sits at x."""
    h = c.L_R / 2.0
    return 2.0 * c.C * h / np.hypot(x, h)


class TestDeconditioningCore:
    """The fixed-rule array core against per-point adaptive quadrature
    split at the support edges, and against 30-digit quadrature next to
    coincident edges."""

    def test_full_support_far_inside_disk(self):
        # the support [0, psi] is tiny next to R: an unsplit adaptive
        # integral over [0, R] returned 0 here
        c = cfg(R=100.0, L_R=1.0)
        got = ccdf(c, np.array([36.8])).ccdf[0]
        assert got == pytest.approx(oracle.ccdf(c, 36.8), abs=1e-9)
        assert got == pytest.approx(2.37270824192e-3, abs=1e-9)

    @pytest.mark.parametrize("scenario", [FULL_VISIBILITY, PARTIAL_R_PLUS])
    @pytest.mark.parametrize("R", [5.0, 20.0, 100.0, 200.0])
    @pytest.mark.parametrize("L_R", [1.0, 3.0, 5.0])
    def test_matches_adaptive_oracle(self, scenario, R, L_R):
        c = cfg(R=R, L_R=L_R, scenario=scenario)
        grid = np.linspace(0.0, 2 * c.C, 201)
        curve = ccdf(c, grid)
        want_cc = np.array([oracle.ccdf(c, m) for m in grid])
        want_pdf = np.array([oracle.pdf(c, m) for m in grid])
        assert np.max(np.abs(curve.ccdf - want_cc)) <= 1e-9
        assert curve.pdf == pytest.approx(want_pdf, rel=1e-8, abs=0.0)
        assert stats.pdf(c, grid) == pytest.approx(curve.pdf, rel=0.0, abs=0.0)

    def test_conditional_matches_closed_forms(self):
        c = cfg(scenario=CONDITIONAL_ON_X0, x0=10.0)
        grid = np.linspace(0.0, 2 * c.C, 201)
        curve = ccdf(c, grid)
        assert curve.ccdf == pytest.approx(
            [oracle.ccdf(c, m) for m in grid], abs=1e-12)
        assert curve.pdf == pytest.approx(
            [oracle.pdf(c, m) for m in grid], rel=1e-10)

    @pytest.mark.parametrize("scenario, edge", [
        (FULL_VISIBILITY, "omega"), (FULL_VISIBILITY, "psi"),
        (PARTIAL_R_PLUS, "omega")])
    @pytest.mark.parametrize("R, L_R", [(20.0, 5.0), (200.0, 1.0), (5.0, 3.0)])
    @pytest.mark.parametrize("share", [1 + 1e-6, 1 - 1e-6, 1 - 1e-15])
    def test_near_coincident_edges(self, scenario, edge, R, L_R, share):
        c = cfg(R=R, L_R=L_R, scenario=scenario)
        mu = (_mu_at_omega if edge == "omega" else _mu_at_psi)(c, R * share)
        curve = ccdf(c, np.array([mu]))
        want_pdf, want_cc = oracle.mp_pdf(c, mu), oracle.mp_ccdf(c, mu)
        assert curve.ccdf[0] == pytest.approx(want_cc, abs=1e-9)
        assert curve.abs_error_estimate <= 1e-9
        # below 1e-18 the full-visibility density at omega -> R scales as
        # (R - omega)^1.5, so one rounding of omega moves it by ~10%
        assert curve.pdf[0] == pytest.approx(want_pdf, rel=1e-6, abs=1e-18)

    @pytest.mark.parametrize("scenario", [FULL_VISIBILITY, PARTIAL_R_PLUS])
    def test_curve_at_the_grid_cap_in_bounded_memory(self, scenario):
        """A curve at the CLI's cap of 10^5 thresholds, without Monte
        Carlo, is evaluated in blocks: its traced peak stays below 64 MB
        (the whole grid at once peaked at about 730 MB)."""
        c = cfg(scenario=scenario)
        grid = np.linspace(0.0, 2 * c.C, 100_000)
        assert _traced_peak(lambda: ccdf(c, grid)) < 64e6

    @pytest.mark.parametrize("scenario", [FULL_VISIBILITY, PARTIAL_R_PLUS, PARTIAL_R_MINUS])
    def test_blocks_keep_the_whole_grid_bytes(self, scenario):
        """On a grid that is not a whole number of blocks, the curve is
        byte for byte the whole grid evaluated at once."""
        c = cfg(scenario=scenario)
        grid = np.linspace(0.0, 2 * c.C, 3 * stats._BLOCK + 7)
        inside = (grid > 0.0) & (grid < 2 * c.C)
        with np.errstate(all="ignore"):
            want = stats._deconditioned(grid[inside], c.R, c.C, c.L_R / 2.0,
                                        scenario, stats._NODES)
        for got, whole in zip(stats._curve(c, grid), want):
            assert got[inside].tobytes() == whole.tobytes()

    def test_disk_cdf_stable_at_rim(self):
        R = 20.0
        for share in (0.5, 1 - 1e-6, 1 - 1e-15, 1.0):
            x = R * share
            with mpmath.workdps(30):
                t = mpmath.mpf(x) / R
                want = 2 / mpmath.pi * (t * mpmath.sqrt(1 - t * t) + mpmath.asin(t))
            assert stats._disk_cdf(x, R) == pytest.approx(float(want), abs=1e-15)

    def test_quadrature_diagnostics(self):
        curve = ccdf(cfg(R=200.0, L_R=1.0), np.linspace(0.0, 40.0, 201))
        assert curve.quadrature_nodes == 48
        assert 0.0 <= curve.abs_error_estimate <= 1e-9
        closed = ccdf(cfg(scenario=CONDITIONAL_ON_X0, x0=10.0), [1.0, 2.0])
        assert (closed.quadrature_nodes, closed.abs_error_estimate) == (0, 0.0)

    def test_pdf_shapes(self):
        c = cfg()
        assert stats.pdf(c, 10.0).shape == ()
        assert stats.pdf(c, [0.0, 10.0, 40.0]).shape == (3,)
        assert float(stats.pdf(c, 10.0)) == stats.pdf(c, [10.0])[0]
        assert stats.pdf(c, [-1.0, 0.0, 40.0, 41.0]).tolist() == [0.0] * 4
