"""Array geometry and visibility classification."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nfdof import geometry
from nfdof.dof_core import dof_arrays
from nfdof.geometry import classify_visibility, make_link, point_on, wrap_angle

F = 30e9


def link(L_T=0.2, L_R=5.0, thT=0.0, thR=np.pi, x0=10.0, y0=0.0):
    return make_link(L_T, L_R, thT, thR, x0, y0, frequency=F)


def cut_end(rep):
    """Coordinate of the cut end of a partial report's effective segment,
    the end away from the visible endpoint, on the array it cuts."""
    if rep.status == geometry.PARTIAL_RX:
        return rep.zeta_c + (rep.l_R if rep.visible_endpoint == "R-" else -rep.l_R) / 2
    return rep.eta_c + (rep.l_T if rep.visible_endpoint == "T-" else -rep.l_T) / 2


def endpoints(length, rotation, center=(0.0, 0.0)):
    """(plus, minus) endpoints of an array as (x, y) pairs."""
    return (point_on(rotation, length / 2, center),
            point_on(rotation, -length / 2, center))


class TestArrayGeometry:
    def test_endpoints_vertical(self):
        plus, minus = endpoints(5.0, 0.0, (10.0, 0.0))
        assert plus == pytest.approx([10.0, 2.5])
        assert minus == pytest.approx([10.0, -2.5])

    def test_endpoints_quarter_turn(self):
        plus, minus = endpoints(0.2, np.pi / 2)
        assert plus == pytest.approx([-0.1, 0.0], abs=1e-15)
        assert minus == pytest.approx([0.1, 0.0], abs=1e-15)

    def test_endpoints_half_turn(self):
        plus, minus = endpoints(5.0, np.pi, (10.0, 0.0))
        assert plus == pytest.approx([10.0, -2.5])
        assert minus == pytest.approx([10.0, 2.5])

    def test_rotation_wrapped(self):
        lk = link(thT=3 * np.pi, thR=-3 * np.pi)
        assert lk.theta_T == pytest.approx(np.pi)
        assert lk.theta_R == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)

    def test_invalid_length(self):
        for L_T, L_R in ((0.0, 5.0), (0.2, 0.0)):
            with pytest.raises(ValueError):
                link(L_T=L_T, L_R=L_R)


class TestClassifyVisibility:
    def test_full_parallel(self):
        rep = classify_visibility(link())
        assert rep.status == geometry.FULL
        assert rep.l_T == 0.2 and rep.l_R == 5.0
        assert rep.eta_c == 0.0 and rep.zeta_c == 0.0

    def test_no_visibility(self):
        rep = classify_visibility(link(thT=np.pi / 2, thR=np.pi, x0=-5, y0=5))
        assert rep.status == geometry.NO_VISIBILITY

    def test_partial_receive_minus_endpoint(self):
        rep = classify_visibility(link(thT=1.4))
        assert rep.status == geometry.PARTIAL_RX
        assert rep.visible_endpoint == "R-"
        assert rep.l_R == pytest.approx(4.2247672583, rel=1e-9)
        assert abs(rep.zeta_c) == pytest.approx(0.3876163708, rel=1e-8)
        # parametric sign convention: the crossing, the cut end of the
        # segment, sits toward the + endpoint
        assert cut_end(rep) == rep.zeta_c + rep.l_R / 2
        assert cut_end(rep) == pytest.approx(1.7247672583, rel=1e-9)
        # interval midpoint convention: center sits between -L_R/2 and the cut
        assert rep.zeta_c - rep.l_R / 2 == pytest.approx(-2.5)

    def test_touching(self):
        # receive segment crossing the transmit segment through the origin
        rep = classify_visibility(link(L_R=5.0, thT=0.0, thR=np.pi / 2,
                                       x0=0.5, y0=0.0))
        assert rep.status == geometry.TOUCHING

    def test_partial_interval_consistency(self):
        rng = np.random.default_rng(3)
        seen = 0
        while seen < 200:
            lk = link(thT=rng.uniform(-np.pi, np.pi),
                      thR=rng.uniform(-np.pi, np.pi),
                      x0=rng.uniform(-15, 15), y0=rng.uniform(-15, 15))
            rep = classify_visibility(lk)
            if rep.status in (geometry.PARTIAL_RX, geometry.PARTIAL_TX):
                # one end is the visible endpoint, the other the cut end
                rx = rep.status == geometry.PARTIAL_RX
                c, l, L = (rep.zeta_c, rep.l_R, lk.L_R) if rx else (rep.eta_c, rep.l_T, lk.L_T)
                visible = L / 2 if rep.visible_endpoint[1] == "+" else -L / 2
                ends = {c - l / 2, c + l / 2}
                for e in ends:
                    assert min(abs(e - t) for t in (cut_end(rep), visible)) < 1e-9
                assert abs(visible - cut_end(rep)) == pytest.approx(l, abs=1e-12)
                seen += 1

    def test_crossing_point_on_both_lines(self):
        """On partial reports the cut end of the effective segment lies on
        the other array's line: it is the two lines' crossing."""
        rng = np.random.default_rng(2)
        seen = 0
        while seen < 1000:
            lk = link(thT=rng.uniform(-np.pi, np.pi),
                      thR=rng.uniform(-np.pi, np.pi),
                      x0=rng.uniform(-20, 20), y0=rng.uniform(-20, 20))
            rep = classify_visibility(lk)
            if rep.status not in (geometry.PARTIAL_TX, geometry.PARTIAL_RX):
                continue
            scale = 1.0 + abs(lk.x0) + abs(lk.y0)
            # signed distance of the cut end from the other array's line
            if rep.status == geometry.PARTIAL_RX:
                x, y = point_on(lk.theta_R, cut_end(rep), (lk.x0, lk.y0))
                off = x * np.cos(lk.theta_T) + y * np.sin(lk.theta_T)
                length = lk.L_R
            else:
                x, y = point_on(lk.theta_T, cut_end(rep))
                off = ((x - lk.x0) * np.cos(lk.theta_R)
                       + (y - lk.y0) * np.sin(lk.theta_R))
                length = lk.L_T
            assert abs(off) < 1e-9 * scale
            # and it lies on the crossed array's segment
            assert abs(cut_end(rep)) <= length / 2
            seen += 1


def rotated(phi, L_T, L_R, thT, thR, x0, y0):
    """The link with the whole scene rotated by phi about the origin."""
    c, s = np.cos(phi), np.sin(phi)
    return make_link(L_T, L_R, thT + phi, thR + phi, c * x0 - s * y0,
                     s * x0 + c * y0, frequency=F)


class TestDegenerateLinks:
    """Parallel and collinear links: the status must not rest on rounding
    noise, so it is the same under any rotation of the scene."""

    PHIS = np.linspace(-np.pi, np.pi, 97)

    def statuses(self, *args):
        return {classify_visibility(rotated(phi, *args)).status for phi in self.PHIS}

    @pytest.mark.parametrize("thT,x0", [(1e-15, -6.5e-134), (1e-9, -6.5e-134),
                                        (1e-15, 0.0)])
    def test_overlapping_collinear_segments_touch(self, thT, x0):
        rep = classify_visibility(make_link(0.2, 5, thT, 0, x0, 1, frequency=F))
        assert rep.status == geometry.TOUCHING

    @pytest.mark.parametrize("thR", [0.0, np.pi])
    @pytest.mark.parametrize("y0", [0.0, 1.0, -2.5, 2.55])
    def test_overlapping_collinear_any_rotation(self, thR, y0):
        assert self.statuses(0.2, 5.0, 0.0, thR, 0.0, y0) == {geometry.TOUCHING}

    def test_disjoint_collinear_segments_see_nothing(self):
        # a hypothesis counterexample: 'no-visibility', but 'full' rotated
        seed24 = (0.2, 5.0, 0.0, 0.0, 0.0, 12.696287677267755)
        for phi in (0.0, 2.6333595454112437):
            assert classify_visibility(rotated(phi, *seed24)).status \
                == geometry.NO_VISIBILITY
        for thR in (0.0, np.pi):
            for y0 in (2.7, -12.7):
                assert self.statuses(0.2, 5.0, 0.0, thR, 0.0, y0) \
                    == {geometry.NO_VISIBILITY}

    @pytest.mark.parametrize("theta,x0,y0", [
        # d0 is 2.6000000000000005 (math.hypot reads 2.6)
        (-0.7387669856632635, 1.7507798281236127, 1.9221784499456482),
        # d0 is 2.6 (math.hypot reads 2.6000000000000005)
        (-0.1288822567533714, 0.3341669506785004, 2.5784360471173673),
    ])
    def test_collinear_overlap_reads_d0(self, theta, x0, y0):
        """Collinear links on the overlap edge (L_T + L_R) / 2 = 2.6 are
        decided on the link's own ``d0``, by both classifiers."""
        lk = make_link(0.2, 5.0, theta, theta, x0, y0, frequency=F)
        rep = classify_visibility(lk)
        overlap = lk.d0 <= 0.5 * (lk.L_T + lk.L_R)
        assert rep.status == (geometry.TOUCHING if overlap else geometry.NO_VISIBILITY)
        many = dof_arrays(geometry.link_arrays(
            0.2, 5.0, [theta], [theta], [x0], [y0], F)).visibility
        assert many.status.tolist() == [rep.status]

    @pytest.mark.parametrize("thR,x0,status", [
        (np.pi, 10.0, geometry.FULL),            # facing each other
        (0.0, 10.0, geometry.NO_VISIBILITY),     # receive array faces away
        (0.0, -10.0, geometry.NO_VISIBILITY),    # behind the transmit array
    ])
    @pytest.mark.parametrize("y0", [0.0, 3.0, -7.5])
    def test_parallel_arrays(self, thR, x0, status, y0):
        assert self.statuses(0.2, 5.0, 0.0, thR, x0, y0) == {status}


@given(phi=st.floats(-np.pi, np.pi),
       thT=st.floats(-3.0, 3.0), thR=st.floats(-3.0, 3.0),
       x0=st.floats(-15, 15), y0=st.floats(-15, 15))
@settings(max_examples=150, deadline=None)
# a = 0 unrotated and a rounding residue rotated: a cut end taken from the
# raw a moved l_R by 6e-9 and 4e-5
@example(phi=1e-8, thT=0.0, thR=1e-8, x0=0.0, y0=-1.0)
@example(phi=3.229110206140325e-12, thT=0.0, thR=-3.229110206140325e-12, x0=0.0, y0=1.0)
def test_rotation_invariance(phi, thT, thR, x0, y0):
    """Jointly rotating the scene about the origin preserves the report."""
    if np.hypot(x0, y0) < 1.0:
        return
    base = classify_visibility(link(thT=thT, thR=thR, x0=x0, y0=y0))
    c, s = np.cos(phi), np.sin(phi)
    x0r, y0r = c * x0 - s * y0, s * x0 + c * y0
    rot = classify_visibility(link(thT=thT + phi, thR=thR + phi, x0=x0r, y0=y0r))
    assert rot.status == base.status
    assert rot.l_T == pytest.approx(base.l_T, abs=1e-9)
    assert rot.l_R == pytest.approx(base.l_R, abs=1e-9)
    assert abs(rot.eta_c) == pytest.approx(abs(base.eta_c), abs=1e-9)
    assert abs(rot.zeta_c) == pytest.approx(abs(base.zeta_c), abs=1e-9)


@given(thT=st.floats(-3.0, 3.0), thR=st.floats(-3.0, 3.0),
       x0=st.floats(-15, 15), y0=st.floats(-15, 15))
@settings(max_examples=150, deadline=None)
def test_mirror_symmetry(thT, thR, x0, y0):
    """Reflecting about the x axis swaps +/- endpoint roles only."""
    if np.hypot(x0, y0) < 1.0:
        return
    base = classify_visibility(link(thT=thT, thR=thR, x0=x0, y0=y0))
    mirr = classify_visibility(link(thT=-thT, thR=-thR, x0=x0, y0=-y0))
    assert mirr.status == base.status
    assert mirr.l_T == pytest.approx(base.l_T, abs=1e-9)
    assert mirr.l_R == pytest.approx(base.l_R, abs=1e-9)
    if base.visible_endpoint is not None:
        flip = {"T+": "T-", "T-": "T+", "R+": "R-", "R-": "R+"}
        assert mirr.visible_endpoint == flip[base.visible_endpoint]


def test_axis_aligned_regime_sweep():
    """Receive array on the +x axis facing back: four regimes of theta_T
    delimited by +/- (pi/2 +/- a) with a = arctan(L_R / 2 x0)."""
    L_R, x0 = 5.0, 10.0
    a = np.arctan(L_R / (2 * x0))
    eps = 1e-6
    cases = [
        (-a - np.pi / 2 + eps, geometry.PARTIAL_RX, "R+"),
        (a - np.pi / 2 + eps, geometry.FULL, None),
        (0.0, geometry.FULL, None),
        (np.pi / 2 - a - eps, geometry.FULL, None),
        (np.pi / 2 - a + eps, geometry.PARTIAL_RX, "R-"),
        (np.pi / 2 + a + eps, geometry.NO_VISIBILITY, None),
        (-a - np.pi / 2 - eps, geometry.NO_VISIBILITY, None),
    ]
    for thT, status, endpoint in cases:
        rep = classify_visibility(link(thT=thT, x0=x0, L_R=L_R))
        assert rep.status == status, f"theta_T={thT}"
        if endpoint:
            assert rep.visible_endpoint == endpoint


def test_against_ray_casting_oracle():
    """Half-plane sampling oracle: status and effective lengths must agree
    with the closed-form classification within one sample step."""
    rng = np.random.default_rng(5)
    n_pts = 512
    checked = 0
    while checked < 10_000:
        L_T = rng.uniform(0.1, 2.0)
        L_R = rng.uniform(0.5, 8.0)
        thT, thR = rng.uniform(-np.pi, np.pi, 2)
        x0, y0 = rng.uniform(-20, 20, 2)
        if np.hypot(x0, y0) < 0.5:
            continue
        lk = link(L_T=L_T, L_R=L_R, thT=thT, thR=thR, x0=x0, y0=y0)
        rep = classify_visibility(lk)
        checked += 1

        n_T = np.array([np.cos(thT), np.sin(thT)])   # the unit normals
        n_R = np.array([np.cos(thR), np.sin(thR)])
        c = np.array([x0, y0])
        tx_gate = n_T @ c > 0          # receive center in transmit half-plane
        rx_gate = n_R @ (-c) > 0       # transmit center in receive half-plane
        s_R = np.linspace(-L_R / 2, L_R / 2, n_pts)
        s_T = np.linspace(-L_T / 2, L_T / 2, n_pts)
        rx_pts = c[None, :] + s_R[:, None] * np.array(
            [-np.sin(thR), np.cos(thR)])[None, :]
        tx_pts = s_T[:, None] * np.array([-np.sin(thT), np.cos(thT)])[None, :]
        rx_vis = rx_pts @ n_T > 0      # receive points lit by the transmit line
        tx_vis = (tx_pts - c) @ n_R > 0  # transmit points seen by the receive line

        crosses_rx = 0 < np.sum(rx_vis) < n_pts
        crosses_tx = 0 < np.sum(tx_vis) < n_pts
        step_R = L_R / (n_pts - 1)
        step_T = L_T / (n_pts - 1)

        if rep.status == geometry.TOUCHING:
            continue  # segment-segment intersection; oracle not sharper here
        if rep.status == geometry.NO_VISIBILITY:
            assert (not tx_gate) or (not rx_gate) or \
                np.sum(rx_vis) <= 1 or np.sum(tx_vis) <= 1
            continue
        # a visible status needs lit points on both arrays; the center
        # gates individually can fail when the segment itself is crossed
        assert np.sum(rx_vis) >= 1 and np.sum(tx_vis) >= 1
        if rep.status == geometry.PARTIAL_TX:
            assert tx_gate
        elif rep.status == geometry.PARTIAL_RX:
            assert rx_gate
        else:
            assert tx_gate and rx_gate
        oracle_l_R = np.sum(rx_vis) * step_R
        oracle_l_T = np.sum(tx_vis) * step_T
        assert abs(rep.l_R - oracle_l_R) <= 2 * step_R
        assert abs(rep.l_T - oracle_l_T) <= 2 * step_T
