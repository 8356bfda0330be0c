"""Discretized Green's-function channel, its singular spectrum and the
sum-rule count, screened on a Gauss rule among them."""

import json
import os
import threading

import numpy as np
import pytest

from nfdof.dof_core import dof
from nfdof.geometry import classify_visibility, make_link
from nfdof.geometry import FULL, PARTIAL_RX, PARTIAL_TX
from nfdof import cli, figures, geometry, svd_oracle
from nfdof.svd_oracle import (
    MAX_MATRIX_ENTRIES, channel_matrix, effective_dof, singular_spectrum,
)

F = 30e9
LAMBDA = 0.01


def green(point_t, point_r, k):
    """Reference free-space Green's function exp(-j k r) / (4 pi r) between
    two points."""
    r = float(np.hypot(point_r[0] - point_t[0], point_r[1] - point_t[1]))
    if r == 0.0:
        raise ValueError("green: coincident points")
    return np.exp(-1j * k * r) / (4.0 * np.pi * r)


def green_matrix(link, tx_points, rx_points):
    """Reference channel matrix: exp(-1j k r) / (4 pi r) in numpy's complex
    arithmetic between the samples at signed coordinates ``tx_points`` and
    ``rx_points`` along the arrays of ``link``, r = sqrt(dx^2 + dy^2)."""
    tx_x, tx_y = tx_points * -np.sin(link.theta_T), tx_points * np.cos(link.theta_T)
    rx_x = link.x0 + rx_points * -np.sin(link.theta_R)
    rx_y = link.y0 + rx_points * np.cos(link.theta_R)
    r = np.sqrt((rx_x[:, None] - tx_x) ** 2 + (rx_y[:, None] - tx_y) ** 2)
    k = 2 * np.pi / link.wavelength
    return np.exp(-1j * k * r) / (4 * np.pi * r)


def link(L_T=0.2, L_R=5.0, thT=0.0, thR=np.pi, x0=10.0, y0=0.0):
    return make_link(L_T, L_R, thT, thR, x0, y0, frequency=F)


class TestGreen:
    def test_one_wavelength(self):
        k = 2 * np.pi / LAMBDA
        g = green((0.0, 0.0), (LAMBDA, 0.0), k)
        assert g == pytest.approx(1.0 / (4 * np.pi * LAMBDA), rel=1e-12)

    def test_half_wavelength_phase(self):
        k = 2 * np.pi / LAMBDA
        g = green((0.0, 0.0), (LAMBDA / 2, 0.0), k)
        assert g == pytest.approx(-1.0 / (4 * np.pi * LAMBDA / 2), rel=1e-12)

    def test_magnitude_decay(self):
        k = 2 * np.pi / LAMBDA
        assert abs(green((0, 0), (10.0, 0.0), k)) == pytest.approx(
            1.0 / (40 * np.pi), rel=1e-12)

    def test_coincident_points(self):
        with pytest.raises(ValueError):
            green((1.0, 2.0), (1.0, 2.0), 1.0)


class TestChannelMatrix:
    def test_grid_counts_quarter_wavelength(self):
        cm = channel_matrix(link())
        # 0.2 m at 2.5 mm spacing -> 81 points; 5 m -> 2001 points
        assert cm.entries.shape == (2001, 81)
        assert len(cm.tx_points) == 81
        assert len(cm.rx_points) == 2001
        assert cm.spacing == pytest.approx(LAMBDA / 4)

    def test_grid_endpoint_inclusive(self):
        cm = channel_matrix(link())
        assert cm.tx_points[0] == pytest.approx(-0.1)
        assert cm.tx_points[-1] == pytest.approx(+0.1)

    def test_partial_visibility_grid_offset(self):
        lk = link(thT=1.4)
        rep = classify_visibility(lk)
        cm = channel_matrix(lk)
        mid = (cm.rx_points[0] + cm.rx_points[-1]) / 2
        assert mid == pytest.approx(rep.zeta_c)
        assert cm.rx_points[-1] - cm.rx_points[0] == pytest.approx(rep.l_R)

    def test_spacing_cap(self):
        with pytest.raises(ValueError):
            channel_matrix(link(), spacing=0.6 * LAMBDA)

    @pytest.mark.parametrize("spacing", [0.0, -1e-3, np.nan, np.inf, -np.inf])
    def test_spacing_must_be_positive_and_finite(self, spacing):
        with pytest.raises(ValueError, match="spacing must be positive and finite"):
            channel_matrix(link(), spacing=spacing)

    def test_size_cap(self, monkeypatch):
        """A matrix past ``MAX_MATRIX_ENTRIES`` is refused by its shape
        before anything is allocated; a 1 nm spacing once asked numpy for
        a 5e9-point grid and died with a MemoryError."""
        monkeypatch.setattr(svd_oracle, "MAX_MATRIX_ENTRIES", 2001 * 81 - 1)
        with pytest.raises(ValueError, match="a 2001 x 81 channel matrix exceeds"):
            channel_matrix(link())
        monkeypatch.setattr(svd_oracle, "MAX_MATRIX_ENTRIES", 2001 * 81)
        assert channel_matrix(link()).entries.shape == (2001, 81)
        monkeypatch.undo()
        with pytest.raises(ValueError, match=f"a 5000000001 x 200000001 channel "
                                             f"matrix exceeds {MAX_MATRIX_ENTRIES} "):
            channel_matrix(link(), spacing=1e-9)

    def test_run_cap(self, monkeypatch):
        """``grid_shapes`` gives the shapes ``channel_matrix`` builds and
        refuses a run whose matrices hold more than ``MAX_RUN_ENTRIES``
        entries together; each matrix's own refusals come first."""
        links = [link(), link(thT=1.4), link(thT=-0.3, y0=2.0)]
        reps = [classify_visibility(lk) for lk in links]
        segments = ([r.l_T for r in reps], [r.l_R for r in reps], [LAMBDA] * 3)
        built = [channel_matrix(lk).entries.shape for lk in links]
        total = sum(rows * cols for rows, cols in built)
        monkeypatch.setattr(svd_oracle, "MAX_RUN_ENTRIES", total)
        assert svd_oracle.grid_shapes(*segments) == built
        monkeypatch.setattr(svd_oracle, "MAX_RUN_ENTRIES", total - 1)
        with pytest.raises(ValueError, match=f"^3 channel matrices of {total} entries "
                                             f"together exceed {total - 1} entries"):
            svd_oracle.grid_shapes(*segments)
        with pytest.raises(ValueError, match="a 5000000001 x 200000001 channel matrix"):
            svd_oracle.grid_shapes(*segments, spacing=1e-9)
        with pytest.raises(ValueError, match="spacing must not exceed half a wavelength"):
            svd_oracle.grid_shapes(*segments, spacing=0.6 * LAMBDA)
        # a later link's own refusal wins over a run already past the cap
        monkeypatch.setattr(svd_oracle, "MAX_RUN_ENTRIES", 1)
        with pytest.raises(ValueError, match="spacing must not exceed half a wavelength"):
            svd_oracle.grid_shapes(*segments[:2], [LAMBDA, LAMBDA, LAMBDA / 10],
                                   spacing=LAMBDA / 4)

    def test_entries_match_green(self):
        lk = link(thT=0.4)
        cm = channel_matrix(lk, spacing=LAMBDA / 2)
        k = 2 * np.pi / LAMBDA
        thT, thR = 0.4, np.pi
        i, j = 7, 3
        pt = np.array([-np.sin(thT), np.cos(thT)]) * cm.tx_points[j]
        pr = (np.array([10.0, 0.0])
              + np.array([-np.sin(thR), np.cos(thR)]) * cm.rx_points[i])
        assert cm.entries[i, j] == pytest.approx(green(pt, pr, k), rel=1e-12)

    @pytest.mark.parametrize("spacing", [LAMBDA / 4, LAMBDA / 2])
    def test_entries_bitwise_reference(self, spacing):
        """The evaluator repeats the complex expression's roundings: every
        entry equals the reference bit for bit."""
        for lk in seeded_links(6, seed=17):
            cm = channel_matrix(lk, spacing=spacing)
            reference = green_matrix(lk, cm.tx_points, cm.rx_points)
            assert np.array_equal(cm.entries.view(np.uint64),
                                  reference.view(np.uint64))

    def test_requires_visibility(self):
        with pytest.raises(ValueError):
            channel_matrix(link(thT=np.pi / 2, thR=np.pi, x0=-5, y0=5))


class TestSingularSpectrum:
    def test_rank_one_single_points(self):
        # degenerate 1x1 grid via large spacing on short arrays
        lk = make_link(0.004, 0.004, 0.0, np.pi, 10.0, 0.0, frequency=F)
        cm = channel_matrix(lk, spacing=LAMBDA / 2)
        rep = singular_spectrum(cm)
        assert len(rep.singular_values) == 1
        assert rep.cumulative_fraction[-1] == pytest.approx(1.0)

    def test_descending_order_and_sum_rule(self):
        rep = singular_spectrum(channel_matrix(link(), spacing=LAMBDA / 2))
        s = rep.singular_values
        assert np.all(np.diff(s) <= 1e-12)
        cm = channel_matrix(link(), spacing=LAMBDA / 2)
        frob = np.linalg.norm(cm.entries, "fro") ** 2
        assert np.sum(s * s) == pytest.approx(frob, rel=1e-10)
        assert rep.cumulative_fraction[-1] == pytest.approx(1.0, abs=1e-12)
        assert rep.normalized_powers[0] == 1.0

    def test_unitary_invariance(self):
        cm = channel_matrix(link(), spacing=LAMBDA / 2)
        H = cm.entries
        rng = np.random.default_rng(8)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, H.shape[1]))
        s0 = np.linalg.svd(H, compute_uv=False)
        s1 = np.linalg.svd(H * phases[None, :], compute_uv=False)
        assert s0 == pytest.approx(s1, rel=1e-10)

    def test_rotation_invariance_of_spectrum(self):
        phi = 0.7
        a = singular_spectrum(channel_matrix(link(thT=0.3), spacing=LAMBDA / 2))
        c, s = np.cos(phi), np.sin(phi)
        b = singular_spectrum(channel_matrix(
            make_link(0.2, 5.0, 0.3 + phi, np.pi + phi, 10 * c, 10 * s, frequency=F),
            spacing=LAMBDA / 2))
        assert a.singular_values == pytest.approx(b.singular_values, rel=1e-9)


class TestEffectiveDof:
    def test_tiny_fraction_gives_one(self):
        rep = singular_spectrum(channel_matrix(link(), spacing=LAMBDA / 2))
        assert effective_dof(rep, 1e-6) == 1

    def test_fraction_validation(self):
        rep = singular_spectrum(channel_matrix(link(), spacing=LAMBDA / 2))
        with pytest.raises(ValueError):
            effective_dof(rep, 0.0)
        with pytest.raises(ValueError):
            effective_dof(rep, 1.0)

    def test_count_capped_at_the_modes(self):
        """The running share of this SVD spectrum may end at 1 - 3.3e-16
        (cumsum and sum round differently): a fraction above it still
        counts no more modes than there are."""
        rep = singular_spectrum(channel_matrix(
            make_link(0.2, 5.0, 0.0, np.pi, 10.0, 0.0, frequency=F)))
        assert effective_dof(rep, 0.9999999999999999) == rep.normalized_powers.size == 81

    def test_tilted_reference_spectrum(self):
        """Tilted receive array at half-wavelength sampling: the tenth
        mode is still strong, the eleventh decayed, ten modes carry just
        over 96 percent of the singular power."""
        lk = make_link(0.2, 5.0, np.pi / 2, -np.deg2rad(53), -5.0, 5.0,
                       frequency=F)
        rep = singular_spectrum(channel_matrix(lk, spacing=LAMBDA / 2))
        assert rep.normalized_powers[9] == pytest.approx(0.450, abs=0.05)
        assert rep.normalized_powers[10] == pytest.approx(0.172, abs=0.05)
        assert rep.cumulative_fraction[9] == pytest.approx(0.96, abs=0.015)
        assert effective_dof(rep) == 10
        assert effective_dof(rep, 0.99) in (11, 12)

    def test_refinement_invariance(self):
        """The mode count is stable under grid refinement."""
        lk = make_link(0.2, 5.0, np.pi / 2, -np.deg2rad(53), -5.0, 5.0,
                       frequency=F)
        d4 = effective_dof(singular_spectrum(channel_matrix(lk, spacing=LAMBDA / 4)))
        d8 = effective_dof(singular_spectrum(channel_matrix(lk, spacing=LAMBDA / 8)))
        assert d8 == d4

    def test_agrees_with_mode_count_within_one(self):
        cases = [
            (0.2, 5.0, 0.0, np.pi, 10.0, 0.0),
            (0.2, 5.0, 1.4, np.pi, 10.0, 0.0),
            (0.2, 5.0, np.pi / 2, -np.deg2rad(53), -5.0, 5.0),
            (0.2, 5.0, np.pi / 3, -np.pi / 3, -5.0, 5.0),
        ]
        for L_T, L_R, thT, thR, x0, y0 in cases:
            lk = make_link(L_T, L_R, thT, thR, x0, y0, frequency=F)
            res = dof(lk)
            ed = effective_dof(singular_spectrum(channel_matrix(lk)))
            assert abs(ed - res.m_int) <= 1, (thT, thR, ed, res.m_int)

    def test_sum_rule_gap_grows_with_the_aperture(self):
        """The sum-rule gap m_int - count on a 1 m transmit array: a
        spectrum with a plateau of about m_int modes counts about f * m_int
        at fraction f, so the gap is ~ (1 - f) m_int, at least 2 modes at
        0.96 and at most 1 at 0.99 here (the 2001 x 401 lambda/4 grid)."""
        lk = make_link(1.0, 5.0, 0.0, np.pi, 10.0, 0.0, frequency=F)
        m_int = dof(lk).m_int
        rep = singular_spectrum(channel_matrix(lk))
        assert m_int == 50
        assert m_int - effective_dof(rep, 0.96) >= 2
        assert m_int - effective_dof(rep, 0.99) <= 1


def seeded_links(n, seed=31):
    """Visible links with the receiver facing the transmitter, L_T 0.2 or
    0.5 m, centre distance between 1.2 (L_T + L_R) and 20 m."""
    rng = np.random.default_rng(seed)
    links = []
    while len(links) < n:
        L_T = (0.2, 0.5)[len(links) % 2]
        L_R = rng.uniform(1.0, 5.0)
        d = rng.uniform(1.2 * (L_T + L_R), 20.0)
        phi = rng.uniform(-np.pi, np.pi)
        lk = make_link(L_T, L_R, rng.uniform(-np.pi, np.pi), phi + np.pi,
                       d * np.cos(phi), d * np.sin(phi), frequency=F)
        if classify_visibility(lk).status in (FULL, PARTIAL_RX, PARTIAL_TX):
            links.append(lk)
    return links


def count_link(n_rows, n_cols):
    """A facing link whose grid at lambda/4 has ``n_rows`` receive and
    ``n_cols`` transmit samples (an array of lambda/8 has one)."""
    L_T, L_R = (max(n - 1, 0.5) * LAMBDA / 4 for n in (n_cols, n_rows))
    lk = make_link(L_T, L_R, 0.0, np.pi, 10.0, 0.0, frequency=F)
    rep = classify_visibility(lk)
    assert svd_oracle.grid_shapes([rep.l_T], [rep.l_R], [LAMBDA]) == [(n_rows, n_cols)]
    return lk


def gram_powers(lk, spacing=None, dtype=np.float64):
    """The whole grid's spectrum of ``lk`` at ``spacing``: ``_gram_powers``
    on the grids that ``_count`` builds, the longer side along the rows,
    with the phases in ``dtype``."""
    _, (_, tx), (_, rx) = svd_oracle._grids(lk, spacing)
    grid, cols = (rx, tx) if rx[0].size >= tx[0].size else (tx, rx)
    return svd_oracle._gram_powers(2.0 * np.pi / lk.wavelength, grid, cols, dtype)


def assert_count_matches_svd(lk, spacing=None):
    """``_gram_powers`` against the SVD oracle: the count at three
    fractions, and the leading powers and shares."""
    svd = singular_spectrum(channel_matrix(lk, spacing=spacing))
    powers = gram_powers(lk, spacing)
    assert powers.normalized_powers.size == svd.normalized_powers.size
    for fraction in (0.9, 0.96, 0.99):
        assert effective_dof(powers, fraction) == effective_dof(svd, fraction)
    lead = effective_dof(svd) + 2
    assert powers.normalized_powers[:lead] == pytest.approx(
        svd.normalized_powers[:lead], abs=1e-10)
    assert powers.cumulative_fraction[:lead] == pytest.approx(
        svd.cumulative_fraction[:lead], abs=1e-10)


class TestGramPowers:
    """The sum-rule count from Gram eigenvalues, accumulated from row
    blocks, against the SVD oracle."""

    def test_count_and_leading_powers_match_svd(self):
        reference = make_link(0.2, 5.0, np.pi / 2, -np.deg2rad(53), -5.0, 5.0,
                              frequency=F)
        assert_count_matches_svd(reference, LAMBDA / 2)
        for lk in seeded_links(30):
            assert_count_matches_svd(lk)

    @pytest.mark.parametrize("n_rows", [
        1, svd_oracle._BLOCK_ROWS - 1, svd_oracle._BLOCK_ROWS,
        svd_oracle._BLOCK_ROWS + 1, 2 * svd_oracle._BLOCK_ROWS + 1])
    def test_block_boundaries(self, n_rows):
        assert_count_matches_svd(count_link(n_rows, min(n_rows, 21)))

    def test_wide_grid(self):
        """More transmit than receive samples: the blocks run along the
        transmit side, and the powers are those of H H^H."""
        lk = count_link(121, 2 * svd_oracle._BLOCK_ROWS + 1)
        powers = gram_powers(lk)
        assert powers.normalized_powers.size == 121
        assert_count_matches_svd(lk)

    def test_total_is_frobenius_norm(self, monkeypatch):
        """The shares are of trace(S) = ||H||_F^2: the largest power over
        its share gives the total back."""
        largest, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda G: largest.append((w := eigvalsh(G))[-1]) or w)
        for lk in [link(), count_link(2 * svd_oracle._BLOCK_ROWS + 1, 101)]:
            powers = gram_powers(lk)
            share = powers.cumulative_fraction[0]
            frobenius = np.vdot(H := channel_matrix(lk).entries, H).real
            assert largest.pop() / share == pytest.approx(frobenius, rel=1e-14)


# a half-turn theta_R sweep of the fig7a link at lambda/2, 21 steps
_SWEEP = ({"L_T": 0.2, "L_R": 5.0, "theta_T": 0.0, "x0": 10.0, "y0": 0.0,
           "frequency": F}, "theta_R", np.linspace(np.pi / 2, 1.5 * np.pi, 21),
          LAMBDA / 2, 0.96)


class TestCounts:
    """``figures.svd_compare_rows`` counts its steps one after another in
    the calling thread, the same on any number of CPUs."""

    def test_one_and_four_cpus_agree(self, monkeypatch):
        results = {}
        for cpus in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            results[cpus] = figures.svd_compare_rows(*_SWEEP)
        assert results[1] == results[4]
        header, columns, record = results[1]
        assert record == {"svd_grid": {"rows": 1001, "cols": 41}}
        assert sum(1 for ed in columns[2][:-1] if ed) > 4

    def test_public_functions_run_in_the_calling_thread(self, monkeypatch):
        """Each step's link is built and classified by the calling thread,
        in step order, and no public function runs on another thread: a
        tracer may wrap them with a span stack that is not thread-safe."""
        calls = []
        for module in (geometry, svd_oracle):
            for name in ("make_link", "classify_visibility", "channel_matrix",
                         "singular_spectrum", "effective_dof"):
                if hasattr(module, name):
                    real = getattr(module, name)
                    monkeypatch.setattr(module, name, lambda *a, real=real, name=name, **k: (
                        calls.append((name, threading.current_thread(), a)) or real(*a, **k)))
        _, columns, _ = figures.svd_compare_rows(*_SWEEP)
        assert {thread for _, thread, _ in calls} == {threading.main_thread()}
        built = [a[0] for name, _, a in calls if name == "classify_visibility"]
        counted = [v for v, ed in zip(columns[0][:-1], columns[2][:-1]) if ed]
        assert [lk.theta_R for lk in built] == [make_link(**{**_SWEEP[0], "theta_R": v}).theta_R
                                                for v in counted]

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_first_failing_step_is_raised(self, monkeypatch, cpus):
        """Two steps fail: the earlier one's error is raised, on one CPU
        as on four, and no later step is counted."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        real, (link, key, values, _, _) = svd_oracle._count, _SWEEP
        # make_link wraps theta_R into (-pi, pi]
        failing = [make_link(**{**link, key: values[i]}).theta_R for i in (8, 12)]
        assert all(classify_visibility(make_link(**{**link, key: values[i]})).status
                   == FULL for i in (8, 12))
        counted = []

        def count(lk, *args):
            counted.append(lk.theta_R)
            if lk.theta_R in failing:
                raise ValueError(f"step {failing.index(lk.theta_R)}")
            return real(lk, *args)

        monkeypatch.setattr(svd_oracle, "_count", count)
        with pytest.raises(ValueError, match="^step 0$"):
            figures.svd_compare_rows(*_SWEEP)
        assert counted[-1] == failing[0]


def assert_writes_the_full_grid_count(monkeypatch, tmp_path, fraction):
    """``svd-compare`` on ``link()`` at ``fraction`` writes the file that
    the full grid's count writes."""
    sweep = {"parameter": "theta_R", "start": np.pi, "stop": np.pi, "steps": 1}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "L_T_m": 0.2, "L_R_m": 5.0, "theta_T": 0.0, "x0_m": 10.0, "y0_m": 0.0,
        "frequency_hz": F, "svd_threshold": fraction, "sweep": sweep}))
    written = []
    for name in ("screened", "full"):
        out = tmp_path / f"{name}.csv"
        assert cli.main(["svd-compare", "--config", str(cfg), "--out", str(out)]) == 0
        written.append(out.read_bytes())
        monkeypatch.setattr(svd_oracle, "_count", lambda lk, sp, f, m: effective_dof(
            gram_powers(lk, sp), f))
    assert written[0] == written[1]


def stress_links(n, seed=7):
    """Links with a mode count, uniform rotations (partial links among
    them), L_T from 0.1 to 1 m and centre distances 0.51 to 20 times L_T
    + L_R, log-uniform (near-field ones among them), each paired with a
    spacing: lambda/4 and lambda/2 in turn."""
    rng = np.random.default_rng(seed)
    links = []
    while len(links) < n:
        L_T, L_R = rng.choice([0.1, 0.2, 0.5, 1.0]), rng.uniform(0.5, 5.0)
        d = (L_T + L_R) * np.exp(rng.uniform(np.log(0.51), np.log(20.0)))
        phi = rng.uniform(-np.pi, np.pi)
        lk = make_link(L_T, L_R, rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi),
                       d * np.cos(phi), d * np.sin(phi), frequency=F)
        if dof(lk).m_int:
            links.append((lk, LAMBDA / (4, 2)[len(links) % 2]))
    return links


def parallel_links(n, seed=13):
    """Nearly parallel near links with a mode count: L_T from 0.1 to 1 m,
    centres 0.15 to 0.55 times L_T + L_R apart in any direction, theta_R
    within 0.05 rad of theta_T or theta_T + pi, each paired with a
    spacing: lambda/4 and lambda/2 in turn."""
    rng = np.random.default_rng(seed)
    links = []
    while len(links) < n:
        L_T, L_R = rng.choice([0.1, 0.2, 0.5, 1.0]), rng.uniform(0.5, 5.0)
        d, phi = (L_T + L_R) * rng.uniform(0.15, 0.55), rng.uniform(-np.pi, np.pi)
        theta_T = rng.uniform(-np.pi, np.pi)
        theta_R = theta_T + rng.choice([0.0, np.pi]) + rng.uniform(-0.05, 0.05)
        lk = make_link(L_T, L_R, theta_T, theta_R, d * np.cos(phi), d * np.sin(phi),
                       frequency=F)
        if dof(lk).m_int:
            links.append((lk, LAMBDA / (4, 2)[len(links) % 2]))
    return links


class TestScreen:
    """``svd_oracle._count``: the full grid's count, screened on a Gauss
    rule over the longer side's cells."""

    @staticmethod
    def _screen(lk, spacing, fraction=0.96, m_int=None):
        """(count, the screen's powers or None where it did not run,
        whether the full grid counted) of ``_count`` on ``lk``, given
        ``m_int`` (by default the link's own)."""
        built, fell_back = [], []
        real_powers, real_gram = svd_oracle._powers, svd_oracle._gram_powers
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(svd_oracle, "_powers",
                       lambda *a: built.append(real_powers(*a)) or built[-1])
            mp.setattr(svd_oracle, "_gram_powers",
                       lambda *a: fell_back.append(a) or real_gram(*a))
            count = svd_oracle._count(lk, spacing, fraction,
                                      dof(lk).m_int if m_int is None else m_int)
        # each fallback builds one set of powers; the screen built one more
        return count, built[0] if len(built) > len(fell_back) else None, bool(fell_back)

    def test_counts_match_the_full_grid(self):
        self._assert_counts_match_the_full_grid(stress_links(96), 0.96, near=10)

    @pytest.mark.parametrize("fraction", [0.9, 0.99])
    def test_counts_match_the_full_grid_at(self, fraction):
        """Each fraction hands other links on from the screen to the
        float32 grid (4 of these 48 at 0.9, 5 at 0.99)."""
        self._assert_counts_match_the_full_grid(stress_links(48, seed=9), fraction, near=5)

    def _assert_counts_match_the_full_grid(self, links, fraction, near):
        """``_count`` counts as the double grid on every link of ``links``,
        ``near`` or more of them with centres closer than L_T + L_R, and
        the screen stands on three quarters of them."""
        stood = 0
        statuses = {classify_visibility(lk).status for lk, _ in links}
        assert {FULL, PARTIAL_RX, PARTIAL_TX} <= statuses
        assert sum(lk.d0 < lk.L_T + lk.L_R for lk, _ in links) >= near
        for lk, spacing in links:
            full = effective_dof(gram_powers(lk, spacing), fraction)
            count, _, fell_back = self._screen(lk, spacing, fraction)
            assert count == full, (lk, spacing)
            stood += not fell_back
        assert stood >= 0.75 * len(links)

    @pytest.mark.parametrize("fraction", [0.9, 0.96, 0.99])
    def test_near_parallel_counts_match_the_full_grid(self, fraction):
        """Arrays nearer than a length (g < 1) screen on 4c + 32 nodes, and
        count as the double grid does: on 2c + 16 nodes, several of these
        links read a few modes too few.  Half of them are too near for any
        rule (g < 1/4); the screen stands on a sixth or more."""
        stood = 0
        for lk, spacing in parallel_links(48):
            full = effective_dof(gram_powers(lk, spacing), fraction)
            count, _, fell_back = self._screen(lk, spacing, fraction)
            assert count == full, (lk, spacing)
            stood += not fell_back
        assert stood >= 48 / 6

    @pytest.mark.parametrize("x0, nodes", [(10.0, 38), (3.0, 140)])
    def test_rule_tier_by_proximity(self, monkeypatch, x0, nodes):
        """c = 11 at x0 = 10 m, where the receiver's nearest sample is g ~ 2
        of its length from the transmitter: 2c + 16 nodes.  c = 27 at x0 =
        3 m, g ~ 0.6: 4c + 32 nodes."""
        sizes, real = [], svd_oracle.gauss_legendre
        monkeypatch.setattr(svd_oracle, "gauss_legendre",
                            lambda p: sizes.append(p) or real(p))
        lk = make_link(0.2, 5.0, 0.0, np.pi, x0, 0.0, frequency=F)
        count, screened, _ = self._screen(lk, LAMBDA / 4)
        assert screened is not None and sizes == [nodes]
        assert count == effective_dof(gram_powers(lk, LAMBDA / 4))

    def test_shares_near_the_full_grid_at_the_crossing(self):
        for lk, spacing in stress_links(48, seed=8):
            full = gram_powers(lk, spacing)
            _, screened, _ = self._screen(lk, spacing)
            if screened is None:
                continue
            k = effective_dof(full)
            around = slice(max(k - 2, 0), min(k + 1, screened.cumulative_fraction.size))
            assert screened.cumulative_fraction[around] == pytest.approx(
                full.cumulative_fraction[around], abs=svd_oracle._SCREEN_MARGIN / 10)

    @pytest.mark.parametrize("lk, spacing", [
        # one array's end a millimetre from the other's
        (make_link(0.2, 2.0, 0.0, -np.pi / 2, 0.5, 0.101, frequency=F), LAMBDA / 2),
        # side by side, centres 0.19 (L_T + L_R) apart
        (make_link(0.2, 2.0, 0.0, np.pi - 0.3, 0.296, 0.3, frequency=F), LAMBDA / 4)])
    def test_near_arrays_count_on_the_grid(self, lk, spacing):
        """Arrays closer than a quarter of the longer side count on the
        grid: the rule alone reads 12 for 9 and 34 for 38 here."""
        full = effective_dof(gram_powers(lk, spacing))
        count, screened, fell_back = self._screen(lk, spacing)
        assert (count, screened, fell_back) == (full, None, True)

    def test_rule_sized_by_the_crossed_strings(self):
        """An ``m_int`` several modes below the crossed-string N (1 against
        N = 10.7 here) does not starve the rule: p is sized by N as well,
        so the screen stands and counts as the grid does."""
        lk, spacing = link(), LAMBDA / 4
        full = effective_dof(gram_powers(lk, spacing))
        count, screened, fell_back = self._screen(lk, spacing, m_int=1)
        assert (count, screened is not None, fell_back) == (full, True, False)
        assert count == 10

    def test_count_past_the_rule_falls_back(self, monkeypatch):
        """A screened count above c + 2 is past what the rule is sized for,
        and the grid counts.  On a link of N = 1.5 (c = 2, p = 20) the
        fraction 1 - 1e-9 screens 5 modes; the margin is set aside, so
        that it alone does not send the count to the grid."""
        monkeypatch.setattr(svd_oracle, "_SCREEN_MARGIN", 0.0)
        lk, spacing, fraction = link(L_T=0.1, L_R=1.0, x0=20.0), LAMBDA / 4, 1 - 1e-9
        full = effective_dof(
            gram_powers(lk, spacing), fraction)
        count, screened, fell_back = self._screen(lk, spacing, fraction)
        assert effective_dof(screened, fraction) == 5 > 2 + 2
        assert screened.normalized_powers.size == 20   # min(p, 41 columns)
        assert (count, fell_back) == (full, True)

    def test_near_tie_falls_back(self, monkeypatch, tmp_path):
        """A fraction at a running share of the full grid: the screened
        share lies within the margin, the full grid counts, and the file
        is the one the full grid's count writes."""
        lk, spacing = link(), LAMBDA / 4
        full = gram_powers(lk, spacing)
        fraction = float(full.cumulative_fraction[effective_dof(full) - 1])
        count, screened, fell_back = self._screen(lk, spacing, fraction)
        assert screened is not None and fell_back and count == effective_dof(full, fraction)
        assert_writes_the_full_grid_count(monkeypatch, tmp_path, fraction)

    def test_one_gridding_per_counted_step(self, monkeypatch):
        """A sweep through a near-tie step, which falls back to the whole
        grid: each counted step is gridded once, and the fallback counts on
        the grid that the screen had."""
        lk, spacing = link(), LAMBDA / 4
        full = gram_powers(lk, spacing)
        fraction = float(full.cumulative_fraction[effective_dof(full) - 1])
        grids, fell_back = [], []
        real_grids, real_gram = svd_oracle._grids, svd_oracle._gram_powers
        monkeypatch.setattr(svd_oracle, "_grids",
                            lambda *a: grids.append(a[0]) or real_grids(*a))
        monkeypatch.setattr(svd_oracle, "_gram_powers",
                            lambda *a: fell_back.append(a) or real_gram(*a))
        sweep = ({"L_T": 0.2, "L_R": 5.0, "theta_T": 0.0, "x0": 10.0, "y0": 0.0,
                  "frequency": F}, "theta_R", np.linspace(np.pi - 0.2, np.pi + 0.2, 5))
        _, columns, _ = figures.svd_compare_rows(*sweep, spacing, fraction)
        counted = [ed for ed in columns[2][:-1] if ed]
        assert len(counted) == 5 and 1 <= len(fell_back) < 5
        assert len(grids) == len(counted)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n_rows", [1, 2, 3])
    def test_short_grids(self, n_rows):
        """Grids of no more than 2p rows count on the grid, and one row
        takes no proximity, which divides by the grid's squared length: 0
        on one row, a RuntimeWarning here."""
        lk = count_link(n_rows, n_rows)
        count, screened, fell_back = self._screen(lk, None)
        assert (count, screened, fell_back) == (effective_dof(gram_powers(lk)), None, True)
        assert count == effective_dof(singular_spectrum(channel_matrix(lk)))

    def test_refusals(self):
        """``_count`` grids each step, and the grid refuses a link without
        visibility, a spacing above half a wavelength and a matrix past
        the size cap."""
        hidden = link(thT=np.pi / 2, thR=np.pi, x0=-5, y0=5)
        with pytest.raises(ValueError, match="requires visibility"):
            svd_oracle._count(hidden, None, 0.96, 1)
        with pytest.raises(ValueError, match="spacing must not exceed half"):
            svd_oracle._count(link(), 0.6 * LAMBDA, 0.96, 10)
        with pytest.raises(ValueError, match="a 5000000001 x 200000001 channel matrix"):
            svd_oracle._count(link(), 1e-9, 0.96, 10)


# the relative error of an entry with float32 phases, at most: 2^-23 from
# rounding a phase in [-pi, pi] to float32, and 1.5 float32 ulps below 1
# (1.5 2^-24) in each of its cos and sin
EPS = 2.0 ** -23 + np.hypot(1.5, 1.5) * 2.0 ** -24


def tiers(lk, spacing, fraction):
    """(count, the phase dtypes of the whole-grid counts in call order) of
    ``_count`` on ``lk``: [] where the screen stood."""
    called, real = [], svd_oracle._gram_powers
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svd_oracle, "_gram_powers", lambda *a: called.append(
            a[3] if len(a) > 3 else np.float64) or real(*a))
        count = svd_oracle._count(lk, spacing, fraction, dof(lk).m_int)
    return count, called


class TestPrecisionTiers:
    """``_count`` screens and first counts the grid with float32 phases;
    the grid with double phases decides only near a tie."""

    def test_entries_within_the_bound(self):
        """Each entry with float32 phases is within a relative ``EPS`` of
        the double one, over phases of up to 4e4 rad."""
        worst = 0.0
        for lk, spacing in stress_links(12, seed=5):
            _, (_, tx), (_, rx) = svd_oracle._grids(lk, spacing)
            single, double = (np.empty((2, rx[0].size, tx[0].size)) for _ in range(2))
            k = 2.0 * np.pi / lk.wavelength
            svd_oracle._green(k, rx, tx, *single, np.float32)
            svd_oracle._green(k, rx, tx, *double)
            error = np.hypot(*(single - double)) / np.hypot(*double)
            worst = max(worst, error.max())
        assert 1e-8 < worst <= EPS

    def test_fallback_shares_agree(self):
        """On the grids the screen hands on, the running shares with float32
        and with double phases agree within 1e-7; the margin is at least
        ten times the bound 4 eps on their gap (``_count``'s docstring)."""
        assert svd_oracle._EXACT_MARGIN >= 10 * 4 * EPS
        fallbacks = 0
        for lk, spacing in stress_links(96):
            _, called = tiers(lk, spacing, 0.96)
            if called:
                fallbacks += 1
                single = gram_powers(lk, spacing, np.float32).cumulative_fraction
                double = gram_powers(lk, spacing).cumulative_fraction
                assert np.abs(single - double).max() < 1e-7
        assert fallbacks >= 5

    def test_single_grid_stands_clear_of_the_fraction(self):
        """Arrays too near for the screen count on the float32 grid alone
        where no running share comes near the fraction."""
        lk, spacing = make_link(0.2, 2.0, 0.0, -np.pi / 2, 0.5, 0.101, frequency=F), LAMBDA / 2
        count, called = tiers(lk, spacing, 0.96)
        assert (count, called) == (effective_dof(gram_powers(lk, spacing), 0.96), [np.float32])

    def test_near_tie_goes_to_the_double_grid(self, monkeypatch, tmp_path):
        """A fraction at a running share of the float32 grid: the screen
        and the float32 grid hand the count on, the double grid counts, and
        ``svd-compare`` writes that count's file."""
        lk, spacing = link(), LAMBDA / 4
        single = gram_powers(lk, spacing, np.float32)
        fraction = float(single.cumulative_fraction[effective_dof(single) - 1])
        count, called = tiers(lk, spacing, fraction)
        assert called == [np.float32, np.float64]
        assert count == effective_dof(gram_powers(lk, spacing), fraction)
        assert_writes_the_full_grid_count(monkeypatch, tmp_path, fraction)
