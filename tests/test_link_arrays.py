"""The array link core against the scalar path, bit for bit.

``dof_arrays(link_arrays(...))`` must give, for every link, the rotations
and wavelength of ``make_link``, the status, endpoint and effective
segment of ``classify_visibility``, and the angles and mode indices of the
link-by-link reference in ``dof_oracle``: random links, sweeps of each
sweepable parameter, and the degenerate families of
``TestDegenerateLinks`` (collinear, parallel, distances at the edge of the
zero band).  The core's own columns are compared; no report or link
object is rebuilt from them.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dof_oracle import mode_span
from nfdof import dof_core, figures, geometry
from nfdof.dof_core import DofResult, dof, dof_arrays
from nfdof.geometry import (LinkGeometry, VisibilityReport, classify_visibility,
                            link_arrays, make_link, point_on)

F = 30e9
KEYS = ("L_T", "L_R", "theta_T", "theta_R", "x0", "y0", "frequency")
SWEEP_RANGES = {
    "theta_T": (-math.pi, math.pi), "theta_R": (-math.pi, math.pi),
    "x0": (-20.0, 20.0), "y0": (-20.0, 20.0), "L_T": (0.05, 1.0),
    "L_R": (0.5, 10.0), "frequency": (10e9, 100e9),
}
SEGMENT_FIELDS = ("l_T", "l_R", "eta_c", "zeta_c")
DOF_FIELDS = ("a_plus", "a_minus", "a_zero", "rho_c", "m_plus", "m_minus",
              "m_real", "m_int")


def same(x, y):
    """Bitwise equality of floats (NaN equals NaN, -0.0 differs from 0.0),
    plain equality otherwise."""
    if isinstance(x, float) and isinstance(y, float):
        if math.isnan(x) or math.isnan(y):
            return math.isnan(x) and math.isnan(y)
        return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
    return type(x) is type(y) and x == y


def check(links):
    """Every link of the list (``make_link`` keywords) through the array
    core at once, compared field by field with the scalar path."""
    arrays = link_arrays(**{k: [lk[k] for lk in links] for k in KEYS})
    assert type(arrays) is type(make_link(**links[0])) is LinkGeometry
    res = dof_arrays(arrays)
    vis = res.visibility
    cols = {name: getattr(res, name).tolist() for name in DOF_FIELDS}
    segments = {name: getattr(vis, name).tolist() for name in SEGMENT_FIELDS}
    status, endpoint = vis.status.tolist(), vis.visible_endpoint.tolist()
    built = [getattr(arrays, name).tolist()
             for name in ("theta_T", "theta_R", "x0", "y0", "wavelength")]
    for i, params in enumerate(links):
        lk = make_link(**params)
        rep = classify_visibility(lk)
        assert status[i] == rep.status, params
        assert endpoint[i] == rep.visible_endpoint, params
        for name in SEGMENT_FIELDS:
            assert same(segments[name][i], getattr(rep, name)), (name, params)
        thT, thR, x0, y0, wavelength = (column[i] for column in built)
        assert same(thT, lk.theta_T), params
        assert same(thR, lk.theta_R), params
        assert (x0, y0) == (lk.x0, lk.y0)
        assert same(wavelength, lk.wavelength)
        if rep.status in (geometry.FULL, geometry.PARTIAL_TX, geometry.PARTIAL_RX):
            want = dict(zip(DOF_FIELDS, mode_span(lk, rep)))
        else:
            nan = float("nan")
            want = dict(zip(DOF_FIELDS, [nan] * 8))
            want["m_real"], want["m_int"] = (0.0, 0) if rep.status == \
                geometry.NO_VISIBILITY else (nan, None)
        scalar = dof(lk)
        for name in DOF_FIELDS:
            assert same(getattr(scalar, name), want[name]), (name, params)
            assert same(cols[name][i], counted(name, want[name])), (name, params)
    return res


def counted(name, value):
    """The array path's value of a scalar ``DofResult`` field: ``m_int``
    None (a touching link) reads 0."""
    return 0 if name == "m_int" and value is None else value


class TestCountColumn:
    """``dof_arrays``' ``m_int`` is the count every sweep table writes:
    int64, 0 where no mode is counted, Python ints only from 2**62."""

    def test_int64_and_zero_without_modes(self):
        res = dof_arrays(link_arrays(0.2, 5.0, 0.0, np.pi, [-10.0, 0.0, 10.0], 0.0, F))
        assert res.visibility.status.tolist() == [
            geometry.NO_VISIBILITY, geometry.TOUCHING, geometry.FULL]
        assert type(res.m_int) is np.ndarray and res.m_int.dtype == np.int64
        full = dof(make_link(0.2, 5.0, 0.0, np.pi, 10.0, 0.0, F)).m_int
        assert res.m_int.tolist() == [0, 0, full]

    @pytest.mark.parametrize("frequency, low, high, dtype", [
        (1e17, 2 ** 53, 2 ** 62, np.int64),
        (3e17, 2 ** 62, 2 ** 63, object),
        (1e18, 2 ** 63, 2 ** 65, object),
    ], ids=["below-2**62", "below-2**63", "past-2**63"])
    def test_object_array_only_from_2_62(self, frequency, low, high, dtype):
        # a 1e10 m transmit array: the count grows with the frequency, and
        # past 2**63 (at 1e18 Hz) it is still round()'s exact integer
        args = (1e10, 5.0, 0.0, np.pi, 10.0, 0.0)
        want = dof(make_link(*args, frequency=frequency)).m_int
        assert low <= want < high
        got = dof_arrays(link_arrays(*args, frequency=[F, frequency])).m_int
        assert got.dtype == dtype
        assert got.tolist() == [dof(make_link(*args, frequency=F)).m_int, want]

    def test_sweep_rows_writes_the_core_count(self):
        link = dict(L_T=0.2, L_R=5.0, theta_T=0.0, theta_R=np.pi, y0=0.0, frequency=F)
        values = np.array([-10.0, 0.0, 10.0])
        header, columns, _ = figures.sweep_rows(link, "x0", values)
        m_int = columns[header.index("m_int")]
        assert type(m_int) is np.ndarray and m_int.dtype == np.int64
        assert np.array_equal(m_int, dof_arrays(link_arrays(x0=values, **link)).m_int)
        assert figures.dof_core is dof_core  # the table is the core's own call


def test_one_record_per_kind():
    """One link and many give the same records: ``VisibilityReport`` from
    both classifiers, ``DofResult`` from ``dof`` and ``dof_arrays``, the
    array path's warnings left empty.  Scalar parameters give the array
    core 0-d links, and it returns 0-d fields bitwise the scalar path's,
    for a link of each status, ``m_int`` 0 where the scalar's is None."""
    args = (0.2, 5.0, 0.0, np.pi, 0.5, 0.0, F)
    one, many = make_link(*args), link_arrays(*args[:4], [0.5, 10.0], *args[5:])
    assert type(classify_visibility(one)) is VisibilityReport
    scalar, arrays = dof(one), dof_arrays(many)
    assert type(arrays) is type(scalar) is DofResult
    assert type(arrays.visibility) is type(scalar.visibility) is VisibilityReport
    assert scalar.warnings and arrays.warnings == []
    for params in (args, (0.2, 5.0, 0.0, np.pi, 10.0, 0.0, F),      # full
                   (0.2, 5.0, 0.0, 0.0, 0.0, 1.0, F),               # touching
                   (0.2, 5.0, 0.0, 0.0, 0.0, 12.7, F),              # collinear apart
                   (0.2, 5.0, 0.0, 0.0, 10.0, 0.0, F),              # no-visibility
                   (1.0, 0.2, 0.3, 2.0, 0.5, 0.3, F),               # partial-tx
                   (0.5, 5.0, 0.6, np.pi - 0.5, 0.3, 0.0, F)):      # partial-rx
        scalar, point = dof(make_link(*params)), dof_arrays(link_arrays(*params))
        fields = [(getattr(point, name), counted(name, getattr(scalar, name)))
                  for name in DOF_FIELDS]
        fields += [(getattr(point.visibility, name), getattr(scalar.visibility, name))
                   for name in ("status", "visible_endpoint", *SEGMENT_FIELDS)]
        for got, want in fields:
            assert type(got) is np.ndarray and got.ndim == 0, params
            assert same(got.item(), want), params


def rotated(phi, L_T, L_R, thT, thR, x0, y0):
    """``make_link`` keywords of the link with the scene rotated by phi."""
    c, s = np.cos(phi), np.sin(phi)
    return dict(L_T=L_T, L_R=L_R, theta_T=thT + phi, theta_R=thR + phi,
                x0=c * x0 - s * y0, y0=s * x0 + c * y0, frequency=F)


angles = st.floats(-4.0, 4.0)
random_link = st.fixed_dictionaries({
    "L_T": st.floats(0.05, 2.0), "L_R": st.floats(0.1, 10.0),
    "theta_T": angles, "theta_R": angles,
    "x0": st.floats(-25.0, 25.0), "y0": st.floats(-25.0, 25.0),
    "frequency": st.floats(1e9, 1e11),
})


@given(links=st.lists(random_link, min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_random_links(links):
    check(links)


@given(links=st.lists(random_link, min_size=1, max_size=30),
       share=st.floats(-0.5, 0.5), points=st.integers(1, 9))
@settings(max_examples=100, deadline=None)
def test_point_on_broadcasts(links, share, points):
    """``point_on`` over the fields of ``link_arrays`` gives every link's
    scalar ``point_on`` pair bit for bit: one receive point per link, and
    a row of transmit points per link."""
    arrays = link_arrays(**{k: [lk[k] for lk in links] for k in KEYS})
    rx = point_on(arrays.theta_R, share * arrays.L_R, (arrays.x0, arrays.y0))
    grid = np.linspace(-0.5, 0.5, points)
    tx = point_on(arrays.theta_T[:, None], grid * arrays.L_T[:, None])
    for i, params in enumerate(links):
        lk = make_link(**params)
        for got, want in zip(rx, point_on(lk.theta_R, share * lk.L_R, (lk.x0, lk.y0))):
            assert same(float(got[i]), float(want)), params
        for j, g in enumerate(grid.tolist()):
            for got, want in zip(tx, point_on(lk.theta_T, g * lk.L_T)):
                assert same(float(got[i, j]), float(want)), params


@given(base=random_link, key=st.sampled_from(KEYS), steps=st.integers(1, 60),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_sweeps(base, key, steps, data):
    """A sweep of each parameter over (part of) its CLI benchmark range."""
    lo, hi = SWEEP_RANGES[key]
    start = data.draw(st.floats(lo, hi))
    stop = data.draw(st.floats(lo, hi))
    check([{**base, key: float(v)} for v in np.linspace(start, stop, steps)])


def check_sweep(base, key, values):
    """A sweep of ``key`` over ``values`` with the six other parameters
    scalars: those fields stay 0-d, and every ``DofResult`` and
    ``VisibilityReport`` field has the sweep's shape and the values of the
    same links built from lists, bit for bit."""
    sweep = link_arrays(**{**base, key: values})
    field = "wavelength" if key == "frequency" else key
    assert [name for name, v in vars(sweep).items() if np.ndim(v)] == [field]
    got = dof_arrays(sweep)
    want = dof_arrays(link_arrays(**{k: [base[k]] * len(values) for k in KEYS
                                     if k != key}, **{key: values.tolist()}))
    assert got.warnings == want.warnings == []
    pairs = [(getattr(got, name), getattr(want, name)) for name in DOF_FIELDS]
    pairs += [(getattr(got.visibility, name), getattr(want.visibility, name))
              for name in ("status", "visible_endpoint", *SEGMENT_FIELDS)]
    for g, w in pairs:
        assert g.shape == w.shape == (len(values),), key
        assert all(map(same, g.tolist(), w.tolist())), key


@pytest.mark.parametrize("x0", [-2.0, -5.0])
@pytest.mark.parametrize("steps", [1, 721])
@pytest.mark.parametrize("key", KEYS)
def test_sweep_constants_stay_0d(key, steps, x0):
    """Each parameter swept over its whole CLI benchmark range, and in one
    step, on two links whose theta_R sweeps cross every visibility branch
    between them (touching at x0 = -2, partial-tx at -5)."""
    base = dict(L_T=0.2, L_R=5.0, theta_T=np.pi / 2, theta_R=-0.9, x0=x0, y0=1.0,
                frequency=F)
    check_sweep(base, key, np.linspace(*SWEEP_RANGES[key], steps))


@given(base=random_link, key=st.sampled_from(KEYS), steps=st.integers(1, 60),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_random_sweep_constants_stay_0d(base, key, steps, data):
    lo, hi = SWEEP_RANGES[key]
    start = data.draw(st.floats(lo, hi))
    stop = data.draw(st.floats(lo, hi))
    check_sweep(base, key, np.linspace(start, stop, steps))


# the families of TestDegenerateLinks, each over the whole rotation circle
PHIS = np.linspace(-np.pi, np.pi, 97)
SEED24 = (0.2, 5.0, 0.0, 0.0, 0.0, 12.696287677267755)
FAMILIES = {
    "collinear-overlap": [(0.2, 5.0, 0.0, thR, 0.0, y0)
                          for thR in (0.0, np.pi) for y0 in (0.0, 1.0, -2.5, 2.55)],
    "collinear-disjoint": [SEED24] + [(0.2, 5.0, 0.0, thR, 0.0, y0)
                                      for thR in (0.0, np.pi) for y0 in (2.7, -12.7)],
    "parallel": [(0.2, 5.0, 0.0, thR, x0, y0)
                 for thR, x0 in ((np.pi, 10.0), (0.0, 10.0), (0.0, -10.0))
                 for y0 in (0.0, 3.0, -7.5)],
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_degenerate_families(family):
    links = [rotated(phi, *args) for args in FAMILIES[family] for phi in PHIS]
    statuses = set(check(links).visibility.status.tolist())
    assert statuses <= {geometry.TOUCHING, geometry.NO_VISIBILITY, geometry.FULL}


def test_collinear_calls():
    """The collinear calls of TestDegenerateLinks, among them ROADMAP 3a's
    ``make_link(0.2, 5, 1e-15, 0, -6.5e-134, 1)``, and seed 24's rotation."""
    links = [dict(L_T=0.2, L_R=5.0, theta_T=thT, theta_R=0.0, x0=x0, y0=1.0,
                  frequency=F)
             for thT, x0 in ((1e-15, -6.5e-134), (1e-9, -6.5e-134), (1e-15, 0.0))]
    links.append(rotated(2.6333595454112437, *SEED24))
    res = check(links)
    assert res.visibility.status.tolist() == [geometry.TOUCHING] * 3 + [geometry.NO_VISIBILITY]


def test_collinear_overlap_edge():
    """Collinear links whose centre distance rounds onto the overlap edge
    (L_T + L_R) / 2: the decision follows the link's ``d0``, on both
    paths."""
    half = 0.5 * (0.2 + 5.0)
    links = [rotated(phi, 0.2, 5.0, 0.0, 0.0, 0.0, d)
             for d in (half, np.nextafter(half, 3.0))
             for phi in np.linspace(-np.pi, np.pi, 2001)]
    statuses = check(links).visibility.status.tolist()
    assert {geometry.TOUCHING, geometry.NO_VISIBILITY} <= set(statuses)


@given(phi=st.floats(-np.pi, np.pi), family=st.sampled_from(sorted(FAMILIES)),
       y0=st.floats(-15.0, 15.0), tilt=st.sampled_from([0.0, 1e-15, -1e-12, 1e-9]))
@settings(max_examples=150, deadline=None)
def test_degenerate_any_rotation(phi, family, y0, tilt):
    """Random rotations, offsets and near-degenerate tilts of each family."""
    links = [rotated(phi, L_T, L_R, thT + tilt, thR, x0, y0)
             for L_T, L_R, thT, thR, x0, _ in FAMILIES[family]]
    check(links)


@given(phi=st.floats(-np.pi, np.pi), thR=st.sampled_from([0.0, np.pi, 1e-12]),
       y0=st.floats(-12.0, 12.0), band=st.sampled_from([-2, -1, 0, 1, 2]),
       nudge=st.sampled_from([-1, 0, 1]))
@settings(max_examples=200, deadline=None)
def test_band_edges(phi, thR, y0, band, nudge):
    """The receive centre at whole multiples of the zero band's half-width
    ahead of the transmit line (one ulp either side), in a rotated scene:
    decisions that sit on the band's edge."""
    L_T, L_R = 0.2, 5.0
    tol = 8 * 2.0 ** -52 * (abs(y0) + 0.5 * (L_T + L_R))
    x0 = band * tol
    if nudge:
        x0 = np.nextafter(x0, nudge * np.inf)
    check([rotated(phi, L_T, L_R, 0.0, thR, x0, y0),
           dict(L_T=L_T, L_R=L_R, theta_T=0.0, theta_R=thR, x0=x0, y0=y0,
                frequency=F)])


# make_link's checks in their order, each as (field, bad value, message)
CHECK_ORDER = [
    ("frequency", -1e9, "frequency must be positive"),
    ("L_T", 0.0, "array length must be positive and finite"),
    ("theta_T", np.nan, "array rotation and center must be finite"),
    ("L_R", np.inf, "array length must be positive and finite"),
    ("theta_R", -np.inf, "array rotation and center must be finite"),
    ("x0", np.inf, "array rotation and center must be finite"),
    ("y0", np.nan, "array rotation and center must be finite"),
    ("frequency", 1e-320, "wavelength must be positive and finite"),
]


class TestValidation:
    """A bad link in an array raises make_link's error for the first bad
    link, as a loop over the links would."""

    @pytest.mark.parametrize("first,second", [
        (a, b) for a, b in itertools.combinations(CHECK_ORDER, 2) if a[0] != b[0]],
        ids=lambda check: check[0])
    def test_check_order_in_one_link(self, first, second):
        """Two bad fields in one link: the earlier check's message, from
        make_link and from link_arrays alike."""
        base = dict(L_T=0.2, L_R=5.0, theta_T=0.0, theta_R=np.pi, x0=10.0, y0=0.0,
                    frequency=F)
        bad = {first[0]: first[1], second[0]: second[1]}
        with pytest.raises(ValueError, match=first[2]):
            make_link(**{**base, **bad})
        with pytest.raises(ValueError, match=first[2]):
            link_arrays(**{**base, **{k: [base[k], v] for k, v in bad.items()}})

    @pytest.mark.parametrize("key,values,message", [
        ("L_T", [1.0, 0.5, 0.0, -1.0], "array length must be positive and finite"),
        ("L_R", [1.0, np.inf], "array length must be positive and finite"),
        ("frequency", [1e9, -1e9], "frequency must be positive"),
        ("frequency", [1e9, 1e-320], "wavelength must be positive and finite"),
        ("frequency", [1e9, np.nan], "wavelength must be positive and finite"),
    ])
    def test_messages(self, key, values, message):
        base = dict(L_T=0.2, L_R=5.0, theta_T=0.0, theta_R=np.pi, x0=10.0, y0=0.0,
                    frequency=F)
        with pytest.raises(ValueError, match=message):
            link_arrays(**{**base, key: values})

    def test_overflowing_count(self):
        # a 1e20 m transmit array at 1.7e308 Hz: l_T / lambda overflows
        args = (1e20, 5.0, 0.0, np.pi, 1e6, 0.0)
        with pytest.raises(OverflowError, match="cannot convert float infinity"):
            dof(make_link(*args, frequency=1.7e308))
        with pytest.raises(OverflowError, match="cannot convert float infinity"):
            dof_arrays(link_arrays(*args, frequency=[F, 1.7e308]))

    def test_first_bad_link_decides(self):
        # link 1 fails on its frequency, link 2 on its length: link 1 wins,
        # and within a link the frequency is checked before the lengths
        with pytest.raises(ValueError, match="frequency must be positive"):
            link_arrays(L_T=[0.2, -1.0, -1.0], L_R=5.0, theta_T=0.0, theta_R=np.pi,
                        x0=10.0, y0=0.0, frequency=[F, -F, F])
        # link 1 has a non-finite rotation or centre, link 2 a bad length:
        # link 1 wins with make_link's error, which a sweep would once have
        # turned into a no-visibility step
        base = dict(L_T=[0.2, 0.2, -1.0], L_R=5.0, theta_T=0.0, theta_R=np.pi,
                    x0=10.0, y0=0.0, frequency=F)
        for key, value in (("theta_T", np.nan), ("x0", np.inf), ("y0", np.nan)):
            values = [base[key], value, base[key]]
            with pytest.raises(ValueError, match="rotation and center must be finite"):
                make_link(**{**base, "L_T": 0.2, key: value})
            with pytest.raises(ValueError, match="rotation and center must be finite"):
                link_arrays(**{**base, key: values})
