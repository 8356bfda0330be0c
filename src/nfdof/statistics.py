"""Distribution of the mode count over random receive placements.

Deployment model: the receive array center falls uniformly in a disk of
radius R around the transmitter; by symmetry the analysis is reduced to
the configuration with the center on the +x axis at distance ``x0 > 0``
(density 4 sqrt(R^2 - x0^2) / (pi R^2)), the receive array vertical and
facing the transmitter, and the transmit rotation ``theta_T`` uniform.

Everything is expressed in the excess mode count

    mu = m - 1 = C |rho_plus - rho_minus|,   C = L_T / lambda,

whose conditional laws have closed arcsine-type forms on each visibility
branch.  With a = arctan(L_R / 2 x0):

* one receive endpoint visible (two symmetric branches of width 2a):
  mu = C (1 + sin(theta_T -/+ a)) on branch-local coordinates,
* full visibility (width pi - 2a): mu = 2 C sin(a) cos(theta_T).

For a threshold mu the conditional laws switch on and off at two axis
distances with closed forms (h = L_R / 2):

    omega(mu) = h sqrt((2C - mu) / mu)
    psi(mu)   = h sqrt((2C - mu)(2C + mu)) / mu

Under full visibility mu is always exceeded for x0 < omega and never for
x0 > psi; on an endpoint branch it is exceeded only for x0 < omega.  The
always-exceeded part is the closed-form disk CDF.  Each remaining
integral, clipped to R, is one fixed 48-node Gauss-Legendre rule in a
variable that makes the square-root behaviour at psi and R and the scale
h next to x0 = 0 smooth, and each block of 512 thresholds is one
(block x nodes) numpy evaluation.  The CCDF difference from a 64-node
rule is the error estimate carried by ``DistributionCurve``, and a curve
that is not finite is refused.  The conditional-on-x0 scenario evaluates
the same per-x0 laws at its fixed x0.  The per-point adaptive quadrature
with explicit breakpoints at omega and psi lives in
``tests/deconditioning_oracle.py`` as the reference.

Monte Carlo driven by the same branch structure cross-validates the
analytic curves.  It draws in fixed chunks of 2^15 on worker threads,
one per CPU, started on the first Monte Carlo call and kept for the
process (a forked child starts its own).  Each worker writes every chunk
into one set of chunk-sized buffers that it keeps, about 2.5 MB, so a
call allocates no chunk-sized array and faults no pages in.  Each chunk
jumps straight to its own positions of the one counter-based Philox
stream, so the draws are the same bits on any CPU count, and ``ccdf``
counts each chunk on the thread that drew it.
A recipe's curves (several radii, or several fixed x0 and L_R, at one
seed and draw count) open the same stream, so they share each chunk's
draws: the chunk draws its uniforms once for all of them, and each curve
is bitwise its own ``ccdf``.
Its vectorized branch evaluator runs each formula on its own branch's
draws only; ``tests/test_statistics.py`` replays the draws through the
link engine ``dof_arrays``: they agree except where x0 <= (L_T / 2)
|sin(theta_T)|, whose segments intersect, which the engine calls touching.
"""

import math
import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import wavelength_from_frequency
from .numerics import gauss_legendre, sample_stream, usable_cpus

__all__ = [
    "PARTIAL_R_PLUS", "PARTIAL_R_MINUS", "FULL_VISIBILITY", "CONDITIONAL_ON_X0",
    "SCENARIOS", "MIN_MC_SAMPLES", "ScenarioConfig", "DistributionCurve",
    "pdf", "pov", "ccdf", "monte_carlo", "excess_dof_branches",
    "empirical_ccdf", "visibility_fraction", "branch_interval",
]

PARTIAL_R_PLUS = "partial-r-plus"
PARTIAL_R_MINUS = "partial-r-minus"
FULL_VISIBILITY = "full-visibility"
CONDITIONAL_ON_X0 = "conditional-on-x0"

SCENARIOS = (PARTIAL_R_PLUS, PARTIAL_R_MINUS, FULL_VISIBILITY, CONDITIONAL_ON_X0)

# fewest draws ``monte_carlo`` takes
MIN_MC_SAMPLES = 10_000


@dataclass(frozen=True)
class ScenarioConfig:
    """Deployment scenario: disk radius, array lengths, carrier, and which
    visibility branch is conditioned on; the centre distance ``x0`` is
    given in the conditional-on-x0 scenario, the one that reads it, and
    in no other."""

    R: float
    L_T: float
    L_R: float
    frequency: float
    scenario: str
    x0: Optional[float] = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.x0 is not None and not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")
        if self.scenario == CONDITIONAL_ON_X0:
            if self.x0 is None or not (0.0 < self.x0 <= self.R):
                raise ValueError(f"x0 must be in (0, R] in the {CONDITIONAL_ON_X0!r} "
                                 f"scenario, got {self.x0!r} with R = {self.R!r}")
        elif self.x0 is not None:
            raise ValueError(f"x0 must be given only in the {CONDITIONAL_ON_X0!r} "
                             f"scenario, which alone reads it, got {self.x0!r} "
                             f"in {self.scenario!r}")
        if not all(math.isfinite(v) and v > 0
                   for v in (self.R, self.L_T, self.L_R, self.frequency)):
            raise ValueError("R, lengths, and frequency must be positive and finite")
        if not math.isfinite(self.wavelength):   # 3e8 / frequency overflowed
            raise OverflowError("wavelength must be positive and finite")

    @property
    def wavelength(self):
        return wavelength_from_frequency(self.frequency)

    @property
    def C(self):
        """Mode-count scale L_T / lambda; support of mu is [0, 2C]."""
        return self.L_T / self.wavelength


@dataclass(frozen=True)
class DistributionCurve:
    """Analytic PDF/CCDF on a threshold grid, an optional Monte Carlo
    CCDF, and the deconditioning rule's node count and error estimate,
    the largest CCDF difference from a 64-node rule (0 and 0.0 for the
    closed-form conditional scenario)."""

    grid: np.ndarray
    pdf: np.ndarray
    ccdf: np.ndarray
    mc_ccdf: Optional[np.ndarray] = None
    quadrature_nodes: int = 0
    abs_error_estimate: float = 0.0


def _half_angle(x0, L_R, out=None):
    """arctan(L_R / 2 x0), built in ``out`` if given."""
    a = np.multiply(2.0, x0, out=out)
    a = np.divide(L_R, a, out=out)
    return np.arctan(a, out=out)


# ---------------------------------------------------------------------------
# Array-valued deconditioning core
# ---------------------------------------------------------------------------

_NODES = 48
# thresholds per (block x nodes) evaluation of _deconditioned: each
# threshold's row and its sum over the nodes do not depend on the block,
# and the temporaries stay in cache, a few MB at any grid size (1024 or
# more thresholds per block ran 1.7-2x slower on a 10^5-point grid)
_BLOCK = 512
# the error estimate compares the curve with this finer rule
_CHECK_NODES = 64
# A second square-root point closer to the interval end than this share
# of the interval (in the sinh variable) is treated as coinciding with it;
# grading the nodes further costs the fixed rule more accuracy elsewhere
# than the unresolved sliver is worth (checked against 30-digit quadrature).
_COINCIDENT = 1e-8

# n-point Gauss-Legendre nodes and weights on (0, 1)
_RULES = {n: (0.5 * (t + 1.0), 0.5 * w)
          for n in (_NODES, _CHECK_NODES) for t, w in [gauss_legendre(n)]}


def _asinh_gap(a, b, h):
    """asinh(b / h) - asinh(a / h) for 0 <= a <= b, exact as a -> b."""
    return np.arcsinh((b - a) * (b + a) / (b * np.hypot(h, a) + a * np.hypot(h, b)))


def _support_edges(mu, C, h):
    """Axis distances omega(mu) < psi(mu), for 0 < mu < 2C, that bound
    the conditional laws: mu < 2C sin^2(a) iff x0 < omega, and
    mu < 2C sin(a) iff x0 < psi (h = L_R / 2, a = arctan(h / x0))."""
    omega = h * np.sqrt((2.0 * C - mu) / mu)
    psi = h * np.sqrt((2.0 * C - mu) * (2.0 * C + mu)) / mu
    return omega, psi


def _disk_cdf(x, R):
    """P[x0 <= x] under the disk-placement density, written with R - x
    and atan2 so it keeps full accuracy as x -> R."""
    q = np.sqrt((R - x) * (R + x))
    return (2.0 / np.pi) * (x * q / (R * R) + np.arctan2(x, q))


def _full_law(mu, x, psi, psi_gap, C, h):
    """Full-visibility conditional PDF and CCDF of mu at axis distance x,
    for omega(mu) <= x < psi(mu), given psi_gap = psi - x.

    theta_T spans a width 2 arctan(x / h), and with z = mu / (2 C sin a)
    the root sqrt(1 - z^2) = mu sqrt(psi_gap (psi + x)) / (2 C h) stays
    accurate as x -> psi."""
    half_width = np.arctan2(x, h)
    root = mu * np.sqrt(psi_gap * (psi + x)) / (2.0 * C * h)
    z = mu * np.hypot(x, h) / (2.0 * C * h)
    pdf = z / (half_width * mu * root)
    return pdf, np.arctan2(root, z) / half_width


def _partial_law(mu, x, omega, omega_gap, C, h):
    """Conditional PDF and CCDF of mu on one endpoint branch at axis
    distance x < omega(mu), given omega_gap = omega - x.  The CCDF is
    (a(x) - a(omega)) / a(x), with the difference of arctangents taken
    in one piece."""
    a = np.arctan2(h, x)
    pdf = 1.0 / (2.0 * a * np.sqrt(mu * (2.0 * C - mu)))
    return pdf, np.arctan2(h * omega_gap, x * omega + h * h) / a


def _deconditioned(mu, R, C, h, scenario, nodes):
    """PDF and CCDF of mu (0 < mu < 2C) marginalized over the disk
    placement, as one (thresholds x nodes) evaluation of a fixed rule.

    Each integral runs over [lo, hi] with a square-root point at hi (psi
    or R) and possibly a second one at hi + delta.  Nodes sit at
    x = h sinh(s): the sinh variable resolves a(x) = arctan(h / x) on its
    scale h next to x = 0 and is logarithmic beyond it.  In s the rule
    places s_hi - s = L (sinh(T v) / sinh T)^2 for Gauss-Legendre v, with
    sinh^2 T = L / delta, which makes both sqrt(s_hi - s) and
    sqrt(s_hi + delta - s) smooth in v (and reduces to L v^2 when the
    second point is far).  The gaps from x to R, psi and omega are formed
    from hi - x without cancellation."""
    v, w = _RULES[nodes]
    omega, psi = _support_edges(mu, C, h)
    if scenario == FULL_VISIBILITY:
        lo, hi = np.minimum(omega, R), np.minimum(psi, R)
        head = _disk_cdf(lo, R)        # mu always exceeded for x0 < omega
        delta = _asinh_gap(hi, np.maximum(psi, R), h)
    else:
        lo, hi = np.zeros_like(mu), np.minimum(omega, R)
        head = 0.0
        delta = np.where(omega < R, _asinh_gap(hi, R, h), np.inf)
    span = _asinh_gap(lo, hi, h)
    T = np.arcsinh(np.sqrt(span / np.maximum(delta, _COINCIDENT * span)))
    T = np.maximum(T, 1e-8)[:, None]   # T -> 0 is the v^2 limit; keeps 0/0 out
    shape = np.sinh(T * v) / np.sinh(T)
    d = span[:, None] * shape ** 2                       # s_hi - s
    dd = 2.0 * span[:, None] * shape * T * np.cosh(T * v) / np.sinh(T)
    s = np.arcsinh(hi / h)[:, None] - d
    x = h * np.sinh(s)
    drop = 2.0 * h * np.cosh(s + 0.5 * d) * np.sinh(0.5 * d)   # hi - x
    r_gap = (R - hi)[:, None] + drop
    area = np.float64(np.pi * R * R)   # 0 below R ~ 1e-162: inf, which _curve refuses
    dens = (4.0 * h / area) * np.sqrt(r_gap * (R + x)) * np.cosh(s) * dd * w
    mu = mu[:, None]
    if scenario == FULL_VISIBILITY:
        pdf, cc = _full_law(mu, x, psi[:, None], (psi - hi)[:, None] + drop, C, h)
    else:
        pdf, cc = _partial_law(mu, x, omega[:, None],
                               (omega - hi)[:, None] + drop, C, h)
    return np.sum(pdf * dens, axis=1), head + np.sum(cc * dens, axis=1)


def _at_x0(mu, x0, C, h):
    """Per-branch conditional laws at a fixed x0 (0 < mu < 2C): the
    partial-branch and full-visibility (PDF, CCDF) pairs, masked to
    their supports."""
    omega, psi = _support_edges(mu, C, h)
    in_partial = x0 < omega
    in_full = (omega < x0) & (x0 < psi)
    with np.errstate(all="ignore"):
        pdf_p, cc_p = _partial_law(mu, x0, omega, omega - x0, C, h)
        pdf_f, cc_f = _full_law(mu, x0, psi, psi - x0, C, h)
    return (np.where(in_partial, pdf_p, 0.0), np.where(in_partial, cc_p, 0.0),
            np.where(in_full, pdf_f, 0.0),
            np.where(x0 <= omega, 1.0, np.where(in_full, cc_f, 0.0)))


def _curve(cfg: ScenarioConfig, mu, nodes=_NODES):
    """(PDF, CCDF) of the scenario on an array of thresholds; a value that
    is not finite, as past R ~ 1.3e154 or below ~1.5e-154 (R * R leaves the
    float range) or at an extreme C, is refused, naming R, C and L_R."""
    mu = np.asarray(mu, dtype=float)
    C, h = cfg.C, cfg.L_R / 2.0
    inside = (mu > 0.0) & (mu < 2.0 * C)
    pdf = np.zeros(mu.shape)
    cc = np.where(mu <= 0.0, 1.0, 0.0)
    if cfg.scenario == CONDITIONAL_ON_X0:
        v_partial, v_full, v_total = _mixture_weights(cfg.x0, cfg.L_R)
        pdf_p, cc_p, pdf_f, cc_f = _at_x0(mu[inside], cfg.x0, C, h)
        pdf[inside] = (2.0 * v_partial * pdf_p + v_full * pdf_f) / v_total
        cc[inside] = (2.0 * v_partial * cc_p + v_full * cc_f) / v_total
    else:
        with np.errstate(all="ignore"):   # a curve that is not finite is refused
            at = np.flatnonzero(inside)
            for i in range(0, at.size, _BLOCK):
                block = at[i:i + _BLOCK]
                pdf.flat[block], cc.flat[block] = _deconditioned(
                    mu.flat[block], cfg.R, C, h, cfg.scenario, nodes)
    if not (np.all(np.isfinite(pdf)) and np.all(np.isfinite(cc))):
        raise ValueError(f"the analytic curve is not finite at R = {cfg.R!r}, "
                         f"C = L_T/lambda = {C!r}, L_R = {cfg.L_R!r}")
    return pdf, cc


def pdf(cfg: ScenarioConfig, mu):
    """Density of mu under the scenario, for a scalar or array of mu."""
    return _curve(cfg, mu)[0]


def pov(x0, L_R):
    """Probability that the receive array is at least partially visible:
    1/2 + arctan(L_R / 2 x0) / pi; a float for scalars, an array of the
    broadcast shape for arrays."""
    _check_placement(x0, L_R)
    v_total = _mixture_weights(x0, L_R)[2]
    return float(v_total) if np.ndim(v_total) == 0 else v_total


def _check_placement(x0, L_R):
    """Refuse an axis distance, then a receive length, that is not
    positive and finite."""
    if not np.all(np.isfinite(x0) & np.greater(x0, 0.0)):
        raise ValueError("x0 must be positive")
    if not np.all(np.isfinite(L_R) & np.greater(L_R, 0.0)):
        raise ValueError("L_R must be positive and finite")


def _mixture_weights(x0, L_R):
    """(per-partial-branch weight, full weight, total visible weight)."""
    a = _half_angle(x0, L_R)
    v_partial = a / np.pi                # each of the two endpoint branches
    v_full = (np.pi - 2.0 * a) / (2.0 * np.pi)
    v_total = 0.5 + a / np.pi
    return v_partial, v_full, v_total


# theta_T edges (lo, hi) of each scenario's branch, a = arctan(L_R / 2 x0),
# each written (sign, offset) for offset + sign * a
_BRANCHES = {PARTIAL_R_PLUS: ((-1, -np.pi / 2.0), (1, -np.pi / 2.0)),
             PARTIAL_R_MINUS: ((-1, np.pi / 2.0), (1, np.pi / 2.0)),
             FULL_VISIBILITY: ((1, -np.pi / 2.0), (-1, np.pi / 2.0)),
             CONDITIONAL_ON_X0: ((-1, -np.pi / 2.0), (1, np.pi / 2.0))}


def _edge(a, sign, offset, out=None):
    """The branch edge offset + sign * a, as -a - pi/2, a - pi/2, pi/2 - a
    or pi/2 + a round it (x - y is x + (-y) in floating point), built in
    ``out`` if given."""
    return np.add(np.negative(a, out=out) if sign < 0 else a, offset, out=out)


def branch_interval(x0, L_R, scenario):
    """theta_T interval (lo, hi) of the scenario's visibility branch."""
    if scenario not in _BRANCHES:
        raise ValueError(f"unknown scenario {scenario!r}")
    _check_placement(x0, L_R)
    a = _half_angle(x0, L_R)
    return tuple(_edge(a, *edge) for edge in _BRANCHES[scenario])


def excess_dof_branches(x0, theta_T, L_R, C):
    """Vectorized mu over the three visibility branches (axis-aligned
    deployment family), the endpoint ones open and the full one closed.
    Returns (mu, in_rplus, in_full, in_rminus); mu = 0 outside them."""
    x0, theta_T = np.asarray(x0, dtype=float), np.asarray(theta_T, dtype=float)
    shape = np.broadcast_shapes(x0.shape, theta_T.shape)
    a = _half_angle(x0, L_R)
    if np.ndim(a):
        a = np.broadcast_to(a, shape).ravel()
    buf = _Buffers(shape)
    _excess_dof(a, np.broadcast_to(theta_T, shape).ravel(), C, buf)
    if not shape:                     # scalars: a 0-d mu and numpy-bool masks
        return (buf.mu,) + tuple(b[()] for b in buf.masks[:3])
    return (buf.mu,) + buf.masks[:3]


class _Buffers:
    """Arrays of one shape: those ``_excess_dof`` writes (mu, one theta_T
    edge, two branch gathers, the three branch masks and one more), and
    those a Monte Carlo chunk draws into (its radius, angle and theta_T
    uniforms, or sqrt(u) and cos(2 pi v) made of them, its half angle and
    its theta_T)."""

    def __init__(self, shape):
        self.mu, self.edge, self.t, self.x = (np.empty(shape) for _ in range(4))
        self.masks = tuple(np.empty(shape, bool) for _ in range(4))
        self.s, self.c, self.u, self.a, self.theta = (np.empty(shape) for _ in range(5))


# the branches in the order _excess_dof writes them, and whether their
# edges belong to them
_WRITTEN = ((PARTIAL_R_PLUS, False), (FULL_VISIBILITY, True), (PARTIAL_R_MINUS, False))


def _excess_dof(a, theta_T, C, buf):
    """``excess_dof_branches`` of the k flat theta_T at the half angle a,
    an array as long or a scalar (whose edges and sin(a) are then taken
    once), written into the first k of each of ``buf``'s arrays; returns
    the views of mu and the three masks.  Each formula runs on its own
    branch's draws, gathered into ``buf``, written r-plus, full, r-minus,
    so a later branch wins where two meet."""
    k, scalar = theta_T.size, np.ndim(a) == 0
    mu, edge, cut = (v.reshape(-1)[:k] for v in (buf.mu, buf.edge, buf.masks[3]))
    masks = []
    for (scenario, closed), b in zip(_WRITTEN, buf.masks):
        b = b.reshape(-1)[:k]
        lo, hi = _BRANCHES[scenario]
        above, below = (np.greater_equal, np.less_equal) if closed else (np.greater, np.less)
        above(theta_T, _edge(a, *lo, out=None if scalar else edge), out=b)
        below(theta_T, _edge(a, *hi, out=None if scalar else edge), out=cut)
        masks.append(np.logical_and(b, cut, out=b))
    b_plus, b_full, b_minus = masks

    def gather(b):
        """The indices of branch b, and theta_T and a on it, a left whole
        if scalar (``clip`` only keeps ``take`` from buffering its output:
        every index is in range)."""
        at = np.flatnonzero(b)
        t = np.take(theta_T, at, out=buf.t.reshape(-1)[:at.size], mode="clip")
        x = a if scalar else np.take(a, at, out=buf.x.reshape(-1)[:at.size], mode="clip")
        return at, t, x

    mu.fill(0.0)
    at, t, x = gather(b_plus)                    # C (1 + sin(theta_T + a))
    v = np.add(t, x, out=t)
    mu[at] = np.multiply(C, np.add(1.0, np.sin(v, out=v), out=v), out=v)
    at, t, x = gather(b_full)                    # 2 C sin(a) cos(theta_T)
    keep = None if scalar else x
    x = np.multiply(2.0 * C, np.sin(x, out=keep), out=keep)
    mu[at] = np.multiply(x, np.cos(t, out=t), out=t)
    at, t, x = gather(b_minus)                   # C (1 + sin(a - theta_T))
    v = np.subtract(x, t, out=t)
    mu[at] = np.multiply(C, np.add(1.0, np.sin(v, out=v), out=v), out=v)
    return mu, b_plus, b_full, b_minus


def _disk_x0(s, c, R, out):
    """Axis distances of disk placements of radius R from s = sqrt(u) of
    the radius uniforms and c = cos(2 pi v) of the angle uniforms:
    |R s c|, floored at 1e-12 R, built in ``out``."""
    x0 = np.multiply(s, R, out=out)
    x0 *= c
    np.abs(x0, out=x0)
    return np.maximum(x0, 1e-12 * R, out=x0)


# draws per Monte Carlo chunk; the samples do not depend on it
_CHUNK = 1 << 15


def _uniforms(state, start, out):
    """Uniforms of the fresh Philox stream whose state is ``state``, from
    position ``start`` on, written into ``out``: the counter skips the
    whole blocks of four doubles before it, and the rest of its block is
    drawn and dropped."""
    bits = np.random.Philox(counter=state["counter"], key=state["key"])
    bits.advance(start // 4)
    rng = np.random.Generator(bits)
    rng.random(start % 4)
    return rng.random(out=out)


# The Monte Carlo workers: one job queue each, started on the first call
# that needs them and kept for the process, each with its own chunk
# buffers.  A forked child has none of its parent's threads, so it forgets
# them and starts its own.
_workers = []
_workers_lock = threading.Lock()
_fork_hooked = False


def _forget_workers():
    global _workers_lock
    _workers.clear()
    _workers_lock = threading.Lock()


def _worker(jobs):
    """Make one set of chunk buffers, then run every job on them, each
    reporting its exception, or None, on its own queue."""
    buf = _Buffers(_CHUNK)
    while True:
        loop, done = jobs.get()
        try:
            loop(buf)
        except BaseException as exc:   # raised again in the calling thread
            done.put(exc)
        else:
            done.put(None)


def _run(loop, width):
    """Call ``loop(buffers)`` on each of the first ``width`` workers,
    starting those that do not run yet, and wait for every call; the first
    exception is raised here."""
    import queue
    global _fork_hooked
    with _workers_lock:
        if not _fork_hooked and hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=_forget_workers)
            _fork_hooked = True
        while len(_workers) < width:
            _workers.append(queue.SimpleQueue())
            threading.Thread(target=_worker, args=(_workers[-1],), daemon=True,
                             name=f"nfdof-monte-carlo-{len(_workers)}").start()
        chosen = _workers[:width]
    done = queue.SimpleQueue()
    for jobs in chosen:
        jobs.put((loop, done))
    errors = [exc for exc in [done.get() for _ in chosen] if exc is not None]
    if errors:
        raise errors[0]


def _chunked(cfgs, n, seed, each):
    """Call ``each(i, start, mu)`` on every chunk of the n draws of every
    config ``cfgs[i]``, mu a view of draws [start, start + 2^15) or the
    rest that ``each`` may sort in place, on one thread per CPU (no more
    than chunks); ``each`` runs on the thread that drew its chunk and
    keeps its result in place.

    The threads are workers kept for the process (``_run``), each with one
    set of chunk buffers (``_Buffers``, 9 float and 4 bool arrays of 2^15,
    2.5 MB) made on the first call that starts it: every chunk is written
    into them, so a call allocates no chunk-sized array.  A call hands
    each of min(CPUs, chunks) workers a loop that takes chunk starts from
    one shared counter.

    The configs are one family: they share the seed and n, and either all
    draw x0 from the disk or all fix it, so every config reads the same
    uniforms.  Each chunk draws them once, and with x0 drawn from the disk
    also takes sqrt(u) and cos(2 pi v) once; then, config by config in
    order, it scales them to the config's x0 and theta_T.  Each chunk jumps
    to its own positions of the one stream, opened once, here: the draws
    are the same bits on any CPU count and in any family, and the threads
    call no public function."""
    if n < MIN_MC_SAMPLES:
        raise ValueError("need at least 1e4 samples")
    fixed = {cfg.scenario == CONDITIONAL_ON_X0 for cfg in cfgs}
    if len(fixed) != 1:
        raise ValueError("a family of curves either draws x0 from the disk "
                         "for every curve or fixes it for every curve")
    fixed, n = fixed.pop(), int(n)
    state = sample_stream(seed, 0).bit_generator.state["state"]

    def chunk(start, buf):
        """Draws [start, start + k): the radius, angle and theta_T
        uniforms sit at stream positions start, n + start and 2n + start,
        and with a fixed x0 theta_T takes position start."""
        k = min(_CHUNK, n - start)
        if not fixed:
            s = np.sqrt(_uniforms(state, start, buf.s[:k]), out=buf.s[:k])
            c = _uniforms(state, n + start, buf.c[:k])
            c *= 2.0 * np.pi
            np.cos(c, out=c)
        u = _uniforms(state, (0 if fixed else 2 * n) + start, buf.u[:k])
        # with x0 drawn, x0 and then a are built in buf.a, lo in buf.edge,
        # and hi, then the width and theta_T in buf.theta
        spare = (None, None) if fixed else (buf.edge[:k], buf.theta[:k])
        for i, cfg in enumerate(cfgs):
            if fixed:
                a = _half_angle(float(cfg.x0), cfg.L_R)
            else:
                a = _half_angle(_disk_x0(s, c, cfg.R, buf.a[:k]), cfg.L_R, buf.a[:k])
            lo, hi = (_edge(a, *edge, out=o) for edge, o in zip(_BRANCHES[cfg.scenario], spare))
            width = np.subtract(hi, lo, out=spare[1])
            theta_T = np.multiply(u, width, out=buf.theta[:k])
            theta_T += lo
            each(i, start, _excess_dof(a, theta_T, cfg.C, buf)[0])

    starts, take = iter(range(0, n, _CHUNK)), threading.Lock()

    def loop(buf):
        """Draw and hand on chunks until none is left."""
        while True:
            with take:
                start = next(starts, None)
            if start is None:
                return
            chunk(start, buf)

    _run(loop, min(usable_cpus(), -(-n // _CHUNK)))


def monte_carlo(cfg: ScenarioConfig, n, seed=0):
    """mu samples of the scenario, deterministic for a given seed.

    The axis distance is drawn from the disk-placement density (or fixed
    for the conditional scenario, whose edges are then scalars) and
    theta_T uniformly over the scenario's branch interval, so every draw
    is accepted by construction; each branch formula runs only on its own
    branch's draws, and each chunk writes its own slice of the result."""
    out = np.empty(max(int(n), 0))
    _chunked([cfg], n, seed,
             lambda i, start, mu: np.copyto(out[start:start + mu.size], mu))
    return out


def empirical_ccdf(samples, grid):
    """P[sample > threshold] for each threshold in ``grid``; an empty
    sample is refused."""
    s = np.sort(np.asarray(samples))
    if s.size == 0:
        raise ValueError("samples must not be empty")
    grid = np.asarray(grid, dtype=float)
    return 1.0 - np.searchsorted(s, grid, side="right") / len(s)


def visibility_fraction(x0, L_R, n, seed=0):
    """Monte Carlo estimate of the visibility probability at fixed x0
    with a globally uniform theta_T (cross-check for ``pov``) from ``n``
    >= 1 draws."""
    if not n >= 1:
        raise ValueError(f"n must be at least 1, got {n}")
    rng = sample_stream(seed, 1)
    theta_T = -np.pi + 2.0 * np.pi * rng.random(int(n))
    lo, hi = branch_interval(x0, L_R, CONDITIONAL_ON_X0)
    return float(np.mean((theta_T > lo) & (theta_T < hi)))


def ccdf(cfg: ScenarioConfig, grid, mc_samples=0, seed=0) -> DistributionCurve:
    """Analytic PDF/CCDF of mu on ``grid`` plus an optional Monte Carlo
    overlay with ``mc_samples`` draws, each chunk of them counted at every
    threshold on its own, so no draw array is held or sorted whole.

    Deconditioned scenarios also carry the quadrature node count and an
    error estimate: the largest CCDF difference over the grid from a
    64-node rule (the reported curve stays the 48-node one).  The
    conditional scenario is closed form (0 nodes)."""
    return _ccdfs([cfg], grid, mc_samples, seed)[0]


def _ccdfs(cfgs, grid, mc_samples, seed):
    """``ccdf`` of every config of one ``_chunked`` family on one grid, the
    Monte Carlo overlays counted on the family's shared draws; curve i is
    bitwise ``ccdf(cfgs[i], grid, mc_samples, seed)``."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty threshold grid")
    if np.any(np.diff(grid) < 0):
        raise ValueError("grid must be ascending")
    analytic = []
    for cfg in cfgs:
        pdf_, cc = _curve(cfg, grid)
        nodes, err = 0, 0.0
        if cfg.scenario != CONDITIONAL_ON_X0:
            nodes = _NODES
            err = float(np.max(np.abs(cc - _curve(cfg, grid, _CHECK_NODES)[1])))
        analytic.append((pdf_, cc, nodes, err))
    mc = [None] * len(cfgs)
    if mc_samples:
        le, lock = np.zeros((len(cfgs), grid.size), np.intp), threading.Lock()

        def count(i, start, mu):
            mu.sort()                  # the chunk's own draws, read by nothing else
            c = np.searchsorted(mu, grid, "right")
            with lock:
                np.add(le[i], c, out=le[i])
        _chunked(cfgs, mc_samples, seed, count)
        mc = 1.0 - le / int(mc_samples)
    return [DistributionCurve(grid=grid, pdf=pdf_, ccdf=cc, mc_ccdf=overlay,
                              quadrature_nodes=nodes, abs_error_estimate=err)
            for (pdf_, cc, nodes, err), overlay in zip(analytic, mc)]
