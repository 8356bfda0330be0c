"""Independent mode count from the singular spectrum of the discretized
channel matrix.

Both arrays' effective segments (``classify_visibility``'s report) are
sampled on uniform grids, and the channel H between them is the
free-space Green's function (exact distances, no expansion), written by
one evaluator, ``_green``.  The number of effective modes is read off
the singular-value sum rule: the smallest number of leading modes
holding a given fraction of the total singular power ||H||_F^2.

Two paths serve two kinds of caller.  A count needs only the total and
the leading powers, so ``_gram_powers`` takes the powers from the
eigenvalues of the smaller Gram matrix (H^H H or H H^H), which costs a
third of an SVD.  It never holds H: the evaluator fills a block of a few
hundred rows at a time in real arithmetic, and the Gram matrix is
accumulated from the blocks.  Squaring the condition number leaves the
tail of those powers at rounding level (below ~1e-7 of the first one
they may be off by orders of magnitude), so every caller that reports
the spectrum itself builds H with ``channel_matrix`` and decomposes it
with ``singular_spectrum``, the SVD, which is also the tests' oracle for
the count.  ``_count`` decides each ``svd-compare`` count: it grids the
step once, screens it on a Gauss rule over the longer side's cells, and
hands the same grid to ``_gram_powers`` where the screen cannot decide.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dof_core import _require_visible
from .geometry import LinkGeometry, classify_visibility, point_on
from .numerics import gauss_legendre

__all__ = [
    "ChannelMatrix", "SvdReport",
    "channel_matrix", "grid_shapes", "singular_spectrum", "effective_dof",
]

DEFAULT_SUM_RULE_FRACTION = 0.96
# the most entries a channel matrix may have: ``singular_spectrum``'s path
# holds H, and building and decomposing a square one takes up to ~50 bytes
# per entry, so one at the cap needs ~0.5 GB
MAX_MATRIX_ENTRIES = 10 ** 7
# the most entries the channel matrices of one run may hold together
MAX_RUN_ENTRIES = 10 ** 8
# rows of the channel matrix that the count evaluates at a time
_BLOCK_ROWS = 256
# how near the fraction a screened running share may come and still stand
# (on random links the screen's shares sit ~1e-6 from the grid's, 5e-4 at worst)
_SCREEN_MARGIN = 1e-3


@dataclass(frozen=True)
class ChannelMatrix:
    entries: np.ndarray       # (N_r, N_t) complex
    tx_points: np.ndarray     # signed coordinates along the transmit array
    rx_points: np.ndarray     # signed coordinates along the receive array
    spacing: float


@dataclass(frozen=True)
class SvdReport:
    singular_values: np.ndarray
    normalized_powers: np.ndarray     # |s_j|^2 / |s_1|^2
    cumulative_fraction: np.ndarray   # running share of sum |s_j|^2


def channel_matrix(link: LinkGeometry, spacing=None) -> ChannelMatrix:
    """Green's-function matrix over the effective segments of ``link``
    (``classify_visibility``'s report), sampled on the grids that
    ``grid_shapes`` counts and checks."""
    spacing, (tx_s, tx), (rx_s, rx) = _grids(link, classify_visibility(link), spacing)
    H = np.empty((rx_s.size, tx_s.size), dtype=complex)
    _green(2.0 * np.pi / link.wavelength, rx, tx, H.real, H.imag)
    return ChannelMatrix(entries=H, tx_points=tx_s, rx_points=rx_s,
                         spacing=float(spacing))


def _grids(link, report, spacing):
    """The spacing and, for the transmit then the receive grid, the signed
    coordinates and the (x, y) points of the samples on ``report``'s
    effective segments."""
    _require_visible(report)
    spacing = link.wavelength / 4.0 if spacing is None else spacing
    (n_r, n_t), = grid_shapes([report.l_T], [report.l_R], [link.wavelength], spacing)
    tx_s = report.eta_c + np.linspace(-report.l_T / 2.0, report.l_T / 2.0, n_t)
    rx_s = report.zeta_c + np.linspace(-report.l_R / 2.0, report.l_R / 2.0, n_r)
    return (spacing, (tx_s, point_on(link.theta_T, tx_s)),
            (rx_s, point_on(link.theta_R, rx_s, (link.x0, link.y0))))


def _green(k, rows, cols, re, im):
    """Write the real and imaginary parts of exp(-j k r) / (4 pi r), from
    the (x, y) points ``cols`` to the points ``rows``, into ``re`` and
    ``im`` (rows x cols).  These are the roundings of the complex
    expression: numpy's complex exp of 0 - j k r is cos and sin of the
    phase fl(-k r), and its complex-by-real division multiplies by the
    reciprocal fl(1 / fl(4 pi r)).  Swapping ``rows`` and ``cols`` gives
    the transpose, bit for bit."""
    r = rows[0][:, None] - cols[0]
    dy = rows[1][:, None] - cols[1]
    r *= r
    dy *= dy
    r += dy
    np.sqrt(r, out=r)
    if np.any(r == 0.0):
        raise ValueError("coincident sample points")
    phase = np.multiply(r, -k, out=dy)
    r *= 4.0 * np.pi
    np.reciprocal(r, out=r)
    np.cos(phase, out=re)
    re *= r
    np.sin(phase, out=im)
    im *= r


def grid_shapes(l_T, l_R, wavelength, spacing=None):
    """(N_r, N_t) of ``channel_matrix`` on each link's segments ``l_T[i]``,
    ``l_R[i]`` at ``wavelength[i]``, building none: floor(l / spacing) + 1
    points per segment (spacing lambda/4 by default).  Each matrix's
    refusals come in link order, then a run past ``MAX_RUN_ENTRIES``."""
    shapes = []
    for lt, lr, lam in zip(l_T, l_R, wavelength):
        step = lam / 4.0 if spacing is None else spacing
        if not (math.isfinite(step) and step > 0):
            raise ValueError(f"spacing must be positive and finite, got {step!r}")
        if step > lam / 2.0 + 1e-15:
            raise ValueError("spacing must not exceed half a wavelength")
        if lt <= 0 or lr <= 0:
            raise ValueError("empty effective segment")
        n_t, n_r = (math.floor(l / step + 1e-9) + 1 for l in (lt, lr))
        if n_r * n_t > MAX_MATRIX_ENTRIES:
            raise ValueError(f"a {n_r} x {n_t} channel matrix exceeds "
                             f"{MAX_MATRIX_ENTRIES} entries")
        shapes.append((n_r, n_t))
    total = sum(map(math.prod, shapes))
    if total > MAX_RUN_ENTRIES:
        raise ValueError(f"{len(shapes)} channel matrices of {total} entries "
                         f"together exceed {MAX_RUN_ENTRIES} entries per run")
    return shapes


def singular_spectrum(matrix: ChannelMatrix) -> SvdReport:
    """Descending singular spectrum with sum-rule bookkeeping."""
    H = matrix.entries
    if H.size == 0:
        raise ValueError("singular_spectrum: empty matrix")
    s = np.linalg.svd(H, compute_uv=False)
    p = s * s
    total = p.sum()
    return SvdReport(
        singular_values=s,
        normalized_powers=p / p[0],
        cumulative_fraction=np.cumsum(p) / total,
    )


def _gram_powers(k, grid, cols):
    """The spectrum of the channel matrix at wavenumber ``k`` between the
    (x, y) samples ``grid``, its longer side, and ``cols``, from the
    eigenvalues of its smaller Gram matrix, without building H: enough
    for the sum-rule count, not for the tail (see the module docstring).
    H = A + jB is evaluated ``_BLOCK_ROWS`` rows of ``grid`` at a time;
    a wide grid's H is transposed, with the same powers."""
    (x, y), n = grid, cols[0].size
    re, im = np.empty((_BLOCK_ROWS, n)), np.empty((_BLOCK_ROWS, n))

    def blocks():
        for start in range(0, x.size, _BLOCK_ROWS):
            rows = x[start:start + _BLOCK_ROWS], y[start:start + _BLOCK_ROWS]
            a, b = re[:rows[0].size], im[:rows[0].size]
            _green(k, rows, cols, a, b)
            yield a, b
    return _powers(blocks(), n)


def _powers(blocks, n):
    """``SvdReport`` of H = A + jB, from row blocks (a, b) of ``n``
    columns, with shares of ||H||_F^2: the Gram matrix is S + j(K - K^T),
    S = A^T A + B^T B and K = A^T B summed over the blocks."""
    S, K = np.zeros((n, n)), np.zeros((n, n))
    for a, b in blocks:
        S += a.T @ a   # numpy's a.T @ a is one syrk
        S += b.T @ b
        K += a.T @ b
    total = np.trace(S)
    G = np.empty((n, n), dtype=complex)
    G.real = S
    np.subtract(K, K.T, out=G.imag)
    del S, K   # before the solver copies G
    # rounding can leave the smallest eigenvalues slightly negative
    p = np.maximum(np.linalg.eigvalsh(G)[::-1], 0.0)
    return SvdReport(singular_values=np.sqrt(p), normalized_powers=p / p[0],
                     cumulative_fraction=np.cumsum(p) / total)


def _count(link, report, spacing, fraction, m_int):
    """The sum-rule count at ``fraction`` of ``channel_matrix(link,
    spacing)`` (``report`` is ``link``'s visibility), screened on a p-node
    Gauss-Legendre rule, weights over h, over the cells of the longer
    side's rows (first sample - h/2 to last + h/2, h the grid's step), p =
    4 ceil(max(N, ``m_int``)) + 32 with N - 1 = |d(T+, R-) + d(T-, R+) -
    d(T+, R+) - d(T-, R-)| / lambda.  ``_gram_powers`` counts the grid
    where it has no more than 2p rows, the other side comes within a
    quarter of its length (too near for the rule), the screened count
    exceeds (p - 32) / 2 or a running share is within ``_SCREEN_MARGIN``
    of the fraction."""
    _, (_, tx), (_, rx) = _grids(link, report, spacing)
    grid, cols = (rx, tx) if rx[0].size >= tx[0].size else (tx, rx)
    (x, y), n, k = grid, cols[0].size, 2.0 * np.pi / link.wavelength
    t0, t1, r0, r1 = ((q[0][i], q[1][i]) for q in (tx, rx) for i in (0, -1))
    N = 1.0 + abs(math.dist(t1, r0) + math.dist(t0, r1) - math.dist(t1, r1)
                  - math.dist(t0, r0)) / link.wavelength
    p = 4 * math.ceil(max(N, m_int)) + 32
    # rows first: the proximity test divides by the squared length, 0 on one row
    if 2 * p < x.size:
        ex, ey = x[-1] - x[0], y[-1] - y[0]
        dx, dy = cols[0] - x[0], cols[1] - y[0]
        t = np.clip((dx * ex + dy * ey) / (ex * ex + ey * ey), 0.0, 1.0)
        if np.hypot(dx - t * ex, dy - t * ey).min() >= math.hypot(ex, ey) / 4:
            nodes, weights = gauss_legendre(p)
            along = 0.5 + nodes * x.size / (2.0 * (x.size - 1))  # 0, 1 at the end samples
            re, im = np.empty((p, n)), np.empty((p, n))
            _green(k, (x[0] + along * ex, y[0] + along * ey), cols, re, im)
            re, im = (v * np.sqrt(weights * (x.size / 2.0))[:, None] for v in (re, im))
            powers = _powers([(re, im) if p >= n else (re.T, im.T)], min(p, n))
            del re, im   # freed before a fallback builds the grid's Gram matrix
            count = effective_dof(powers, fraction)
            if 2 * count <= p - 32 and not np.any(
                    np.abs(powers.cumulative_fraction - fraction) < _SCREEN_MARGIN):
                return count
    return effective_dof(_gram_powers(k, grid, cols), fraction)


def effective_dof(report, fraction=DEFAULT_SUM_RULE_FRACTION):
    """Smallest k whose leading-k cumulative singular power reaches
    ``fraction`` of the sum rule, read from the ``SvdReport`` ``report``.
    The count is capped at the number of powers: the running share may
    end a rounding short of 1."""
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must be in (0, 1)")
    cumulative = report.cumulative_fraction
    return int(min(np.searchsorted(cumulative, fraction) + 1, cumulative.size))
