"""Test-side theta_T intervals of the visibility branches and a Monte
Carlo estimate of the visibility probability.

``branch_interval`` builds each branch's edges with the library's own
``_half_angle``, ``_edge`` and ``_BRANCHES``, so they are bit for bit the
edges that ``monte_carlo`` scales its draws to.  ``visibility_fraction``
cross-checks ``pov`` from theta_T uniform over the circle, drawn from the
stream ``sample_stream(seed, 1)``.
"""

import numpy as np

from nfdof import statistics as stats
from nfdof.numerics import sample_stream


def branch_interval(x0, L_R, scenario):
    """theta_T interval (lo, hi) of the scenario's visibility branch."""
    a = stats._half_angle(x0, L_R)
    return tuple(stats._edge(a, *edge) for edge in stats._BRANCHES[scenario])


def visibility_fraction(x0, L_R, n, seed=0):
    """Share of n draws of theta_T, uniform over the circle, that fall in
    the open visible interval at x0: a Monte Carlo estimate of ``pov``."""
    theta_T = -np.pi + 2.0 * np.pi * sample_stream(seed, 1).random(int(n))
    lo, hi = branch_interval(x0, L_R, stats.CONDITIONAL_ON_X0)
    return float(np.mean((theta_T > lo) & (theta_T < hi)))
