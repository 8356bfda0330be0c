"""Seeded workloads of the benchmark: the CLI commands each one runs.

A workload is a sequence of rounds.  Every round has the same fixed
composition (which command kinds, how many of each, which figure
recipes, in which order); only the drawn link parameters change from
round to round and from seed to seed.  Continuous parameters are drawn
stratified over the whole run (one draw per equal-probability stratum,
in random order), so the share of cheap and expensive links in a run
hardly moves between seeds while every value still comes from the seed.

Links follow the paper's deployment model unless a workload says
otherwise: receive centre uniform in a disk (an annulus when a minimum
distance applies), receive array facing the transmitter, transmit
rotation theta_T uniform.
"""

import math
from dataclasses import dataclass, field

import numpy as np

FREQUENCY_HZ = 30e9
L_T_CHOICES = (0.2, 0.5)  # 81 or 201 channel-matrix columns at lambda/4
L_R_RANGE = (1.0, 5.0)
CENTER_RADIUS_M = 20.0
MIN_DISTANCE_FACTOR = 1.2  # closest centre: 1.2 (L_T + L_R)

SWEEPABLE = ("theta_T", "theta_R", "x0", "y0", "L_T", "L_R", "frequency")
SWEEP_STEPS = 721
SWEEP_RANGES = {
    "theta_T": (-math.pi, math.pi),
    "theta_R": (-math.pi, math.pi),
    "x0": (-CENTER_RADIUS_M, CENTER_RADIUS_M),
    "y0": (-CENTER_RADIUS_M, CENTER_RADIUS_M),
    "L_T": (0.05, 1.0),
    "L_R": (0.5, 10.0),
    "frequency": (10e9, 100e9),
}

KERNEL_SAMPLES = 1024
SVD_SWEEP_STEPS = 7
SVD_SWEEP_HALF_SPAN = math.pi / 6.0  # theta_R sweep around facing

SCENARIOS = ("full-visibility", "partial-r-plus", "partial-r-minus",
             "conditional-on-x0")
STATS_R_RANGE = (5.0, 200.0)
STATS_GRID_POINTS = 201
STATS_MC_SAMPLES = 200_000

# About the duration of one round on a 2-vCPU x86_64 VM at the commit that
# defined the benchmark.  A run makes ceil(seconds / this) rounds, so it
# measures about --seconds there and runs the same commands on every commit.
NOMINAL_ROUND_S = {"sweep": 0.85, "crosscheck": 10.0, "distributions": 8.0}

# Rounds replayed under tracing (the traced run's fixed amount of work).
TRACE_ROUNDS = {"sweep": 8, "crosscheck": 3, "distributions": 1}


@dataclass
class Op:
    """One CLI command: its kind, a label, its config and extra arguments."""

    kind: str                 # sweep | kernel-scan | svd-compare | stats | figure
    label: str
    config: dict = None       # RunConfig fields, written to a JSON file
    argv: list = field(default_factory=list)  # extra CLI arguments


def _strata(rng, n):
    """n uniforms in [0, 1), one in each of n equal strata, shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def _wrap(theta):
    return (theta + math.pi) % (2.0 * math.pi) - math.pi


def draw_links(rng, n, visible_only):
    """n facing-receiver links with alternating L_T, stratified L_R (within
    each L_T group), centre distance and rotations.

    Centres are uniform in the annulus from 1.2 (L_T + L_R) to 20 m.
    With ``visible_only`` theta_T is uniform over the visible interval
    (the statistics module's conditioning), otherwise over the circle.
    """
    group = np.arange(n) % len(L_T_CHOICES)
    L_T = np.array(L_T_CHOICES)[group]
    L_R = np.empty(n)
    for g in range(len(L_T_CHOICES)):
        members = group == g
        L_R[members] = L_R_RANGE[0] + (L_R_RANGE[1] - L_R_RANGE[0]) * _strata(
            rng, int(members.sum()))
    d_lo = MIN_DISTANCE_FACTOR * (L_T + L_R)
    d = np.sqrt(d_lo ** 2 + _strata(rng, n) * (CENTER_RADIUS_M ** 2 - d_lo ** 2))
    phi = -math.pi + 2.0 * math.pi * _strata(rng, n)
    a = np.arctan(L_R / (2.0 * d))
    if visible_only:
        lo, width = -a - math.pi / 2.0, math.pi + 2.0 * a
    else:
        lo, width = -math.pi, 2.0 * math.pi
    theta_axis = lo + width * _strata(rng, n)
    links = []
    for i in range(n):
        links.append({
            "L_T_m": float(L_T[i]), "L_R_m": float(L_R[i]),
            "x0_m": float(d[i] * math.cos(phi[i])),
            "y0_m": float(d[i] * math.sin(phi[i])),
            "theta_T": _wrap(float(theta_axis[i] + phi[i])),
            "theta_R": _wrap(float(phi[i] + math.pi)),
            "frequency_hz": FREQUENCY_HZ,
        })
    return links


def _sweep_rounds(rng, n_rounds, tiny):
    steps = 41 if tiny else SWEEP_STEPS
    params = SWEEPABLE if tiny else SWEEPABLE * 2
    links = draw_links(rng, n_rounds * len(params), visible_only=False)
    rounds = []
    for index in range(n_rounds):
        ops = []
        for param, link in zip(params, links[index * len(params):]):
            start, stop = SWEEP_RANGES[param]
            cfg = dict(link, sweep={"parameter": param, "start": start,
                                    "stop": stop, "steps": steps})
            ops.append(Op("sweep", f"sweep:{param}", cfg))
            if len(ops) == len(params) // 2:
                ops.append(Op("figure", "figure:fig4", argv=["--id", "fig4"]))
        if not tiny:
            ops.append(Op("figure", "figure:fig8", argv=["--id", "fig8"]))
        rounds.append(ops)
    return rounds


def _with_recipes(ops, recipes):
    """Insert one ``figure`` op per recipe, spread evenly through ``ops``."""
    figs = [Op("figure", f"figure:{fid}", argv=["--id", fid]) for fid in recipes]
    stride = max(1, len(ops) // len(figs))
    for j, fig in enumerate(figs):
        ops.insert(j * (stride + 1), fig)
    return ops


def _crosscheck_rounds(rng, n_rounds, tiny):
    # one fig7 (about 4 s) per round, rotating through a-c, keeps rounds
    # short; fig3a-d rotate the same way
    n_scan, n_svd = (2, 2) if tiny else (24, 20)
    samples = 64 if tiny else KERNEL_SAMPLES
    scans = draw_links(rng, n_rounds * n_scan, visible_only=True)
    sweeps = draw_links(rng, n_rounds * n_svd, visible_only=True)
    rounds = []
    for index in range(n_rounds):
        recipes = (("fig3a", "fig5") if tiny else
                   ("fig3" + "abcd"[index % 4], "fig5", "fig7" + "abc"[index % 3]))
        ops = [Op("kernel-scan", "kernel-scan", dict(link, n_samples=samples))
               for link in scans[index * n_scan:(index + 1) * n_scan]]
        for link in sweeps[index * n_svd:(index + 1) * n_svd]:
            facing = link["theta_R"]
            cfg = dict(link, sweep={"parameter": "theta_R",
                                    "start": facing - SVD_SWEEP_HALF_SPAN,
                                    "stop": facing + SVD_SWEEP_HALF_SPAN,
                                    "steps": SVD_SWEEP_STEPS})
            ops.append(Op("svd-compare", "svd-compare", cfg))
        rounds.append(_with_recipes(ops, recipes))
    return rounds


def _distributions_rounds(rng, n_rounds, tiny):
    # fig9b (about 5 s) only in the first round: the run's tail then sits
    # among a dozen full-visibility curves instead of a few recipe calls
    if tiny:
        counts = {s: 1 for s in SCENARIOS}
        grid = 21
    else:
        counts = {"full-visibility": 4, "partial-r-plus": 1,
                  "partial-r-minus": 1, "conditional-on-x0": 20}
        grid = STATS_GRID_POINTS
    rounds = [[] for _ in range(n_rounds)]
    for scenario, n in counts.items():
        total = n_rounds * n
        R = STATS_R_RANGE[0] + (STATS_R_RANGE[1] - STATS_R_RANGE[0]) * _strata(rng, total)
        L_R = L_R_RANGE[0] + (L_R_RANGE[1] - L_R_RANGE[0]) * _strata(rng, total)
        x0_share = 1.0 - _strata(rng, total)  # in (0, 1]
        for i in range(total):
            section = {"scenario": scenario, "R": float(R[i]),
                       "grid_points": grid, "mc_samples": STATS_MC_SAMPLES}
            if scenario == "conditional-on-x0":
                section["x0"] = float(R[i] * x0_share[i])
            cfg = {"L_R_m": float(L_R[i]), "frequency_hz": FREQUENCY_HZ,
                   "stats": section}
            rounds[i // n].append(Op("stats", f"stats:{scenario}", cfg))
    recipes = [("fig10", "fig11") if tiny else
               ("fig9a", "fig9b", "fig10", "fig11") if index == 0 else
               ("fig9a", "fig10", "fig11") for index in range(n_rounds)]
    return [_with_recipes([ops[i] for i in rng.permutation(len(ops))], figs)
            for ops, figs in zip(rounds, recipes)]


_ROUNDS = {"sweep": _sweep_rounds, "crosscheck": _crosscheck_rounds,
           "distributions": _distributions_rounds}
WORKLOADS = tuple(_ROUNDS)


def run_rounds(workload, seed, n_rounds, tiny=False):
    """The ops of a run, as a list of rounds; the same (seed, n_rounds)
    gives the same ops.  The strata span the whole run, not each round,
    so the run's mix of cheap and expensive links moves little with the
    seed."""
    rng = np.random.default_rng(
        np.random.SeedSequence((int(seed), WORKLOADS.index(workload), int(n_rounds))))
    rounds = _ROUNDS[workload](rng, int(n_rounds), tiny)
    for ops in rounds:
        for op in ops:
            if op.config is not None:
                op.config.setdefault("seed", int(seed))
    return rounds
