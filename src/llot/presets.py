"""Built-in desk-scale instances used by the self test, demos, and tests.

All coordinates are exact grid-node multiples so the node-support identities
hold to rounding.  The calibrated geometry here (window edges, pair offsets,
mollifier widths, domain scales) is what the acceptance suite runs on.
"""

from __future__ import annotations

import numpy as np

from .grids import AtomicPlan, Grid, GridDensity, density_from_values, marginal

PAIRED_WEIGHT_FLOOR = 1e-8  # relative weight below which paired_plan drops a node


def cos4_window(t):
    """Smooth compact weight profile cos^4(pi t / 2) on |t| < 1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.cos(np.pi * t[inside] / 2.0) ** 4
    return out


def paired_plan(grid: Grid, s_lo: float, s_hi: float, delta: float) -> AtomicPlan:
    """Two-particle plan pairing each node s in [s_lo, s_hi] with s + delta.

    Weights follow the cos^4 window over the range, so the one-particle
    marginal is a smooth two-hump density and every atom has internal
    separation exactly delta.  Nodes whose weight is below ``PAIRED_WEIGHT_FLOOR``
    times the largest are dropped.  One atom, an orbit, per kept node.
    """
    axis = grid.axis()
    nodes = axis[(axis >= s_lo - 1e-12) & (axis <= s_hi + 1e-12)]
    center, halfwidth = 0.5 * (s_lo + s_hi), 0.5 * (s_hi - s_lo)
    w = cos4_window((nodes - center) / halfwidth)
    keep = w > PAIRED_WEIGHT_FLOOR * w.max()
    nodes, w = nodes[keep], w[keep]
    return AtomicPlan(2, 1, np.stack([nodes, nodes + delta], axis=1)[:, :, None],
                      w / w.sum())


def permutation_plan(sites) -> AtomicPlan:
    """Symmetric plan with weight 1/n! on each ordering of ``sites``: the
    one orbit of ``sites``."""
    sites = [np.atleast_1d(np.asarray(s, dtype=float)) for s in sites]
    return AtomicPlan.from_atoms([(np.stack(sites), 1.0)], dim=sites[0].size)


# -- identity fixtures (marginal pinning, trace, diagonal) -------------------

def fixture_single_particle():
    """n=1 plan with three sites on a 32-node grid."""
    grid = Grid.line(0.0, 1.0 / 16.0, 32)
    atoms = [(np.array([[0.5]]), 0.25),
             (np.array([[0.875]]), 0.5),
             (np.array([[1.25]]), 0.25)]
    plan = AtomicPlan.from_atoms(atoms, dim=1)
    return "n1-three-site", grid, plan, [0.2, 0.1]


def fixture_two_site():
    """n=2 plan on two sites 1.25 apart, 32-node grid."""
    grid = Grid.line(0.0, 1.0 / 16.0, 32)
    plan = permutation_plan([0.25, 1.5])
    alpha = 1.25
    return "n2-two-site", grid, plan, [alpha / 8.0, alpha / 16.0]


def fixture_four_atom():
    """n=2 plan with two orbit classes of unequal weight, 32-node grid."""
    grid = Grid.line(0.0, 1.0 / 16.0, 32)
    atoms = [(np.array([[0.25], [1.5]]), 0.3),
             (np.array([[1.5], [0.25]]), 0.3),
             (np.array([[0.4375], [1.6875]]), 0.2),
             (np.array([[1.6875], [0.4375]]), 0.2)]
    plan = AtomicPlan.from_atoms(atoms, dim=1)
    alpha = 1.25
    return "n2-four-atom", grid, plan, [alpha / 8.0, alpha / 16.0]


def fixture_three_particle():
    """n=3 permutation plan on a 64-node grid."""
    grid = Grid.line(0.0, 2.0 / 63.0, 64)
    h = grid.h
    sites = [8 * h, 32 * h, 56 * h]
    plan = permutation_plan(sites)
    alpha = 24 * h
    return "n3-permutation", grid, plan, [alpha / 8.0, alpha / 16.0]


def fixture_paired_smooth():
    """n=2 paired plan with a smooth marginal on a 64-node grid."""
    grid = Grid.line(0.0, 1.0 / 32.0, 64)
    plan = paired_plan(grid, 0.25, 0.76, 0.75)
    alpha = 0.75
    return "n2-paired-smooth", grid, plan, [alpha / 8.0, alpha / 16.0]


def identity_fixtures():
    """The five desk fixtures for the exact-identity checks."""
    return [fixture_single_particle(), fixture_two_site(), fixture_four_atom(),
            fixture_three_particle(), fixture_paired_smooth()]


# -- convergence-study fixtures ----------------------------------------------

def kinetic_instance(npts: int, h: float):
    """Paired-plan instance for the kinetic identity refinement study."""
    grid = Grid.line(0.0, h, npts)
    plan = paired_plan(grid, 0.25, 0.76, 0.75)
    rho = marginal(plan, grid)
    return grid, plan, rho


def potential_instance():
    """512-node paired instance for the smoothing-error sweep."""
    grid = Grid.line(0.0, 2.0 / 511.0, 512)
    plan = paired_plan(grid, 0.25, 0.76, 0.75)
    rho = marginal(plan, grid)
    return grid, plan, rho


# -- transport fixtures --------------------------------------------------------

def two_site_density():
    grid = Grid.line(0.0, 1.0, 2)
    return density_from_values(grid, np.array([0.5, 0.5]) / grid.h,
                               normalize=True)


def three_site_density():
    grid = Grid.line(0.0, 1.0, 3)
    return density_from_values(grid, np.ones(3), normalize=True)


def sixteen_site_density():
    """Smooth two-bump density on 16 sites over the unit interval."""
    grid = Grid.line(0.0, 1.0 / 15.0, 16)
    x = grid.axis()
    raw = (np.exp(-((x - 0.25) / 0.12) ** 2)
           + np.exp(-((x - 0.75) / 0.12) ** 2))
    return density_from_values(grid, raw, normalize=True)


SWEEP_SCALE = 1200.0
SWEEP_ETAS = tuple(np.geomspace(1e-4, 1e-1, 10))


def sweep_density(scale: float = SWEEP_SCALE) -> GridDensity:
    """32-site mirror-symmetric two-cluster density for the rate study.

    Each cluster is five cos^4 samples (|t| <= 1/2) around nodes 6 and 25.
    The optimal pair plan has separation alpha = 19 h, so the sweep's feasible
    window [2h, alpha/4) has ratio 19/8, independent of ``scale``.  That is
    narrower than the 1000^(1/4) ~ 5.6x move of eps_opt that a sqrt(eta)
    regime over eta in [1e-4, 1e-1] needs: on this grid the optimum sits on
    a window edge for most etas.
    """
    grid = Grid.line(0.0, scale / 31.0, 32)
    raw = np.zeros(32)
    profile = cos4_window(np.array([-0.5, -0.25, 0.0, 0.25, 0.5]))
    for c in (6, 25):
        raw[c - 2:c + 3] += profile
    return density_from_values(grid, raw, normalize=True)
