"""Test-only desk instances: the identity fixtures of the marginal-pinning,
trace and diagonal checks, the paired instances of the kinetic and
potential studies, the small transport densities with closed-form optima
(two sites: 1; three sites at n = 3: 2.5) and a two-disc d = 2 density.

All coordinates are exact grid-node multiples so the node-support identities
hold to rounding.
"""

from typing import Optional

import numpy as np

from llot.errors import ValidationError
from llot.grids import AtomicPlan, Grid, density_from_values, marginal
from llot.presets import cos4_window, paired_plan


def plan_from_atoms(atoms, dim: Optional[int] = None) -> AtomicPlan:
    """Build from ``[(config, weight), ...]``; configs of shape (n,) mean dim=1."""
    if not atoms:
        raise ValidationError("empty measure")
    first = np.atleast_2d(np.asarray(atoms[0][0], dtype=float))
    if dim is None:
        dim = first.shape[-1] if np.asarray(atoms[0][0]).ndim > 1 else 1
    configs = []
    weights = []
    for x, w in atoms:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None] if dim == 1 else x.reshape(-1, dim)
        configs.append(x)
        weights.append(float(w))
    configs = np.stack(configs)
    return AtomicPlan(n=configs.shape[1], dim=dim, configs=configs,
                      weights=np.asarray(weights))


def permutation_plan(sites) -> AtomicPlan:
    """Symmetric plan with weight 1/n! on each ordering of ``sites``: the
    one orbit of ``sites``."""
    sites = [np.atleast_1d(np.asarray(s, dtype=float)) for s in sites]
    return plan_from_atoms([(np.stack(sites), 1.0)], dim=sites[0].size)


# -- identity fixtures (marginal pinning, trace, diagonal) -------------------

def fixture_single_particle():
    """n=1 plan with three sites on a 32-node grid."""
    grid = Grid.line(0.0, 1.0 / 16.0, 32)
    atoms = [(np.array([[0.5]]), 0.25),
             (np.array([[0.875]]), 0.5),
             (np.array([[1.25]]), 0.25)]
    plan = plan_from_atoms(atoms, dim=1)
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
    plan = plan_from_atoms(atoms, dim=1)
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


def two_disc_density():
    """Two cos^4 discs of radius 6.5 around the nodes (11, 11) and (28, 28)
    of a 40 x 40 grid (h = 1): 274 sites, a d = 2 density whose LP plan is
    what the sweep smooths.  At HiGHS's default primal feasibility
    tolerance that plan missed rho by 2e-6 in L1."""
    grid = Grid(dim=2, origin=np.zeros(2), h=1.0, npts=40)
    points = grid.points()
    raw = sum(cos4_window(np.linalg.norm(points - c, axis=1) / 6.5)
              for c in ((11.0, 11.0), (28.0, 28.0)))
    return density_from_values(grid, raw.reshape(grid.shape), normalize=True)
