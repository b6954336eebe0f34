import numpy as np
import pytest

from llot.grids import Grid, marginal
from instances import (
    fixture_paired_smooth,
    fixture_two_site,
    identity_fixtures,
    permutation_plan,
    plan_from_atoms,
)


@pytest.fixture(scope="session")
def two_site_fixture():
    name, grid, plan, eps_list = fixture_two_site()
    rho = marginal(plan, grid)
    return grid, plan, rho, eps_list


@pytest.fixture(scope="session")
def paired_smooth_fixture():
    name, grid, plan, eps_list = fixture_paired_smooth()
    rho = marginal(plan, grid)
    return grid, plan, rho, eps_list


@pytest.fixture(scope="session")
def all_identity_fixtures():
    out = []
    for name, grid, plan, eps_list in identity_fixtures():
        out.append((name, grid, plan, marginal(plan, grid), eps_list))
    return out


@pytest.fixture(scope="session")
def two_dim_fixture():
    """n=2 permutation plan on a 7 x 7 grid; width 1.1 h gives five offsets
    and boxes that reach past the grid."""
    grid = Grid(dim=2, origin=np.zeros(2), h=0.25, npts=7)
    plan = permutation_plan([np.array([1, 1]) * grid.h, np.array([5, 4]) * grid.h])
    return "n2-2d-permutation", grid, plan, marginal(plan, grid), [1.1 * grid.h]


@pytest.fixture(scope="session")
def two_dim_paired_fixture():
    """n=2 plan pairing each node of a 3 x 3 patch, with unequal weights, to
    the node (6, 5) steps away on a 13 x 13 grid: the marginal spreads over
    each patch, so transfer vectors are nonzero across their boxes."""
    grid = Grid(dim=2, origin=np.zeros(2), h=0.25, npts=13)
    patch = np.stack(np.meshgrid(np.arange(2, 5), np.arange(2, 5), indexing="ij"), axis=-1)
    weights = np.arange(1.0, 10.0) / 45.0
    atoms = []
    for node, w in zip(patch.reshape(-1, 2), weights):
        x, y = node * grid.h, (node + [6, 5]) * grid.h
        atoms += [(np.stack([x, y]), w / 2.0), (np.stack([y, x]), w / 2.0)]
    plan = plan_from_atoms(atoms, dim=2)
    return "n2-2d-paired", grid, plan, marginal(plan, grid), [1.1 * grid.h, 1.5 * grid.h]


@pytest.fixture(scope="session")
def three_dim_fixture():
    """n=2 plan on a 16^3 grid pairing three neighbouring nodes, with
    unequal weights, to the node (7, 6, 5) steps away: three orbits whose
    windows overlap, smoothed at 1.5 h (19 offsets) and 2.5 h (81 offsets,
    boxes reaching past the grid)."""
    grid = Grid(dim=3, origin=np.zeros(3), h=0.25, npts=16)
    atoms = []
    for node, w in zip(([4, 4, 4], [5, 4, 4], [4, 5, 4]), (0.2, 0.3, 0.5)):
        x = np.array(node) * grid.h
        atoms.append((np.stack([x, x + np.array([7, 6, 5]) * grid.h]), w))
    plan = plan_from_atoms(atoms, dim=3)
    return "n2-3d-paired", grid, plan, marginal(plan, grid), [1.5 * grid.h, 2.5 * grid.h]


@pytest.fixture(scope="session")
def fixtures_with_2d(all_identity_fixtures, two_dim_fixture, two_dim_paired_fixture):
    """The identity fixtures and the two-dimensional ones."""
    return all_identity_fixtures + [two_dim_fixture, two_dim_paired_fixture]
