"""A symmetric plan is stored once per orbit.  Every reader of the orbit
plan agrees with a direct sum over every ordering of every orbit, the
expanded atom list of :func:`oracles.expanded`: the n-point density, its
tensor and the two checks read from it, the center weights, the mass and
the fermionic kernel.  And a plan past the old n!-fold wall, n = 7, is
smoothed and lifted to its state in under two megabytes."""

import math

import numpy as np
import pytest

from llot.grids import AtomicPlan, Grid, coulomb, marginal
from llot.presets import cos4_window
from llot.quantum import MixedStateKernel, kernel_eval
from llot.regularizer import (build_regularized, integrate_observable, kinetic_of_sqrt,
                              prepare_plan, smooth_plan)
from instances import identity_fixtures
from oracles import (dense_transfer, expanded_rows, scattered_transfer,
                     small_three_particle_case, three_cluster_plan, traced_peak,
                     window_tuples)


def orbit_cases():
    """Every identity fixture at each of its widths, the three-cluster
    n = 3 plan and the small n = 3 case, smoothed."""
    for name, grid, plan, eps_list in identity_fixtures():
        for eps in eps_list:
            yield f"{name}:eps={eps:.6g}", build_regularized(plan, marginal(plan, grid), eps)
    grid, plan, eps = three_cluster_plan()
    yield "three-cluster", build_regularized(plan, marginal(plan, grid), eps)
    yield "small-three-particle", small_three_particle_case()


CASES = list(orbit_cases())
IDS = [name for name, _ in CASES]


def expanded_tensor(rp, transfer, rows, weights) -> np.ndarray:
    """``sum_a w_a T_{a,1} x ... x T_{a,n}`` over the expanded atoms, each
    outer product added on the nodes where its transfer rows are nonzero."""
    t = np.zeros((rp.grid.n_sites,) * rp.n)
    for centers, w in zip(rows, weights):
        live = [np.flatnonzero(transfer[c]) for c in centers]
        term = np.array(w)
        for c, nodes in zip(centers, live):
            term = np.multiply.outer(term, transfer[c, nodes])
        t[np.ix_(*live)] += term
    return t


def amp_lookup(kernel, diff) -> np.ndarray:
    """``amp`` at integer offsets ``diff`` (..., dim), 0 off the table, from
    a dense array over the offsets' bounding box."""
    r = int(np.abs(kernel.offsets).max())
    table = np.zeros((2 * r + 1,) * kernel.offsets.shape[1])
    table[tuple((kernel.offsets + r).T)] = kernel.amp
    inside = np.all(np.abs(diff) <= r, axis=-1)
    at = np.moveaxis(np.clip(diff + r, 0, 2 * r), -1, 0)
    return np.where(inside, table[tuple(at)], 0.0)


def expanded_kernel(K, tuples, weights, x, xp) -> float:
    """``K(X; X')`` as ``1/n!`` times the sum over the expanded atoms' window
    tuples Z of their weights times ``det A(X, Z) det A(X', Z)``, with
    ``A(X, Z)_{ij} = sqrt(rho(x_j)) amp(x_j - z_i)``; ``x``, ``xp`` flat
    nodes of one configuration each."""
    grid = K.grid
    z = grid.multi_index(tuples)                                   # (T, n, dim)

    def det(nodes):
        a = amp_lookup(K.rp.kernel, grid.multi_index(nodes)[None, None, :, :] - z[:, :, None, :])
        return np.linalg.det(a * K.sqrt_rho[nodes])
    return float((weights * det(x) * det(xp)).sum()) / math.factorial(K.n)


def near_configs(rp, rng, m):
    """m configurations near the plan's orbits, each in a random ordering:
    an orbit's nodes, half of them moved by up to two kernel radii (where
    rho is atomic, P_eps lives on the orbits' nodes only)."""
    reach = 2 * rp.kernel.halfwidth
    atoms = rp.source.configs[rng.integers(rp.source.n_atoms, size=m)]
    moved = atoms + rp.grid.h * rng.integers(-reach, reach + 1, size=atoms.shape)
    moved[::2] = atoms[::2]
    order = rng.permuted(np.tile(np.arange(rp.n), (m, 1)), axis=1)
    return np.take_along_axis(moved, order[:, :, None], axis=1)


@pytest.mark.parametrize("name, rp", CASES, ids=IDS)
def test_the_orbit_plan_matches_its_expanded_oracle(name, rp):
    rng = np.random.default_rng(11)
    grid, n, cell = rp.grid, rp.n, rp.grid.cell_volume
    transfer = dense_transfer(rp)
    rows, weights = expanded_rows(rp)
    assert len(rows) == rp.source.n_atoms * math.factorial(n)

    # the n-point density at sampled configurations: 1e-15 relative
    configs = near_configs(rp, rng, 300)
    x = grid.flat_index(grid.indices_of(configs))
    ref = (weights * np.prod(transfer[rows[None], x[:, None]], axis=2)).sum(axis=1)
    got = rp.evaluate(configs)
    assert ref.max() > 0.0, name
    assert np.all(np.abs(got - ref) <= 1e-15 * ref), name

    # the tensor: 1e-15 of its largest entry, with the same zeros
    t = expanded_tensor(rp, transfer, rows, weights)
    got = rp.tensor().reshape(t.shape)
    assert np.abs(got - t).max() <= 1e-15 * t.max(), name
    assert np.array_equal(got == 0.0, t == 0.0), name

    # the two checks read from the tensor: 2e-15 relative
    if n >= 2:
        live = np.nonzero(t)
        points = grid.points()[np.stack(live, axis=-1)]            # (entries, n, dim)
        energy = float((coulomb(points) * t[live]).sum() * cell**n)
        assert abs(integrate_observable(rp) - energy) <= 2e-15 * energy, name
    root = np.sqrt(t.reshape(grid.shape * n))
    dirichlet = sum((np.gradient(root, grid.h, axis=k, edge_order=2) ** 2).sum()
                    for k in range(root.ndim)) * cell**n
    assert abs(kinetic_of_sqrt(rp) - dirichlet) <= 2e-15 * dirichlet, name

    # the mass and the center weights: 1e-15 and 2e-15 relative
    masses = transfer.sum(axis=1) * cell
    mass = float((weights * masses[rows].prod(axis=1)).sum())
    assert abs(rp.mass() - mass) <= 1e-15 * mass, name
    center_weights = sum(
        np.bincount(rows[:, k], minlength=len(rp.centers),
                    weights=weights * np.delete(masses[rows], k, axis=1).prod(axis=1))
        for k in range(n))
    assert np.abs(rp.center_weights - center_weights).max() <= \
        2e-15 * center_weights.max(), name


@pytest.mark.parametrize("name, rp", CASES, ids=IDS)
def test_the_orbit_state_matches_its_expanded_oracle(name, rp):
    """kernel_eval against Slater determinants summed over every window
    tuple of every expanded atom, on pairs near the orbits in random
    orderings: 1e-14 of the largest value."""
    rng = np.random.default_rng(12)
    K = MixedStateKernel(rp)
    tuples, weights = window_tuples(K, expanded_rows(rp))
    pairs = 8 if name == "three-cluster" else 24
    configs = near_configs(rp, rng, 2 * pairs).reshape(2, pairs, rp.n, -1)
    configs[1, ::2] = configs[0, ::2]                              # diagonal pairs
    flat = rp.grid.flat_index(rp.grid.indices_of(configs))
    ref = np.array([expanded_kernel(K, tuples, weights, x, xp)
                    for x, xp in zip(flat[0], flat[1])])
    got = kernel_eval(K, configs[0], configs[1])
    assert np.abs(ref).max() > 0.0, name
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), name


# -- n = 7, past the n!-fold wall ---------------------------------------------

SEVEN_H = 1.0 / 64.0
SEVEN_GAP = 40          # nodes between a cluster and the next: alpha = 40 h


def seven_cluster_plan():
    """25 cos^4-weighted orbits over 7 clusters on a 300-node line: orbit s
    holds the nodes s + 40 k h, k = 0..6, for s = 12..36; eps = 4 h."""
    grid = Grid.line(0.0, SEVEN_H, 300)
    s = np.arange(12, 37)
    w = cos4_window((s - 24) / 13)
    configs = (s[:, None] + SEVEN_GAP * np.arange(7))[:, :, None] * SEVEN_H
    return grid, AtomicPlan(7, 1, configs, w / w.sum()), 4 * SEVEN_H


def test_seven_particles_smooth_and_lift_in_under_two_megabytes():
    grid, plan, eps = seven_cluster_plan()
    rho = marginal(plan, grid)
    rng = np.random.default_rng(7)
    configs = near_configs(build_regularized(plan, rho, eps), rng, 200)
    out = {}

    def run():
        rp = smooth_plan(prepare_plan(plan, rho), eps)
        out["rp"] = rp
        out["mass"] = rp.mass()
        out["density"] = rp.density()
        out["diagonal"] = kernel_eval(MixedStateKernel(rp), configs, configs)

    # the 7! = 5040 orderings of each orbit are never formed: 126000
    # expanded atoms would take 7 MB for their configurations alone; this
    # run traces about 0.45 MB
    assert traced_peak(run) <= 2 * 2**20
    rp = out["rp"]
    assert rp.source.n_atoms == 25 and rp.alpha == SEVEN_GAP * SEVEN_H
    assert abs(out["mass"] - 1.0) <= 1e-12
    assert out["density"].l1_distance(rho) <= 1e-12
    # on the diagonal the state is the smoothed plan
    plan_density = sorted_ordering_density(rp, configs)
    assert plan_density.max() > 0.0
    assert np.abs(out["diagonal"] - plan_density).max() <= 1e-13 * plan_density.max()


def sorted_ordering_density(rp, configs) -> np.ndarray:
    """P_eps of the n = 7 plan at each configuration, each reached by the
    one ordering that sorts it: the sum over orbits of W / 7! times one
    product of transfer entries."""
    x = np.sort(rp.grid.flat_index(rp.grid.indices_of(configs)), axis=1)
    transfer = scattered_transfer(rp)
    return (rp.source.weights / math.factorial(7)
            * np.prod(transfer[rp.center_of[None], x[:, None]], axis=2)).sum(axis=1)


def test_seven_particle_density_takes_one_ordering_per_orbit():
    # 200 configurations against 25 orbits of 7! orderings each: summing
    # the 126000-row ordering table took seconds and 42 MB for 20 of them
    grid, plan, eps = seven_cluster_plan()
    rp = build_regularized(plan, marginal(plan, grid), eps)
    configs = near_configs(rp, np.random.default_rng(8), 200)
    out = {}

    def run():
        out["density"] = rp.evaluate(configs)

    assert traced_peak(run) <= 2 * 2**20
    expected = sorted_ordering_density(rp, configs)
    assert np.count_nonzero(expected) > 100
    assert np.array_equal(out["density"] == 0.0, expected == 0.0)
    assert np.abs(out["density"] - expected).max() <= 1e-13 * expected.max()
