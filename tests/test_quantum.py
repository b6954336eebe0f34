import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llot import quantum, regularizer
from llot.errors import ValidationError
from llot.grids import AtomicPlan, Grid, h1_seminorm_sqrt, marginal
from llot.mollifier import BumpProfile
from llot.presets import cos4_window
from llot.quantum import (
    MixedStateKernel,
    kernel_eval,
    kinetic_trace,
    one_particle_density,
    rdm_max_eigenvalue,
)
from llot.regularizer import (build_regularized, kinetic_of_sqrt, kinetic_term,
                              potential_error, prepare_plan, smooth_plan)
from instances import (fixture_paired_smooth, fixture_two_site, kinetic_instance, permutation_plan,
                       plan_from_atoms)
from oracles import (OrbitalSet, amp_at, dense_kernel_matrix, dense_one_body_matrix,
                     dense_transfer, det_square_identity, expanded_rows, fine_paired_plan,
                     one_width_kernel, signed_permutations, slater, small_three_particle_case,
                     three_cluster_plan, traced_peak, upper_grid_edge_case, window_tuples)


@pytest.fixture(scope="module")
def small_state(two_site_fixture_mod):
    grid, plan, rho, eps_list = two_site_fixture_mod
    rp = build_regularized(plan, rho, eps_list[0])
    return grid, rp, MixedStateKernel(rp)


@pytest.fixture(scope="module")
def two_site_fixture_mod():
    name, grid, plan, eps_list = fixture_two_site()
    rho = marginal(plan, grid)
    return grid, plan, rho, eps_list


@pytest.fixture(scope="module")
def smooth_state():
    name, grid, plan, eps_list = fixture_paired_smooth()
    rho = marginal(plan, grid)
    rp = build_regularized(plan, rho, eps_list[0])
    return grid, rp, MixedStateKernel(rp)


def orbital_set(grid, centers, eps, rho=None):
    kernel = one_width_kernel(1, eps, grid.h)
    return OrbitalSet(np.asarray(centers, dtype=float)[:, None], kernel, rho)


def test_slater_repeated_orbital_vanishes():
    g = Grid.line(0.0, 1 / 16, 32)
    orbs = orbital_set(g, [0.5, 0.5], 0.2)
    for x in ([0.4, 0.6], [0.5, 0.55], [0.45, 0.5]):
        assert slater(orbs, np.array(x)[:, None]) == 0.0


def test_slater_antisymmetry():
    g = Grid.line(0.0, 1 / 16, 32)
    orbs = orbital_set(g, [0.5, 1.25], 0.2)
    x = np.array([[0.4375], [1.1875]])
    swapped = x[::-1]
    assert slater(orbs, swapped) == pytest.approx(-slater(orbs, x), rel=1e-12)


def test_slater_normalization_by_quadrature():
    g = Grid.line(0.0, 1 / 16, 32)
    orbs = orbital_set(g, [0.5, 1.25], 0.2)
    axis = g.axis()
    total = 0.0
    for i in range(32):
        for j in range(32):
            total += slater(orbs, np.array([[axis[i]], [axis[j]]])) ** 2
    assert total * g.h**2 == pytest.approx(1.0, abs=1e-8)


def test_det_square_identity_far_configuration():
    g = Grid.line(0.0, 1 / 16, 32)
    orbs = orbital_set(g, [0.5, 1.25], 0.2)
    lhs, rhs = det_square_identity(orbs, np.array([[1.875], [1.9375]]))
    assert lhs == 0.0 and rhs == 0.0


def test_det_square_identity_at_centers():
    g = Grid.line(0.0, 1 / 16, 32)
    orbs = orbital_set(g, [0.5, 1.25], 0.2)
    lhs, rhs = det_square_identity(orbs, np.array([[0.5], [1.25]]))
    amp0 = amp_at(orbs.kernel, np.array([0]))
    assert lhs == pytest.approx(amp0**4, rel=1e-13)
    assert rhs == pytest.approx(amp0**4, rel=1e-13)


def test_det_square_identity_random_points():
    g = Grid.line(0.0, 1 / 16, 32)
    orbs = orbital_set(g, [0.5, 1.25], 0.2)
    rng = np.random.default_rng(3)
    worst = 0.0
    scale = 0.0
    for _ in range(100):
        x = np.stack([rng.uniform(0.3, 0.7, 1), rng.uniform(1.05, 1.45, 1)])
        lhs, rhs = det_square_identity(orbs, x)
        worst = max(worst, abs(lhs - rhs))
        scale = max(scale, abs(lhs))
    assert worst <= 1e-14 * max(scale, 1e-300)


def test_det_square_identity_requires_disjoint_supports():
    g = Grid.line(0.0, 1 / 16, 32)
    orbs = orbital_set(g, [0.5, 0.75], 0.2)
    with pytest.raises(ValidationError, match="disjoint supports"):
        det_square_identity(orbs, np.array([[0.5], [0.75]]))


def test_kernel_diagonal_equals_smoothed_plan(smooth_state):
    grid, rp, K = smooth_state
    rng = np.random.default_rng(11)
    a = rng.integers(rp.source.n_atoms, size=200)
    x = rp.source.configs[a] + rng.uniform(-2 * rp.eps, 2 * rp.eps, (200, 2, 1))
    direct = rp.evaluate(x)
    assert np.abs(kernel_eval(K, x, x) - direct).max() <= 1e-12 * np.abs(direct).max()


def test_kernel_vanishes_on_coincident_coordinates(small_state):
    grid, rp, K = small_state
    x = np.array([[[0.25], [0.25]]])
    xp = np.array([[[0.25], [1.5]]])
    assert kernel_eval(K, x, xp) == [0.0]


def test_kernel_hermitian(smooth_state):
    grid, rp, K = smooth_state
    rng = np.random.default_rng(5)
    a, b = rng.integers(rp.source.n_atoms, size=(2, 100))
    x = rp.source.configs[a] + rng.uniform(-rp.eps, rp.eps, (100, 2, 1))
    xp = rp.source.configs[b] + rng.uniform(-rp.eps, rp.eps, (100, 2, 1))
    v1 = kernel_eval(K, x, xp)
    v2 = kernel_eval(K, xp, x)
    assert np.abs(v1 - v2).max() <= 1e-14 * max(np.abs(v1).max(), 1e-300)


def test_kernel_matches_dense_matrix_off_diagonal(small_state):
    grid, rp, K = small_state
    mat = dense_kernel_matrix(K)
    s = grid.n_sites
    support = np.flatnonzero(rp.rho.values)
    rng = np.random.default_rng(31)

    def block():
        # half the blocks order the support nodes, so that entries are nonzero
        if rng.random() < 0.5:
            return rng.permutation(support)
        return rng.integers(s, size=2)

    i, j = np.array([[block(), block()] for _ in range(200)]).transpose(1, 0, 2)
    entries = mat[i[:, 0] * s + i[:, 1], j[:, 0] * s + j[:, 1]]
    axis = grid.axis()
    vals = kernel_eval(K, axis[i][..., None], axis[j][..., None])
    assert np.abs(vals - entries).max() <= 1e-12 * np.abs(mat).max()
    assert np.count_nonzero(entries) >= 20


def test_kernel_antisymmetry_is_exact(small_state):
    grid, rp, K = small_state
    # rho lives on the two atom nodes only, so the kernel is nonzero on
    # orderings of them and nowhere else
    x = np.array([[0.25], [1.5]])
    xp = np.array([[1.5], [0.25]])
    v, *swapped = kernel_eval(K, np.stack([x, x[::-1], x, x[::-1]]),
                              np.stack([xp, xp, xp[::-1], xp[::-1]]))
    assert v != 0.0
    assert swapped == [-v, -v, v]


def test_trace_is_one(all_identity_fixtures, three_dim_fixture):
    for name, grid, plan, rho, eps_list in all_identity_fixtures + [three_dim_fixture]:
        for eps in eps_list:
            rp = build_regularized(plan, rho, eps)
            assert abs(rp.mass() - 1.0) <= 1e-10, (name, eps)


def test_trace_single_particle():
    grid = Grid.line(0.0, 1 / 16, 32)
    plan = plan_from_atoms([((0.5,), 0.5), ((1.0,), 0.5)], dim=1)
    rho = marginal(plan, grid)
    rp = build_regularized(plan, rho, 0.2)
    assert rp.mass() == pytest.approx(rho.mass(), abs=1e-12)


def test_trace_against_dense_diagonal(small_state):
    grid, rp, K = small_state
    t = rp.tensor()
    assert K.rp.mass() == pytest.approx(t.sum() * grid.h**2, abs=1e-12)


def test_density_matches_pinned_marginal(all_identity_fixtures):
    for name, grid, plan, rho, eps_list in all_identity_fixtures:
        rp = build_regularized(plan, rho, eps_list[0])
        dens = one_particle_density(MixedStateKernel(rp))
        assert dens.l1_distance(rho) <= 1e-10, name


def test_density_matches_classical_marginal_nodewise(smooth_state):
    grid, rp, K = smooth_state
    dq = one_particle_density(K).values
    dc = rp.density().values
    scale = dc.max()
    assert np.abs(dq - dc).max() <= 1e-12 * scale


def continuum_kinetic(rp):
    """The continuum kinetic energy that ``quantum-check`` reports beside
    :func:`kinetic_trace`: :func:`kinetic_term` of sqrt(rho) at the width."""
    return kinetic_term(rp.n, h1_seminorm_sqrt(rp.rho), rp.kernel.width, rp.kernel.profile)


def test_kinetic_trace_single_particle():
    grid = Grid.line(0.0, 1 / 32, 64)
    axis = grid.axis()
    nodes = axis[(axis >= 0.5) & (axis <= 1.25)]
    w = np.cos(np.pi * (nodes - 0.875) / 0.75) ** 4
    w /= w.sum()
    plan = plan_from_atoms([((s,), ws) for s, ws in zip(nodes, w)], dim=1)
    rho = marginal(plan, grid)
    rp = build_regularized(plan, rho, 0.2)
    analytic = continuum_kinetic(rp)
    formula = h1_seminorm_sqrt(rho) + BumpProfile(1).moments()[0] / 0.2**2
    assert analytic == pytest.approx(formula, rel=1e-13)


def test_kinetic_trace_eps_halving_shift(smooth_state):
    grid, rp, _ = smooth_state
    eps = rp.eps
    analytic_1 = continuum_kinetic(rp)
    rp2 = build_regularized(rp.source, rp.rho, eps / 2.0)
    analytic_2 = continuum_kinetic(rp2)
    grad_moment = BumpProfile(1).moments()[0]
    expected_shift = rp.n * 3.0 * grad_moment / eps**2
    assert analytic_2 - analytic_1 == pytest.approx(expected_shift, rel=1e-10)


def test_kinetic_trace_sub_grid_width_is_the_one_node_state(smooth_state):
    grid, rp, _ = smooth_state
    at_h, sub = (build_regularized(rp.source, rp.rho, eps) for eps in (grid.h, 0.5 * grid.h))
    assert (continuum_kinetic(sub), kinetic_trace(MixedStateKernel(sub))) == \
        (continuum_kinetic(at_h), kinetic_trace(MixedStateKernel(at_h)))


def test_kinetic_trace_refinement_order_two():
    # the grid energy closes on the continuum one as O((h/eps)^2) only once
    # eps/h is about 10: these grids run from eps/h = 19 to 77
    rels = []
    hs = []
    for npts in (256, 512, 1024):
        h = 2.0 / npts
        grid, plan, rho = kinetic_instance(npts, h)
        rp = build_regularized(plan, rho, 0.15)
        analytic, on_grid = continuum_kinetic(rp), kinetic_trace(MixedStateKernel(rp))
        rels.append(abs(analytic - on_grid) / analytic)
        hs.append(h)
    slope = np.polyfit(np.log(hs), np.log(rels), 1)[0]
    assert 1.8 <= slope <= 2.2
    assert rels[-1] <= 1e-3


def per_atom_grid_kinetic(K):
    """``kinetic_trace``'s grid energy as a loop over atom x coordinate x
    window node, each orbital written out over the whole grid and its
    forward differences taken with one node of zeros around the grid."""
    rp = K.rp
    grid = rp.grid
    cell = grid.cell_volume
    masses = dense_transfer(rp).sum(axis=1) * cell
    nodes = np.stack(np.unravel_index(np.arange(grid.n_sites), grid.shape), axis=-1)
    energy = {}
    total = 0.0
    for a in range(rp.source.n_atoms):
        for k in range(rp.n):
            others = np.prod([masses[rp.center_of[a, l]] for l in range(rp.n) if l != k])
            c = rp.center_of[a, k]
            for z, qz in zip(rp.window[c], rp.q[c]):
                if z not in energy:
                    f = K.sqrt_rho * amp_at(rp.kernel, nodes - nodes[z])
                    f = np.pad(f.reshape(grid.shape), 1)
                    energy[z] = sum((np.diff(f, axis=j) ** 2).sum()
                                    for j in range(grid.dim)) * grid.h ** (grid.dim - 2)
                total += rp.source.weights[a] * others * qz * cell * energy[z]
    return total


def test_kinetic_trace_matches_per_atom_loop(fixtures_with_2d):
    for name, grid, plan, rho, eps_list in fixtures_with_2d:
        for eps in eps_list:
            K = MixedStateKernel(build_regularized(plan, rho, eps))
            on_grid = kinetic_trace(K)
            expected = per_atom_grid_kinetic(K)
            assert on_grid == pytest.approx(expected, rel=1e-14, abs=0.0), (name, eps)


def per_atom_window_tuples(rp):
    """``window_tuples`` as a loop over atoms: a meshgrid of the window rows
    of the atom's centers."""
    tuples, weights = [], []
    for a in range(rp.source.n_atoms):
        rows = rp.center_of[a]
        nodes = np.meshgrid(*rp.window[rows], indexing="ij")
        qs = np.meshgrid(*rp.q[rows], indexing="ij")
        tuples.append(np.stack([g.ravel() for g in nodes], axis=1))
        weight = rp.source.weights[a] * np.ones(qs[0].size)
        for g in qs:
            weight *= g.ravel()
        weights.append(weight * rp.grid.cell_volume**rp.n)
    return np.concatenate(tuples), np.concatenate(weights)


def test_window_tuples_match_per_atom_meshgrid(all_identity_fixtures, two_dim_fixture):
    cases = [(grid, plan, rho, eps_list + [0.5 * grid.h])
             for _, grid, plan, rho, eps_list in all_identity_fixtures]
    cases.append(two_dim_fixture[1:])
    for grid, plan, rho, widths in cases:
        for eps in widths:
            rp = build_regularized(plan, rho, eps)
            # no empty window slots, so each row is the whole window
            assert np.all(rp.q > 0.0)
            tuples, weights = window_tuples(MixedStateKernel(rp))
            ref_tuples, ref_weights = per_atom_window_tuples(rp)
            assert np.array_equal(tuples, ref_tuples), (plan.n, eps)
            assert np.array_equal(weights, ref_weights), (plan.n, eps)


def test_cauchy_schwarz_direction(all_identity_fixtures):
    for name, grid, plan, rho, eps_list in all_identity_fixtures:
        rp = build_regularized(plan, rho, eps_list[0])
        on_grid = kinetic_trace(MixedStateKernel(rp))
        assert kinetic_of_sqrt(rp) <= on_grid, name


def test_kernel_matches_dense_in_two_dimensions(two_dim_fixture):
    _, grid, plan, rho, (eps,) = two_dim_fixture
    rp = build_regularized(plan, rho, eps)
    assert len(rp.kernel.offsets) == 5
    K = MixedStateKernel(rp)
    mat = dense_kernel_matrix(K)
    pts, s = grid.points(), grid.n_sites
    r, c = np.nonzero(mat)
    vals = kernel_eval(K, pts[np.stack([r // s, r % s], axis=1)],
                       pts[np.stack([c // s, c % s], axis=1)])
    assert np.all(np.abs(vals - mat[r, c]) <= 1e-12 * np.abs(mat[r, c]))


@pytest.mark.parametrize("case", ["n2-two-site", "n2-four-atom", "n2-paired-smooth",
                                  "upper-grid-edge", "n2-2d-permutation"])
def test_one_body_matrix_is_n_times_the_dense_partial_trace(
        case, all_identity_fixtures, two_dim_fixture):
    if case == "upper-grid-edge":
        rp = upper_grid_edge_case()
    else:
        fixtures = {f[0]: f for f in all_identity_fixtures + [two_dim_fixture]}
        _, grid, plan, rho, eps_list = fixtures[case]
        rp = build_regularized(plan, rho, eps_list[0])
    K = MixedStateKernel(rp)
    ref = dense_one_body_matrix(K)
    on = rp.rho.values.ravel() > 0
    assert not np.any(ref[~on]) and not np.any(ref[:, ~on])
    lam = np.linalg.eigvalsh(ref[np.ix_(on, on)] * rp.grid.cell_volume)[-1]
    assert abs(rdm_max_eigenvalue(K) - lam) <= 1e-12 * lam


def test_one_body_matrix_trace_and_diagonal(all_identity_fixtures):
    for name, grid, plan, rho, eps_list in all_identity_fixtures:
        for eps in eps_list:
            rp = build_regularized(plan, rho, eps)
            K = MixedStateKernel(rp)
            density = rp.n * one_particle_density(K).values.ravel()
            marginal_n = rp.n * rp.density().values.ravel()
            assert abs(density.sum() * grid.cell_volume - rp.n * rp.mass()) <= 1e-12
            assert np.abs(density - marginal_n).max() <= 1e-12 * marginal_n.max(), \
                (name, eps)
            if rp.n > 2:
                continue  # the dense oracle's s^3 columns exceed MAX_DENSE_ENTRIES
            gamma = dense_one_body_matrix(K)
            assert abs(np.trace(gamma) * grid.cell_volume - rp.n * rp.mass()) <= 1e-12
            assert np.abs(np.diag(gamma) - density).max() <= 1e-12 * density.max(), \
                (name, eps)
            assert np.abs(np.diag(gamma) - marginal_n).max() <= 1e-12 * marginal_n.max(), \
                (name, eps)


def test_one_particle_density_reads_the_orbital_table(smooth_state):
    # W_z of the orbital with the widest reach, scaled by 1 + 1e-9: the
    # density moves at that orbital's nodes only, and by W_z f_z^2 / n there
    grid, rp, _ = smooth_state
    K = MixedStateKernel(rp)
    before = one_particle_density(K).values.ravel()
    nodes, values, weights = K.orbitals
    k = int(np.argmax((values != 0).sum(axis=1)))
    scaled = weights.copy()
    scaled[k] *= 1.0 + 1e-9
    K.orbitals = (nodes, values, scaled)
    after = one_particle_density(K).values.ravel()
    reach = values[k] != 0
    assert np.array_equal(np.flatnonzero(after != before), np.sort(nodes[k][reach]))
    expected = 1e-9 * weights[k] * values[k][reach] ** 2 / rp.n
    assert np.allclose((after - before)[nodes[k][reach]], expected, rtol=1e-5, atol=0.0)


def test_rdm_max_eigenvalue_is_one_for_delta_plans(all_identity_fixtures):
    # each site of these plans is one node, whose one orbital a particle fills
    fixtures = {f[0]: f for f in all_identity_fixtures}
    for name in ("n2-two-site", "n3-permutation"):
        _, grid, plan, rho, eps_list = fixtures[name]
        for eps in eps_list:
            lam = rdm_max_eigenvalue(MixedStateKernel(build_regularized(plan, rho, eps)))
            assert abs(lam - 1.0) <= 1e-12, (name, eps)


def test_rdm_max_eigenvalue_at_three_particles_matches_the_dense_oracle():
    rp = small_three_particle_case()
    assert len(rp.kernel.offsets) == 3
    K = MixedStateKernel(rp)
    ref = dense_one_body_matrix(K)
    on = rp.rho.values.ravel() > 0
    assert not np.any(ref[~on]) and not np.any(ref[:, ~on])
    lam = np.linalg.eigvalsh(ref[np.ix_(on, on)] * rp.grid.cell_volume)[-1]
    assert 0.5 < lam < 0.95  # overlapping orbitals: no state is filled
    assert abs(rdm_max_eigenvalue(K) - lam) <= 1e-12 * lam


def test_rdm_max_eigenvalue_below_one_on_a_smooth_plan(smooth_state):
    grid, rp, K = smooth_state
    assert 0.0 < rdm_max_eigenvalue(K) < 1.0


@pytest.mark.parametrize("eps", [1.5, 3.0])
def test_the_identities_hold_on_a_two_dimensional_lp_plan(two_disc_lp, eps):
    # the plan the sweep smooths, an LP optimum, where the other d = 2 cases
    # smooth hand-made plans.  The diagonal is sampled at nodes within 2 eps
    # of the atoms per coordinate, 107 and 56 of them off the support's zeros
    rho, sol = two_disc_lp
    rp = build_regularized(sol.plan, rho, eps)
    K = MixedStateKernel(rp)
    assert rp.density().l1_distance(rho) <= 1e-10
    assert one_particle_density(K).l1_distance(rho) <= 1e-10
    assert abs(rp.mass() - 1.0) <= 1e-10
    rng = np.random.default_rng(7)
    a = rng.integers(rp.source.n_atoms, size=200)
    x = rp.source.configs[a] + rng.integers(-int(2 * eps), int(2 * eps) + 1, (200, 2, 2))
    direct = rp.evaluate(x)
    assert np.count_nonzero(direct) > 50
    assert np.all(np.abs(kernel_eval(K, x, x) - direct) <= 1e-10 * direct)
    assert rdm_max_eigenvalue(K) <= 1.0 + 1e-10
    lhs, bound = potential_error(rp)
    assert lhs <= bound


def test_rdm_max_eigenvalue_forms_gamma_on_the_support_only():
    # two 10 x 10 cos^4 clusters (nodes 8..17 per axis) on a 64 x 64 grid,
    # each node paired with its (1, 1) translate: 200 of the 4096 nodes carry
    # rho, so the whole-grid gamma (134 MB) is about 400 times the support block
    grid = Grid(dim=2, origin=np.zeros(2), h=1 / 32, npts=64)
    idx = np.arange(8, 18)
    profile = cos4_window((idx - 12.5) / 6.0)
    weights = np.outer(profile, profile).ravel()
    weights /= weights.sum()
    nodes = np.stack(np.meshgrid(idx, idx, indexing="ij"), axis=-1).reshape(-1, 2)
    atoms = []
    for node, w in zip(nodes, weights):
        x = node * grid.h
        atoms += [(np.stack([x, x + 1.0]), w / 2.0), (np.stack([x + 1.0, x]), w / 2.0)]
    plan = plan_from_atoms(atoms, dim=2)
    rp = build_regularized(plan, marginal(plan, grid), 0.1)
    assert np.count_nonzero(rp.rho.values) == 200
    K = MixedStateKernel(rp)
    K.orbitals  # the table is built outside the traced call
    lam = []
    peak = traced_peak(lambda: lam.append(rdm_max_eigenvalue(K)))
    assert peak <= 8e6
    # the value of the whole-grid matrix's support block
    assert abs(lam[0] - 0.3892084834826849) <= 1e-12


@pytest.mark.parametrize("gap", [2, 1, 0])
def test_rdm_max_eigenvalue_exceeds_one_without_the_separation_guard(gap):
    # two particles gap nodes apart, smoothed at a width of 3.2 h: their
    # orbitals overlap, which the eps < alpha/4 guard of smooth_plan forbids
    grid = Grid.line(0.0, 1 / 16, 32)
    plan = permutation_plan([16 * grid.h, (16 + gap) * grid.h]) if gap else \
        plan_from_atoms([(np.array([[1.0], [1.0]]), 1.0)], dim=1)
    prep = dataclasses.replace(prepare_plan(plan, marginal(plan, grid)), alpha=math.inf)
    rp = smooth_plan(prep, 0.2)
    assert abs(rp.mass() - 1.0) <= 1e-10
    assert rdm_max_eigenvalue(MixedStateKernel(rp)) > 1.0 + 1e-10
    # past the guard too, a row that repeats a node is exactly 0: the node
    # is reached twice by some center, or by none
    x = plan.configs[0]
    repeat = x[[0, 0]]
    got = kernel_eval(MixedStateKernel(rp), np.stack([repeat, repeat, x]),
                      np.stack([repeat, x, repeat]))
    assert not np.any(got)


# relative to the largest unscaled value; the largest deviation on the
# paired geometry reads 7.9e-16 (kernel_eval at lam = 0.37)
SCALING_RTOL = 1e-14


def scaled_paired_state(lam: float):
    """The paired ``quantum-check`` geometry (64 nodes, h = 1/32, eps =
    0.75/8) under ``x -> lam x``: spacing, plan and width times lam."""
    name, grid, plan, eps_list = fixture_paired_smooth()
    grid = Grid.line(0.0, grid.h * lam, grid.npts)
    plan = AtomicPlan(plan.n, plan.dim, plan.configs * lam, plan.weights)
    rp = build_regularized(plan, marginal(plan, grid), eps_list[0] * lam)
    return rp, MixedStateKernel(rp)


@pytest.mark.parametrize("lam", [2.0, 0.37, 3.0])
def test_the_state_follows_the_coulomb_scaling_law(lam):
    # x -> lam x keeps the kernel's offsets (they depend on eps/h alone), the
    # orbits, the mass and gamma's spectrum; the grid kinetic energy scales
    # as lam^-2, and the kernel and the smoothed plan density, densities on
    # configuration space, as lam^-(dn).  Checked at seeded node pairs near
    # the plan's atoms
    rp1, K1 = scaled_paired_state(1.0)
    rp, K = scaled_paired_state(lam)
    assert np.array_equal(rp.kernel.offsets, rp1.kernel.offsets)
    assert rp.source.n_atoms == rp1.source.n_atoms
    rng = np.random.default_rng(0)
    r = rp1.kernel.halfwidth
    base = rp1.grid.indices_of(rp1.source.configs[rng.integers(rp1.source.n_atoms, size=200)])
    nodes, nodes_p = (base + rng.integers(-r, r + 1, size=base.shape) for _ in range(2))

    def agree(got, want):
        assert np.max(np.abs(got - want)) <= SCALING_RTOL * np.max(np.abs(want))

    agree(rp.mass(), rp1.mass())
    agree(rdm_max_eigenvalue(K), rdm_max_eigenvalue(K1))
    agree(kinetic_trace(K) * lam**2, kinetic_trace(K1))
    volume = lam ** (rp.n * rp.grid.dim)
    want = kernel_eval(K1, nodes * rp1.grid.h, nodes_p * rp1.grid.h)
    got = kernel_eval(K, nodes * rp.grid.h, nodes_p * rp.grid.h) * volume
    assert np.count_nonzero(want) > 100
    assert np.array_equal(got != 0, want != 0)
    agree(got, want)
    want = rp1.evaluate(nodes * rp1.grid.h)
    got = rp.evaluate(nodes * rp.grid.h) * volume
    assert np.array_equal(got != 0, want != 0)
    agree(got, want)


def test_dense_matrix_antisymmetry(small_state):
    grid, rp, K = small_state
    mat = dense_kernel_matrix(K).reshape(32, 32, 32, 32)
    swapped = mat.transpose(1, 0, 2, 3)
    assert np.array_equal(swapped, -mat)


def test_dense_matrix_positive_semidefinite(small_state):
    grid, rp, K = small_state
    mat = dense_kernel_matrix(K)
    eigs = np.linalg.eigvalsh(mat)
    assert eigs.min() >= -1e-12 * max(eigs.max(), 1.0)


def loop_one_particle_density(rp):
    """Per-ordering accumulation of the partial trace over coordinates
    2..n, over every ordering of every atom, on the whole-grid transfer rows."""
    cell = rp.grid.cell_volume
    transfer = dense_transfer(rp)
    acc = np.zeros(rp.grid.n_sites)
    for centers, w in zip(*expanded_rows(rp)):
        tail = 1.0
        for k in range(1, rp.n):
            tail *= transfer[centers[k]].sum() * cell
        acc += w * tail * transfer[centers[0]]
    return acc.reshape(rp.grid.shape)


def test_one_particle_density_matches_per_atom_loop(all_identity_fixtures):
    for name, grid, plan, rho, eps_list in all_identity_fixtures:
        for eps in eps_list:
            rp = build_regularized(plan, rho, eps)
            ref = loop_one_particle_density(rp)
            got = one_particle_density(MixedStateKernel(rp)).values
            assert np.abs(got - ref).max() <= 1e-14 * ref.max(), (name, eps)
            assert np.array_equal(got == 0.0, ref == 0.0), (name, eps)


def all_centers_block_eval(K, x, xp):
    """The factorized kernel with ``amp`` looked up over every center's
    window and ``M_c`` formed for every center, before choosing the atoms."""
    rp, n = K.rp, K.n
    root = float(np.prod(K.sqrt_rho[x]) * np.prod(K.sqrt_rho[xp]))
    if root == 0.0:
        return 0.0
    window = np.stack(np.unravel_index(rp.window, rp.grid.shape), axis=-1)
    amps = []
    for block in (x, xp):
        nodes = np.stack(np.unravel_index(block, rp.grid.shape), axis=-1)
        amps.append(amp_at(rp.kernel, nodes[None, None] - window[:, :, None]))
    reach = [a.any(axis=1)[rp.center_of].any(axis=1).all(axis=1) for a in amps]
    atoms = np.flatnonzero(reach[0] & reach[1])
    if atoms.size == 0:
        return 0.0
    m = np.einsum("czj,cz,czk->cjk", amps[0], rp.q, amps[1])[rp.center_of[atoms]]
    perms, signs = signed_permutations(n)
    terms = np.ones((atoms.size, len(perms), len(perms)))
    for i in range(n):
        terms *= m[:, i][:, perms[:, i][:, None], perms[:, i][None, :]]
    total = np.einsum("a,ast,s,t->", rp.source.weights[atoms], terms, signs, signs)
    return float(total) * root * rp.grid.cell_volume**n / math.factorial(n)


def edge_rows(grid, rp):
    """Rows of sorted flat blocks (m, 2, n) that pair each atom's nodes with
    a block where one of its centers reaches two nodes and another none,
    and at n = 3 with a block that repeats a node; both orders."""
    out = []
    for idx in grid.indices_of(rp.source.configs):
        step = np.eye(grid.dim, dtype=int)[0] * (1 if idx[0, 0] < grid.npts - 1 else -1)
        blocks = [np.concatenate(([idx[0], idx[0] + step], idx[2:]))]
        if rp.n == 3:
            blocks.append(np.concatenate(([idx[0], idx[0]], idx[2:])))
        for bad in blocks:
            pair = np.sort(grid.flat_index(np.stack([bad, idx])), axis=1)
            out += [pair, pair[::-1]]
    return np.array(out)


def test_block_eval_matches_all_centers_oracle(fixtures_with_2d):
    rng = np.random.default_rng(11)
    line = Grid.line(0.0, 2 / 63, 64)
    four = permutation_plan([8 * line.h, 24 * line.h, 40 * line.h, 56 * line.h])
    grid3, three, eps3 = three_cluster_plan()
    fixtures = fixtures_with_2d + [
        ("n4-permutation", line, four, marginal(four, line), [2 * line.h]),
        ("n3-three-cluster", grid3, three, marginal(three, grid3), [eps3])]
    for name, grid, plan, rho, eps_list in fixtures:
        rp = build_regularized(plan, rho, eps_list[0])
        K = MixedStateKernel(rp)
        support = np.flatnonzero(rho.values.ravel() > 0)
        r = rp.kernel.halfwidth
        rows = []
        for i in range(150):
            if i % 3 == 0:      # nodes of the support of rho
                flat = np.stack([rng.choice(support, size=rp.n, replace=False)
                                 for _ in range(2)])
            else:               # near one or two atoms, or anywhere
                a, b = rng.integers(rp.source.n_atoms, size=2)
                base = grid.indices_of(rp.source.configs[[a, b]])
                idx = np.clip(base + rng.integers(-r, r + 1, size=base.shape),
                              0, grid.npts - 1)
                if i % 3 == 2:
                    idx = rng.integers(grid.npts, size=base.shape)
                flat = np.ravel_multi_index(tuple(np.moveaxis(idx, -1, 0)), grid.shape)
            flat = np.sort(flat, axis=1)
            if np.all(np.diff(flat, axis=1) > 0):
                rows.append(flat)
        if rp.n >= 2:
            rows += list(edge_rows(grid, rp))
        rows = np.array(rows)                          # (m, 2, n), sorted blocks
        got = kernel_eval(K, *grid.points()[rows.transpose(1, 0, 2)])
        ref = np.array([all_centers_block_eval(K, *flat) for flat in rows])
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref)), name
        assert np.array_equal(got == 0.0, ref == 0.0), name
        assert np.count_nonzero(ref) >= 10, name


def batch_cases(grid, plan, rho, eps, rng):
    """Row pairs of every kind: diagonal and off-diagonal near the atoms,
    reversed rows, rows that repeat a node, rows with a node where rho = 0,
    and rows anywhere on the grid."""
    m = 60
    near = plan.configs[rng.integers(plan.n_atoms, size=(2, m))]
    # every other row on an atom: the delta plans' rho lives there only
    near[:, 1::2] += rng.uniform(-2 * eps, 2 * eps, near[:, 1::2].shape)
    x, xp = near
    repeat = x.copy()
    repeat[:, -1] = repeat[:, 0]
    empty = x.copy()
    empty[:, 0] = grid.points()[rng.choice(np.flatnonzero(rho.values.ravel() == 0), m)]
    anywhere = grid.points()[rng.integers(grid.n_sites, size=(2, m, plan.n))]
    configs = np.concatenate([x, x, x[:, ::-1], repeat, x, empty, anywhere[0]])
    configs_p = np.concatenate([x, xp, xp, x, repeat, x, anywhere[1]])
    # the rows the kernel must give exactly 0 (one particle repeats no node)
    zero = slice(3 * m if plan.n >= 2 else 5 * m, 6 * m)
    return configs, configs_p, zero


@pytest.mark.parametrize("entries", [None, 200], ids=["one-chunk", "small-chunks"])
def test_batches_equal_their_rows_bit_for_bit(fixtures_with_2d, monkeypatch, entries):
    if entries is not None:
        monkeypatch.setattr(quantum, "BATCH_ENTRIES", entries)
        monkeypatch.setattr(regularizer, "BATCH_ENTRIES", entries)
    rng = np.random.default_rng(17)
    for name, grid, plan, rho, eps_list in fixtures_with_2d:
        for eps in eps_list:
            rp = build_regularized(plan, rho, eps)
            K = MixedStateKernel(rp)
            configs, configs_p, zero = batch_cases(grid, plan, rho, eps, rng)
            got = kernel_eval(K, configs, configs_p)
            rows = np.array([kernel_eval(K, c[None], cp[None])[0]
                             for c, cp in zip(configs, configs_p)])
            assert np.array_equal(got, rows), (name, eps)
            assert np.count_nonzero(got) >= 20, (name, eps)
            assert not np.any(got[zero]), (name, eps)
            direct = rp.evaluate(configs)
            assert np.array_equal(direct, [rp.evaluate(c[None])[0] for c in configs])
            assert np.count_nonzero(direct) >= 20, (name, eps)


def test_diagonal_check_holds_at_most_three_one_body_matrices():
    rp = fine_paired_plan()
    K = MixedStateKernel(rp)
    rng = np.random.default_rng(1)
    configs = rp.source.configs[rng.integers(rp.source.n_atoms, size=2000)]
    configs = configs + rng.uniform(-2 * rp.eps, 2 * rp.eps, configs.shape)
    peak = traced_peak(lambda: kernel_eval(K, configs, configs) - rp.evaluate(configs))
    # three whole-grid float64 one-body matrices
    assert peak <= 3 * 8 * rp.grid.n_sites**2


PROPERTY_H = 1.0 / 16.0


@st.composite
def smoothed_plans(draw):
    """A random 1-D plan on n = 2 or 3 particles at grid nodes,
    smoothed at a width below a quarter of its separation, on a grid padded
    by a kernel radius on both sides of the support."""
    n = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 3))
    starts = draw(st.lists(st.integers(0, 8), min_size=m, max_size=m))
    gap = st.integers(draw(st.integers(2, 12)), 14)
    gaps = draw(st.lists(st.lists(gap, min_size=n - 1, max_size=n - 1),
                         min_size=m, max_size=m))
    nodes = np.cumsum(np.column_stack([starts, gaps]), axis=1)       # (m, n)
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m)))
    alpha = PROPERTY_H * np.diff(nodes, axis=1).min()
    eps = draw(st.floats(0.05, 0.999)) * alpha / 4.0
    pad = math.ceil(eps / PROPERTY_H) + 1
    grid = Grid.line(-pad * PROPERTY_H, PROPERTY_H, int(nodes.max()) + 1 + 2 * pad)
    plan = AtomicPlan(n, 1, nodes[:, :, None] * PROPERTY_H, weights / weights.sum())
    rho = marginal(plan, grid)
    rp = build_regularized(plan, rho, eps)
    # two configurations of support nodes (elsewhere the kernel is 0) within
    # the reach of one atom's transfer vectors
    reach = 2 * rp.kernel.halfwidth
    support = np.flatnonzero(rho.values > 0)
    atom = grid.indices_of(plan.configs[draw(st.integers(0, plan.n_atoms - 1))])[:, 0]
    near = [st.sampled_from(support[np.abs(support - a) <= reach].tolist()) for a in atom]
    x, xp = (grid.axis()[draw(st.tuples(*near)), None] for _ in range(2))
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return rho, rp, x, xp, (i, j)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(smoothed_plans())
def test_random_plans_pin_the_marginal_and_give_an_antisymmetric_state(case):
    rho, rp, x, xp, (i, j) = case
    assert rp.density().l1_distance(rho) <= 1e-10
    assert abs(rp.mass() - 1.0) <= 1e-10
    K = MixedStateKernel(rp)
    swap = np.arange(rp.n)
    swap[[i, j]] = swap[[j, i]]
    value, *swapped = kernel_eval(K, np.stack([x, x[swap], x]), np.stack([xp, xp, xp[swap]]))
    assert swapped == [-value, -value]
