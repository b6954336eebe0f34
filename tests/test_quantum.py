import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llot.errors import ValidationError
from llot.grids import AtomicPlan, Grid, h1_seminorm_sqrt, marginal, symmetrize
from llot.mollifier import BumpProfile, GridKernel
from llot.presets import kinetic_instance, permutation_plan
from llot import quantum
from llot.quantum import (
    MixedStateKernel,
    kernel_eval,
    kinetic_trace,
    one_particle_density,
    quadratic_form,
)
from llot.regularizer import build_regularized, kinetic_of_sqrt
from oracles import (OrbitalSet, amp_at, dense_kernel_matrix, dense_transfer,
                     det_square_identity, slater)


@pytest.fixture(scope="module")
def small_state(two_site_fixture_mod):
    grid, plan, rho, eps_list = two_site_fixture_mod
    rp = build_regularized(plan, rho, eps_list[0])
    return grid, rp, MixedStateKernel(rp)


@pytest.fixture(scope="module")
def two_site_fixture_mod():
    from llot.presets import fixture_two_site
    name, grid, plan, eps_list = fixture_two_site()
    rho = marginal(plan, grid)
    return grid, plan, rho, eps_list


@pytest.fixture(scope="module")
def smooth_state():
    from llot.presets import fixture_paired_smooth
    name, grid, plan, eps_list = fixture_paired_smooth()
    rho = marginal(plan, grid)
    rp = build_regularized(plan, rho, eps_list[0])
    return grid, rp, MixedStateKernel(rp)


def orbital_set(grid, centers, eps, rho=None):
    kernel = GridKernel(1, eps, grid.h)
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
    worst = 0.0
    scale = 0.0
    for _ in range(200):
        a = rng.integers(rp.source.n_atoms)
        x = rp.source.configs[a] + rng.uniform(-2 * rp.eps, 2 * rp.eps, (2, 1))
        diag = kernel_eval(K, x, x)
        direct = rp.evaluate(x)
        worst = max(worst, abs(diag - direct))
        scale = max(scale, abs(direct))
    assert worst <= 1e-12 * scale


def test_kernel_vanishes_on_coincident_coordinates(small_state):
    grid, rp, K = small_state
    x = np.array([[0.25], [0.25]])
    xp = np.array([[0.25], [1.5]])
    assert kernel_eval(K, x, xp) == 0.0


def test_kernel_hermitian(smooth_state):
    grid, rp, K = smooth_state
    rng = np.random.default_rng(5)
    worst = 0.0
    scale = 0.0
    for _ in range(100):
        a, b = rng.integers(rp.source.n_atoms, size=2)
        x = rp.source.configs[a] + rng.uniform(-rp.eps, rp.eps, (2, 1))
        xp = rp.source.configs[b] + rng.uniform(-rp.eps, rp.eps, (2, 1))
        v1 = kernel_eval(K, x, xp)
        v2 = kernel_eval(K, xp, x)
        worst = max(worst, abs(v1 - v2))
        scale = max(scale, abs(v1))
    assert worst <= 1e-14 * max(scale, 1e-300)


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

    axis = grid.axis()
    nonzero = 0
    for _ in range(200):
        i, j = block(), block()
        entry = mat[i[0] * s + i[1], j[0] * s + j[1]]
        val = kernel_eval(K, axis[i][:, None], axis[j][:, None])
        assert abs(val - entry) <= 1e-12 * np.abs(mat).max()
        nonzero += entry != 0.0
    assert nonzero >= 20


def test_kernel_antisymmetry_is_exact(small_state):
    grid, rp, K = small_state
    x = np.array([[0.25], [1.5]])
    xp = np.array([[0.3125], [1.4375]])
    v = kernel_eval(K, x, xp)
    assert kernel_eval(K, x[::-1], xp) == -v
    assert kernel_eval(K, x, xp[::-1]) == -v
    assert kernel_eval(K, x[::-1], xp[::-1]) == v


def test_trace_is_one(all_identity_fixtures):
    for name, grid, plan, rho, eps_list in all_identity_fixtures:
        for eps in eps_list:
            rp = build_regularized(plan, rho, eps)
            assert abs(rp.mass() - 1.0) <= 1e-10, (name, eps)


def test_trace_single_particle():
    grid = Grid.line(0.0, 1 / 16, 32)
    plan = AtomicPlan.from_atoms([((0.5,), 0.5), ((1.0,), 0.5)], dim=1)
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


def test_kinetic_trace_single_particle():
    grid = Grid.line(0.0, 1 / 32, 64)
    axis = grid.axis()
    nodes = axis[(axis >= 0.5) & (axis <= 1.25)]
    w = np.cos(np.pi * (nodes - 0.875) / 0.75) ** 4
    w /= w.sum()
    plan = AtomicPlan.from_atoms([((s,), ws) for s, ws in zip(nodes, w)], dim=1)
    rho = marginal(plan, grid)
    rp = build_regularized(plan, rho, 0.2)
    analytic, quad = kinetic_trace(MixedStateKernel(rp))
    formula = h1_seminorm_sqrt(rho) + BumpProfile(1).moments()[0] / 0.2**2
    assert analytic == pytest.approx(formula, rel=1e-13)
    assert quad == pytest.approx(analytic, rel=2e-2)


def test_kinetic_trace_eps_halving_shift(smooth_state):
    grid, rp, K = smooth_state
    eps = rp.eps
    analytic_1, _ = kinetic_trace(K)
    rp2 = build_regularized(rp.source, rp.rho, eps / 2.0)
    analytic_2, _ = kinetic_trace(MixedStateKernel(rp2))
    grad_moment = BumpProfile(1).moments()[0]
    expected_shift = rp.n * 3.0 * grad_moment / eps**2
    assert analytic_2 - analytic_1 == pytest.approx(expected_shift, rel=1e-10)


def test_kinetic_trace_sub_grid_width_is_the_one_node_state(smooth_state):
    grid, rp, _ = smooth_state
    at_h = kinetic_trace(MixedStateKernel(build_regularized(rp.source, rp.rho, grid.h)))
    sub = kinetic_trace(MixedStateKernel(
        build_regularized(rp.source, rp.rho, 0.5 * grid.h)))
    assert sub == at_h


def test_kinetic_trace_refinement_order_two():
    rels = []
    hs = []
    for npts, h in ((32, 1 / 16), (64, 1 / 32), (128, 1 / 64)):
        grid, plan, rho = kinetic_instance(npts, h)
        rp = build_regularized(plan, rho, 0.15)
        analytic, quad = kinetic_trace(MixedStateKernel(rp))
        rels.append(abs(analytic - quad) / analytic)
        hs.append(h)
    slope = np.polyfit(np.log(hs), np.log(rels), 1)[0]
    assert 1.8 <= slope <= 2.2
    assert rels[-1] <= 1e-3


def per_atom_kinetic_quadrature(K):
    """``kinetic_trace``'s quadrature as a loop over atom x coordinate x window node."""
    rp = K.rp
    energy = {}
    quad = 0.0
    for a in range(rp.source.n_atoms):
        w = rp.source.weights[a]
        for k in range(rp.n):
            c = rp.center_of[a, k]
            flat_idx, q = rp.window[c], rp.q[c]
            for fz, qz in zip(flat_idx, q):
                if fz not in energy:
                    energy[fz] = quantum._orbital_energy(rp, int(fz))
                quad += w * energy[fz] * qz * rp.grid.cell_volume
    return quad


def test_kinetic_trace_matches_per_atom_loop(all_identity_fixtures):
    for name, grid, plan, rho, eps_list in all_identity_fixtures:
        for eps in eps_list:
            K = MixedStateKernel(build_regularized(plan, rho, eps))
            _, quad = kinetic_trace(K)
            expected = per_atom_kinetic_quadrature(K)
            assert quad == pytest.approx(expected, rel=1e-14, abs=0.0), (name, eps)


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
            tuples, weights = MixedStateKernel(rp).window_tuples
            ref_tuples, ref_weights = per_atom_window_tuples(rp)
            assert np.array_equal(tuples, ref_tuples), (plan.n, eps)
            assert np.array_equal(weights, ref_weights), (plan.n, eps)


def test_cauchy_schwarz_direction(all_identity_fixtures):
    for name, grid, plan, rho, eps_list in all_identity_fixtures:
        rp = build_regularized(plan, rho, eps_list[0])
        _, quad = kinetic_trace(MixedStateKernel(rp))
        assert kinetic_of_sqrt(rp) <= quad * 1.05, name


def test_positivity_random_vectors(small_state):
    grid, rp, K = small_state
    rng = np.random.default_rng(17)
    for _ in range(100):
        psi = rng.standard_normal((grid.n_sites,) * 2)
        val = quadratic_form(K, psi)
        assert val >= -1e-12 * float((psi * psi).sum())


def test_quadratic_form_matches_dense(small_state):
    grid, rp, K = small_state
    mat = dense_kernel_matrix(K)
    rng = np.random.default_rng(23)
    for _ in range(5):
        psi = rng.standard_normal((grid.n_sites,) * 2)
        direct = psi.ravel() @ mat @ psi.ravel() * grid.h**4
        assert quadratic_form(K, psi) == pytest.approx(direct, rel=1e-12)


def test_quadratic_form_near_upper_grid_edge():
    # the support sits one kernel halfwidth below the last node, so window
    # orbitals reach past the grid
    grid = Grid.line(0.0, 1 / 16, 32)
    plan = permutation_plan([14 * grid.h, 28 * grid.h])
    rp = build_regularized(plan, marginal(plan, grid), 0.2)
    assert 28 + rp.kernel.halfwidth == grid.npts - 1
    K = MixedStateKernel(rp)
    mat = dense_kernel_matrix(K)
    rng = np.random.default_rng(29)
    for _ in range(5):
        psi = rng.standard_normal((grid.n_sites,) * 2)
        direct = psi.ravel() @ mat @ psi.ravel() * grid.h**4
        assert quadratic_form(K, psi) == pytest.approx(direct, rel=1e-12)


def test_quadratic_form_and_kernel_match_dense_in_two_dimensions(two_dim_fixture):
    _, grid, plan, rho, (eps,) = two_dim_fixture
    rp = build_regularized(plan, rho, eps)
    assert len(rp.kernel.offsets) == 5
    K = MixedStateKernel(rp)
    mat = dense_kernel_matrix(K)
    rng = np.random.default_rng(37)
    for _ in range(3):
        psi = rng.standard_normal((grid.n_sites,) * 2)
        direct = psi.ravel() @ mat @ psi.ravel() * grid.h**8
        assert quadratic_form(K, psi) == pytest.approx(direct, rel=1e-12)
    pts, s = grid.points(), grid.n_sites
    for r, c in np.argwhere(mat != 0.0):
        val = kernel_eval(K, pts[[r // s, r % s]], pts[[c // s, c % s]])
        assert val == pytest.approx(mat[r, c], rel=1e-12)


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
    """Per-atom accumulation of the partial trace over coordinates 2..n, on
    the whole-grid transfer rows."""
    cell = rp.grid.cell_volume
    transfer = dense_transfer(rp)
    acc = np.zeros(rp.grid.n_sites)
    for a in range(rp.source.n_atoms):
        tail = 1.0
        for k in range(1, rp.n):
            tail *= transfer[rp.center_of[a, k]].sum() * cell
        acc += rp.source.weights[a] * tail * transfer[rp.center_of[a, 0]]
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
    perms, signs = K._perms
    terms = np.ones((atoms.size, len(perms), len(perms)))
    for i in range(n):
        terms *= m[:, i][:, perms[:, i][:, None], perms[:, i][None, :]]
    total = np.einsum("a,ast,s,t->", rp.source.weights[atoms], terms, signs, signs)
    return float(total) * root * rp.grid.cell_volume**n / math.factorial(n)


def test_block_eval_matches_all_centers_oracle(fixtures_with_2d):
    rng = np.random.default_rng(11)
    for name, grid, plan, rho, eps_list in fixtures_with_2d:
        rp = build_regularized(plan, rho, eps_list[0])
        K = MixedStateKernel(rp)
        support = np.flatnonzero(rho.values.ravel() > 0)
        r = rp.kernel.halfwidth
        nonzero = 0
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
            if np.any(np.diff(flat, axis=1) == 0):
                continue
            got = K._block_eval(*flat)
            ref = all_centers_block_eval(K, *flat)
            assert abs(got - ref) <= 1e-15 * abs(ref), (name, flat)
            assert (got == 0.0) == (ref == 0.0), (name, flat)
            nonzero += ref != 0.0
        assert nonzero >= 10, (name, nonzero)


PROPERTY_H = 1.0 / 16.0


@st.composite
def smoothed_plans(draw):
    """A symmetrized random 1-D plan on n = 2 or 3 particles at grid nodes,
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
    plan = symmetrize(AtomicPlan(n, 1, nodes[:, :, None] * PROPERTY_H,
                                 weights / weights.sum()))
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
    value = kernel_eval(K, x, xp)
    swap = np.arange(rp.n)
    swap[[i, j]] = swap[[j, i]]
    assert kernel_eval(K, x[swap], xp) == -value
    assert kernel_eval(K, x, xp[swap]) == -value
