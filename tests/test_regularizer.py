import numpy as np
import pytest

from llot import grids, mollifier, regularizer
from llot.errors import ValidationError
from llot.grids import (
    Grid,
    GridDensity,
    coulomb,
    h1_seminorm_sqrt,
    l1_gradient,
    marginal,
    snap_to_grid,
)
from llot.mmot import TransportProblem, solve_lp
from llot.mollifier import BumpProfile, GridKernel
from llot.presets import paired_plan
from llot.regularizer import (
    build_regularized,
    integrate_observable,
    kinetic_of_sqrt,
    potential_error,
)
from instances import kinetic_instance, permutation_plan, plan_from_atoms, potential_instance
from oracles import (amp_at, coulomb_grad, coulomb_hess, dense_integrate_observable,
                     dense_q, dense_transfer, expanded, expanded_rows, fine_paired_plan,
                     scattered_transfer, small_three_particle_case, three_cluster_plan,
                     traced_peak, unequal_cluster_density, upper_grid_edge_case,
                     whole_grid_kinetic_of_sqrt, whole_grid_tensor)

EPS_TINY = 0.22


def three_cluster_case():
    """The n = 3 three-cluster plan, smoothed: 21 orbits of unequal weight
    in one chunk of the tensor build, which adds its block 3! times."""
    grid, plan, eps = three_cluster_plan()
    return build_regularized(plan, marginal(plan, grid), eps)


def tiny_instance():
    """16-node instance small enough for the brute-force oracle."""
    grid = Grid.line(0.0, 0.1, 16)
    plan = plan_from_atoms([((0.3, 1.2), 0.5), ((1.2, 0.3), 0.5)], dim=1)
    rho = marginal(plan, grid)
    return grid, plan, rho


def brute_force_tensor(grid, plan, rho, eps):
    """Direct triple-sum evaluation of the smoothed plan, no shared code."""
    profile = BumpProfile(1)
    axis = grid.axis()
    h = grid.h
    # lattice-renormalized squared kernel: sum over offsets of kappa * h = 1
    offs = np.arange(-15, 16) * h
    vals = profile.radial(np.abs(offs) / eps) ** 2 / eps
    norm = vals.sum() * h

    def kap(u):
        return (profile.radial(np.abs(u) / eps) ** 2 / eps) / norm
    denom = np.zeros(16)
    for zi in range(16):
        denom[zi] = sum(rho.values[xi] * kap(axis[zi] - axis[xi]) * h
                        for xi in range(16))
    out = np.zeros((16, 16))
    for x1 in range(16):
        for x2 in range(16):
            total = 0.0
            for config, w in zip(*expanded(plan)):
                term = w
                for k, xi in enumerate((x1, x2)):
                    y = config[k, 0]
                    acc = 0.0
                    for zi in range(16):
                        if denom[zi] <= 0:
                            continue
                        acc += (rho.values[xi] * kap(axis[xi] - axis[zi])
                                * kap(axis[zi] - y) / denom[zi] * h)
                    term *= acc
                total += term
            out[x1, x2] = total
    return out


def test_pointwise_matches_brute_force_oracle():
    grid, plan, rho = tiny_instance()
    rp = build_regularized(plan, rho, EPS_TINY)
    oracle = brute_force_tensor(grid, plan, rho, EPS_TINY)
    got = rp.tensor()
    scale = max(oracle.max(), 1.0)
    assert np.abs(got - oracle).max() <= 1e-12 * scale


def test_single_particle_plan_reproduces_density():
    grid = Grid.line(0.0, 1.0 / 16.0, 32)
    plan = plan_from_atoms([((0.5,), 0.25), ((0.875,), 0.5),
                                  ((1.25,), 0.25)], dim=1)
    rho = marginal(plan, grid)
    rp = build_regularized(plan, rho, 0.2)
    assert np.allclose(rp.tensor(), rho.values, rtol=1e-12, atol=1e-300)
    assert np.allclose(rp.density().values, rho.values, rtol=1e-12, atol=1e-300)


def test_support_separation(two_site_fixture):
    grid, plan, rho, eps_list = two_site_fixture
    eps = eps_list[0]
    rp = build_regularized(plan, rho, eps)
    t = rp.tensor()
    x = grid.axis()
    dist = np.abs(x[:, None] - x[None, :])
    inside = dist < rp.alpha - 4.0 * eps
    assert np.all(t[inside] == 0.0)


def test_permutation_symmetry(paired_smooth_fixture):
    grid, plan, rho, eps_list = paired_smooth_fixture
    rp = build_regularized(plan, rho, eps_list[0])
    t = rp.tensor()
    assert np.allclose(t, t.T, rtol=1e-13, atol=1e-300)


def test_eps_too_wide_rejected(two_site_fixture):
    grid, plan, rho, _ = two_site_fixture
    with pytest.raises(ValidationError, match="mollifier too wide"):
        build_regularized(plan, rho, 0.4)


# per case, the node pair of a plan's orbit, that of a 1e-9-weight orbit
# that rho leaves out (within MARGINAL_TOL), or None, and the error; on a
# 32-node line at eps = 0.2, whose kernel has halfwidth 3
SMOOTHING_REJECTIONS = [
    ((2, 24), None, "grid boundary for this eps; enlarge"),    # support at node 2
    ((8, 24), (1, 16), "grid boundary for this eps$"),          # a window from node -2
    ((8, 24), (12, 28), "density vanishes near plan support"),  # rho * kappa = 0 at 12
]


@pytest.mark.parametrize("heavy, light, match", SMOOTHING_REJECTIONS,
                         ids=["support-at-the-edge", "window-off-the-grid", "density-vanishes"])
def test_smooth_plan_rejects_what_the_identities_need(heavy, light, match):
    grid = Grid.line(0.0, 1 / 16, 32)
    rho = marginal(permutation_plan(np.array(heavy) * grid.h), grid)
    atoms = [(np.array(heavy) * grid.h, 1.0)]
    if light is not None:
        atoms = [(atoms[0][0], 1.0 - 1e-9), (np.array(light) * grid.h, 1e-9)]
    prep = regularizer.prepare_plan(plan_from_atoms(atoms, dim=1), rho)
    with pytest.raises(ValidationError, match=match):
        regularizer.smooth_plan(prep, 0.2)


def test_wrong_density_rejected(two_site_fixture):
    grid, plan, rho, eps_list = two_site_fixture
    other = GridDensity(grid, np.roll(rho.values, 3))
    with pytest.raises(ValidationError, match="binned plan marginal"):
        build_regularized(plan, other, eps_list[0])


def test_marginal_pinning_all_fixtures(fixtures_with_2d, three_dim_fixture):
    for name, grid, plan, rho, eps_list in fixtures_with_2d + [three_dim_fixture]:
        for eps in eps_list:
            rp = build_regularized(plan, rho, eps)
            assert rp.density().l1_distance(rho) <= 1e-10, (name, eps)


def test_sub_grid_width_gives_one_node_kernel(paired_smooth_fixture):
    grid, plan, rho, _ = paired_smooth_fixture
    eps = 0.5 * grid.h
    with pytest.raises(ValidationError, match="kernel unresolved"):
        GridKernel(1, eps, grid.h)
    rp = build_regularized(plan, rho, eps)
    assert rp.one_node_kernel
    assert rp.eps == eps
    for c, t in zip(rp.centers, dense_transfer(rp)):
        delta = np.zeros(grid.shape)
        delta[tuple(c)] = 1.0 / grid.cell_volume
        assert np.allclose(t, delta.ravel(), rtol=1e-12, atol=0.0)
    assert rp.density().l1_distance(rho) <= 1e-10
    assert abs(rp.mass() - 1.0) <= 1e-10


def test_marginal_unchanged_when_eps_halved(two_site_fixture):
    grid, plan, rho, eps_list = two_site_fixture
    d1 = build_regularized(plan, rho, eps_list[0]).density()
    d2 = build_regularized(plan, rho, eps_list[0] / 2.0).density()
    assert d1.l1_distance(rho) <= 1e-10
    assert d2.l1_distance(rho) <= 1e-10


def test_kinetic_single_particle_equals_h1():
    grid = Grid.line(0.0, 1.0 / 16.0, 32)
    plan = plan_from_atoms([((0.5,), 0.5), ((1.0,), 0.5)], dim=1)
    rho = marginal(plan, grid)
    rp = build_regularized(plan, rho, 0.2)
    assert kinetic_of_sqrt(rp) == pytest.approx(h1_seminorm_sqrt(rho), abs=1e-10)


def test_kinetic_inequality_on_desk_instance(paired_smooth_fixture):
    grid, plan, rho, eps_list = paired_smooth_fixture
    eps = eps_list[0]
    rp = build_regularized(plan, rho, eps)
    lhs = kinetic_of_sqrt(rp)
    rhs = plan.n * (h1_seminorm_sqrt(rho) + BumpProfile(1).moments()[0] / eps**2)
    assert lhs <= rhs * 1.05


def test_kinetic_refinement_order_two():
    eps = 0.15
    vals = {}
    for npts, h in ((32, 1 / 16), (64, 1 / 32), (128, 1 / 64), (256, 1 / 128)):
        grid, plan, rho = kinetic_instance(npts, h)
        vals[npts] = kinetic_of_sqrt(build_regularized(plan, rho, eps))
    ref = vals[256]
    errs = [abs(vals[n] - ref) for n in (32, 64, 128)]
    slope = np.polyfit(np.log([1 / 16, 1 / 32, 1 / 64]), np.log(errs), 1)[0]
    assert 1.6 <= slope <= 2.4


def support_box(rp):
    """Per-axis ``(lo, hi)`` of the nodes where the tensor is nonzero."""
    t = rp.tensor().reshape((rp.grid.n_sites,) * rp.n)
    nodes = np.unique(np.nonzero(t)[0])
    idx = np.unravel_index(nodes, rp.grid.shape)
    return [(int(i.min()), int(i.max())) for i in idx]


def kinetic_oracle_cases(fixtures_with_2d):
    for name, grid, plan, rho, eps_list in fixtures_with_2d:
        for eps in eps_list + [0.5 * grid.h]:
            yield f"{name}@{eps:g}", build_regularized(plan, rho, eps)
    yield "upper-grid-edge", upper_grid_edge_case()
    # support one node below the last node, with a kernel of halfwidth 1: the
    # padded box is clipped to the grid
    grid = Grid.line(0.0, 1 / 16, 32)
    plan = permutation_plan([14 * grid.h, 30 * grid.h])
    yield "clipped-box", build_regularized(plan, marginal(plan, grid), 0.1)


def test_kinetic_of_sqrt_on_the_support_box_matches_the_whole_grid(fixtures_with_2d):
    clipped = inside = one_node = 0
    for name, rp in kinetic_oracle_cases(fixtures_with_2d):
        ref = whole_grid_kinetic_of_sqrt(rp)
        assert abs(kinetic_of_sqrt(rp) - ref) <= 1e-14 * ref, name
        box = support_box(rp)
        clipped += any(lo < 3 or hi + 3 > rp.grid.npts - 1 for lo, hi in box)
        inside += all(lo >= 3 and hi + 3 <= rp.grid.npts - 1 for lo, hi in box)
        one_node += rp.one_node_kernel
    assert clipped and inside and one_node   # every regime ran


def test_kinetic_of_sqrt_needs_three_nodes_per_axis(monkeypatch):
    grid = Grid.line(0.0, 1.0, 2)
    plan = plan_from_atoms([((0.0,), 0.5), ((1.0,), 0.5)], dim=1)
    rp = build_regularized(plan, marginal(plan, grid), 0.5)
    monkeypatch.setattr(rp, "_build_tensor", lambda: pytest.fail("tensor built"))
    with pytest.raises(ValidationError, match="at least 3 nodes per axis"):
        kinetic_of_sqrt(rp)


def test_tensor_build_holds_at_most_three_tensors():
    rp = fine_paired_plan()
    peak = traced_peak(rp.tensor)
    assert peak <= 3 * rp.tensor().nbytes


def test_kinetic_of_sqrt_holds_at_most_three_tensors():
    rp = fine_paired_plan()
    peak = traced_peak(lambda: kinetic_of_sqrt(rp))   # the tensor build included
    assert peak <= 3 * rp.tensor().nbytes


def test_checks_hold_a_fraction_of_a_tensor_beyond_it():
    rp = fine_paired_plan()
    size = rp.tensor().nbytes   # built before the traces
    # beyond the 8 MB tensor, the kinetic check holds two stripes of
    # STRIPE_ENTRIES (1.2 MB traced), the potential check one stripe's mask,
    # indices and coordinates and the 84k products (1.7 MB); 0.3 tensor is
    # 2.4 MB, where the whole-box forms held 13.0 and 5.2 MB
    assert traced_peak(lambda: kinetic_of_sqrt(rp)) <= 0.3 * size
    assert traced_peak(lambda: integrate_observable(rp)) <= 0.3 * size


def test_kinetic_of_sqrt_in_stripes_matches_the_whole_grid():
    rp = fine_paired_plan()
    box = rp.tensor()[rp.support_box(regularizer.SUPPORT_PAD) * rp.n]
    assert len(grids.stripes(box.shape)) > 1
    ref = whole_grid_kinetic_of_sqrt(rp)
    assert abs(kinetic_of_sqrt(rp) - ref) <= 1e-14 * ref


def test_tensor_build_holds_the_tensor_and_one_chunk():
    for case in (fine_paired_plan, three_cluster_case):
        rp = case()
        peak = traced_peak(rp.tensor)
        assert peak <= 1.2 * rp.tensor().nbytes, case.__name__


def test_block_tensor_matches_the_whole_grid_contraction():
    fine = fine_paired_plan()
    assert fine.source.n_atoms > regularizer.ATOM_CHUNK
    for rp in (fine, three_cluster_case()):
        ref = whole_grid_tensor(rp)
        got = rp.tensor()
        assert np.abs(got - ref).max() <= 1e-15 * ref.max()
        assert np.array_equal(got == 0.0, ref == 0.0)


def test_tensor_size_guard(monkeypatch):
    grid, plan, rho = tiny_instance()
    rp = build_regularized(plan, rho, EPS_TINY)
    monkeypatch.setattr(regularizer, "MAX_TENSOR_ENTRIES", 10)
    with pytest.raises(ValidationError, match="exceeds"):
        rp.tensor()


def test_tensor_integrates_single_particle_sum(paired_smooth_fixture):
    """A one-body observable sees only the marginal, which the smoothing
    pins: ``sum_j sin(x_j)`` integrates to the plan's sum."""
    grid, plan, rho, eps_list = paired_smooth_fixture
    rp = build_regularized(plan, rho, eps_list[0])
    x = grid.axis()
    phi = np.sin(x)[:, None] + np.sin(x)[None, :]
    smoothed = float((phi * rp.tensor()).sum() * grid.cell_volume**2)
    exact = float((np.sin(plan.configs[..., 0]).sum(axis=1) * plan.weights).sum())
    assert abs(smoothed - exact) <= 1e-10


def test_potential_error_coulomb_sweep_order_two():
    grid, plan, rho = potential_instance()
    eps_list = (0.1, 0.05, 0.025, 0.0125)
    lhss = []
    for eps in eps_list:
        rp = build_regularized(plan, rho, eps)
        lhs, bound = potential_error(rp)
        assert lhs <= bound
        lhss.append(lhs)
    slope = np.polyfit(np.log(eps_list), np.log(lhss), 1)[0]
    assert slope >= 1.8


# (lhs, bound) of potential_error at the four widths above, as computed by the
# per-atom sampling loop and the SVD Hessian norms before either was
# vectorized; the bound's derivative sups were then sampled on a strided grid
# of the separated region.  Each lhs is re-pinned to the plan's cost summed
# once per orbit: summed over both orderings of each orbit, that cost was
# one ulp (2.2e-16) higher, and every lhs 2.2e-16 larger.  The lhs at 0.1 is
# re-pinned to the pair form of integrate_observable, which sums the same
# products in another order: from 0.008204460804051017 (the tensor scan), a
# move of 2.7e-14 relative, since lhs = |V - E| cancels all but 0.6% of V;
# the other three came out bit-identical.  The lhs at 0.1 and 0.05 are
# re-pinned to smooth_plan's products with the kernel's box table, which sum
# the denominators and transfer vectors in another order than the slice-add
# convolution did: at 0.1 back to the tensor-scan value above, at 0.05 from
# 0.00250754386569918, a move of 8.8e-14 relative for the same cancellation;
# the other two came out bit-identical.
POTENTIAL_SWEEP_PINNED = {
    0.1: (0.008204460804051017, 3.854323865687661),
    0.05: (0.002507543865699402, 0.25245040131820395),
    0.025: (0.0006641342376552117, 0.03932612959035564),
    0.0125: (0.0001732436683083982, 0.007906130980400713),
}
# the profile normalization c in d = 1 from adaptive quadrature, which the pins
# were computed with; the Gauss-Legendre value is one ulp away, and the grid
# kernel's amplitudes are rounded from c * profile
QUAD_NORMALIZATION_1D = 2.7411551457069723


def test_potential_error_coulomb_sweep_pinned_values(monkeypatch):
    assert abs(BumpProfile(1).c / QUAD_NORMALIZATION_1D - 1.0) <= 1e-15
    BumpProfile(1).moments()   # cache the moments of the unpatched profile
    monkeypatch.setattr(mollifier, "_normalization", lambda dim: QUAD_NORMALIZATION_1D)
    grid, plan, rho = potential_instance()
    prep = regularizer.prepare_plan(plan, rho)
    for eps, (pinned_lhs, sampled_bound) in POTENTIAL_SWEEP_PINNED.items():
        lhs, bound = potential_error(regularizer.smooth_plan(prep, eps))
        assert lhs == pinned_lhs
        # the closed-form sups cover the sampled region, so the bound can only grow
        assert sampled_bound <= bound <= 1.03 * sampled_bound


def test_potential_error_bound_pinned_on_paired_fixture(paired_smooth_fixture):
    grid, plan, rho, eps_list = paired_smooth_fixture
    _, bound = potential_error(build_regularized(plan, rho, eps_list[0]))
    # the sampled sups of n = 2 reach the closed forms: a pair at distance r0
    assert bound == pytest.approx(2.8129123218844114, rel=1e-12)


def at_upper_edge(rp):
    """``rp``'s plan smoothed at the upper edge of the sweep's window,
    ``alpha/4 (1 - 1e-3)``."""
    return regularizer.smooth_plan(regularizer.prepare_plan(rp.source, rp.rho),
                                   rp.alpha / 4.0 * (1.0 - 1e-3))


def test_pair_form_matches_the_dense_oracle(all_identity_fixtures, two_dim_paired_fixture):
    cases = {}
    for name, grid, plan, rho, eps_list in all_identity_fixtures + [two_dim_paired_fixture]:
        if plan.n >= 2:
            cases.update({(name, eps): build_regularized(plan, rho, eps) for eps in eps_list})
    # a pair whose 17 x 17 boxes at the upper edge have corners beyond the
    # 2 w reach of T_c: a block over whole boxes would be singular there
    grid, plan, rho = two_dim_instance()
    cases["n2-2d-pair", 0.2] = build_regularized(plan, rho, 0.2)
    grid, plan, rho = potential_instance()
    cases.update({("potential", eps): build_regularized(plan, rho, eps)
                  for eps in POTENTIAL_SWEEP_PINNED})
    cases["fine-paired", 0.05] = fine_paired_plan()
    cases["three-cluster", 6] = three_cluster_case()
    for name in {name for name, _ in cases}:
        rp = next(rp for (key, _), rp in cases.items() if key == name)
        cases[name, "upper edge"] = at_upper_edge(rp)
    # below its upper edge only: there its support is a kernel radius from
    # the grid's last node
    cases["small-three-particle", 2] = small_three_particle_case()
    for key, rp in cases.items():
        ref = dense_integrate_observable(rp)
        assert abs(integrate_observable(rp) - ref) <= 1e-14 * ref, key


def test_pair_form_sums_every_offset_group():
    """A plan whose orbits sit at 15 different center offsets; the plans
    above have one offset group at n = 2 and two at n = 3."""
    rho = unequal_cluster_density()
    prep = regularizer.prepare_plan(solve_lp(TransportProblem(2, rho)).plan, rho)
    offsets = prep.centers[prep.center_of[:, 1]] - prep.centers[prep.center_of[:, 0]]
    assert (len(prep.center_of), len(np.unique(offsets))) == (35, 15)
    for eps in (3 * rho.grid.h, prep.alpha / 4.0 * (1.0 - 1e-3)):
        rp = regularizer.smooth_plan(prep, eps)
        ref = dense_integrate_observable(rp)
        assert abs(integrate_observable(rp) - ref) <= 1e-14 * ref, eps


def test_potential_check_builds_no_tensor():
    grid, plan, rho = potential_instance()
    rp = build_regularized(plan, rho, 0.05)
    potential_error(rp)
    assert rp._tensor is None


def test_pair_form_holds_one_group_of_rows():
    rp = fine_paired_plan()
    # one offset group: its 259 rows on either side, their product and the
    # 101 x 101 block: 1.0 MB traced
    assert traced_peak(lambda: integrate_observable(rp)) <= 2 << 20


def two_dim_instance():
    """A symmetric pair on a 32 x 32 grid, near its lower corner."""
    grid = Grid(dim=2, origin=np.zeros(2), h=1.0 / 16.0, npts=32)
    plan = plan_from_atoms([(np.array([[0.25, 0.375], [1.0, 1.25]]), 0.5),
                                  (np.array([[1.0, 1.25], [0.25, 0.375]]), 0.5)], dim=2)
    return grid, plan, marginal(plan, grid)


def derivative_cases(all_identity_fixtures):
    for name, grid, plan, rho, eps_list in all_identity_fixtures:
        if plan.n >= 2:
            for eps in eps_list:
                yield name, build_regularized(plan, rho, eps)
    grid, plan, rho = two_dim_instance()
    yield "n2-2d-pair", build_regularized(plan, rho, 0.2)


def test_closed_form_derivative_sups_cover_the_support(all_identity_fixtures):
    """``n(n-1)/r0^2`` and ``4n(n-1)/r0^3`` bound the brute-force sums of the
    Coulomb cost's largest gradient and Hessian blocks over the
    configurations where the tensor density is nonzero."""
    for name, rp in derivative_cases(all_identity_fixtures):
        t = rp.tensor().ravel()
        sites = np.unravel_index(np.nonzero(t)[0], (rp.grid.n_sites,) * rp.n)
        configs = np.stack([rp.grid.points()[i] for i in sites], axis=1)
        grad_sum = sum(np.sqrt((coulomb_grad(configs, j) ** 2).sum(-1)).max()
                       for j in range(rp.n))
        hess_sum = sum(np.linalg.norm(coulomb_hess(configs, j, k), ord=2, axis=(1, 2)).max()
                       for j in range(rp.n) for k in range(rp.n))
        pairs = rp.n * (rp.n - 1)
        r0 = rp.alpha - 4.0 * rp.eps
        assert grad_sum <= pairs / r0**2 * (1 + 1e-12), name
        assert hess_sum <= 4.0 * pairs / r0**3 * (1 + 1e-12), name
        m2 = rp.kernel.profile.moments()[1]
        brute = rp.eps**2 * (grad_sum * l1_gradient(rp.rho) * m2 + 2.0 * hess_sum)
        assert potential_error(rp)[1] >= brute, name


def test_feasibility_of_smoothed_cost(two_site_fixture):
    grid, plan, rho, eps_list = two_site_fixture
    rp = build_regularized(plan, rho, eps_list[0])
    plan_cost = float((coulomb(plan.configs) * plan.weights).sum())
    assert integrate_observable(rp) >= plan_cost - 1e-8


class SmoothedPlan:
    """Plain mollification Q_eps of an atomic plan (no marginal correction).

    Q_eps(z_1,...,z_n) = sum_atoms w * prod_k kappa(z_k - y_k), over every
    ordering of every atom; its marginal is rho * kappa, the denominator of
    the pinned construction.
    """

    def __init__(self, source, eps, grid):
        self.source = snap_to_grid(source, grid)
        self.grid = grid
        self.kernel = GridKernel(grid.dim, eps, grid.h)

    def evaluate(self, configs) -> np.ndarray:
        """Q_eps at each of the configurations (m, n, dim), coordinates
        snapped to nearest nodes."""
        atoms, weights = expanded(self.source)
        diff = self.grid.indices_of(configs)[:, None] - self.grid.indices_of(atoms)
        kappa = amp_at(self.kernel, diff) ** 2    # (m, n! n_atoms, n)
        return (weights * kappa.prod(axis=2)).sum(axis=1)

    def density(self) -> GridDensity:
        """Per atom and coordinate, ``w / n`` times the kernel at its node."""
        values = np.zeros(self.grid.shape)
        for atom, w in zip(self.source.configs, self.source.weights):
            for k in range(self.source.n):
                c = self.grid.indices_of(atom[k])
                for o, v in zip(self.kernel.offsets, self.kernel.sq):
                    z = c + o
                    if np.all((z >= 0) & (z < self.grid.npts)):
                        values[tuple(z)] += w / self.source.n * v
        return GridDensity(self.grid, values)


def test_smoothed_plan_density_is_denominator(two_site_fixture):
    grid, plan, rho, eps_list = two_site_fixture
    eps = eps_list[0]
    smoothed = SmoothedPlan(plan, eps, grid)
    rp = build_regularized(plan, rho, eps)
    denom = rp.kernel.sq / rp.q     # rho * kappa on the windows
    assert np.allclose(smoothed.density().values.ravel()[rp.window], denom,
                       rtol=1e-12, atol=1e-14)


def test_smoothed_plan_evaluate_marginal_is_its_density(two_site_fixture):
    grid, plan, rho, eps_list = two_site_fixture
    q = SmoothedPlan(plan, eps_list[0], grid)
    axis = grid.axis()
    pairs = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)   # (x, y) per entry
    vals = q.evaluate(pairs.reshape(-1, 2, 1)).reshape(len(axis), len(axis))
    assert vals.sum() * grid.h**2 == pytest.approx(1.0, abs=1e-12)
    marg = 0.5 * (vals.sum(axis=0) + vals.sum(axis=1)) * grid.h
    assert np.abs(marg - q.density().values).max() <= 1e-12 * marg.max()


def test_transfer_table_scatters_to_the_dense_oracle(fixtures_with_2d, three_dim_fixture):
    """The box products of ``smooth_plan`` against the whole-grid slice-add
    sums: they add the same terms in another order, so each table agrees to
    a rounding bound of its maximum, with the same zeros."""
    off_grid = 0
    for name, grid, plan, rho, eps_list in fixtures_with_2d + [three_dim_fixture]:
        for eps in eps_list + [0.5 * grid.h]:
            rp = build_regularized(plan, rho, eps)
            side = 4 * rp.kernel.halfwidth + 1
            assert rp.transfer.shape == (len(rp.centers), side**grid.dim), (name, eps)
            assert rp.nodes.shape == rp.transfer.shape, (name, eps)
            assert np.all(rp.transfer[rp.nodes < 0] == 0.0), (name, eps)
            for got, ref in ((scattered_transfer(rp), dense_transfer(rp)), (rp.q, dense_q(rp))):
                assert np.abs(got - ref).max() <= 2e-15 * ref.max(), (name, eps)
                assert np.array_equal(got == 0, ref == 0), (name, eps)
            off_grid += np.count_nonzero(rp.nodes < 0)
    assert off_grid > 0   # some boxes reach past the grid


def test_a_prepared_plan_reuses_its_lattice_as_a_fresh_one_would_build_it(
        all_identity_fixtures, two_dim_paired_fixture, three_dim_fixture):
    """One prepared plan smoothed at widths whose offset sets run A, A, B,
    A: the second width reuses the first one's lattice, B replaces it and
    the last A builds it again, and every smoothing equals that of a fresh
    prepared plan."""
    for name, grid, plan, rho, (a, b) in all_identity_fixtures + [two_dim_paired_fixture,
                                                                   three_dim_fixture]:
        prep = regularizer.prepare_plan(plan, rho)
        widths = (a, a * (1 - 1e-3), b, a)
        rps = [regularizer.smooth_plan(prep, eps) for eps in widths]
        first, same, other, again = (rp.kernel.lattice for rp in rps)
        assert same is first and other is not first and again is not first, name
        assert np.array_equal(again.offsets, first.offsets), name
        assert len(other.offsets) != len(first.offsets), name
        for eps, rp in zip(widths, rps):
            fresh = regularizer.smooth_plan(regularizer.prepare_plan(plan, rho), eps)
            for attr in ("nodes", "window", "q", "transfer"):
                assert np.array_equal(getattr(rp, attr), getattr(fresh, attr)), (name, eps, attr)
            assert not (rp.nodes.flags.writeable or rp.window.flags.writeable), (name, eps)


def outer_product_tensor(rp):
    """Sum over every ordering of every atom of the weighted outer products
    of the whole-grid transfer rows."""
    s = rp.grid.n_sites
    transfer = dense_transfer(rp)
    out = np.zeros((s,) * rp.n)
    for centers, w in zip(*expanded_rows(rp)):
        term = np.array(w)
        for k in range(rp.n):
            term = np.multiply.outer(term, transfer[centers[k]])
        out += term
    return out.reshape(rp.grid.shape * rp.n)


def test_tensor_contraction_matches_outer_product_sum(all_identity_fixtures):
    assert {plan.n for _, _, plan, _, _ in all_identity_fixtures} == {1, 2, 3}
    for name, grid, plan, rho, eps_list in all_identity_fixtures:
        rp = build_regularized(plan, rho, eps_list[0])
        ref = outer_product_tensor(rp)
        got = rp.tensor()
        assert np.abs(got - ref).max() <= 1e-13 * ref.max(), name
        assert np.array_equal(got == 0.0, ref == 0.0), name


def test_tensor_chunked_over_atoms_matches_one_contraction(all_identity_fixtures,
                                                           monkeypatch):
    name, grid, plan, rho, eps_list = all_identity_fixtures[0]
    rp = build_regularized(plan, rho, eps_list[0])
    assert rp.n == 1 and rp.source.n_atoms > 1
    whole = rp.tensor()
    # a cap of n_sites forces one atom per chunk
    monkeypatch.setattr(regularizer, "MAX_TENSOR_ENTRIES", grid.n_sites)
    chunked = build_regularized(plan, rho, eps_list[0]).tensor()
    assert np.abs(chunked - whole).max() <= 1e-13 * chunked.max()


@pytest.mark.parametrize("chunk", [1, 2])
def test_block_tensor_per_chunk_matches_outer_product_sum(fixtures_with_2d, chunk,
                                                          monkeypatch):
    monkeypatch.setattr(regularizer, "ATOM_CHUNK", chunk)
    cases = [(name, build_regularized(plan, rho, eps_list[0]))
             for name, grid, plan, rho, eps_list in fixtures_with_2d]
    for name, rp in cases + [("upper-grid-edge", upper_grid_edge_case()),
                             ("three-cluster", three_cluster_case()),
                             ("small-three-particle", small_three_particle_case())]:
        ref = outer_product_tensor(rp)
        got = rp.tensor()
        assert np.abs(got - ref).max() <= 1e-13 * ref.max(), name
        assert np.array_equal(got == 0.0, ref == 0.0), name


def test_tensor_built_once_and_read_only(monkeypatch):
    grid, plan, rho = tiny_instance()
    rp = build_regularized(plan, rho, EPS_TINY)
    builds = []
    build = rp._build_tensor
    monkeypatch.setattr(rp, "_build_tensor", lambda: builds.append(1) or build())
    kinetic_of_sqrt(rp)
    integrate_observable(rp)
    potential_error(rp)
    assert len(builds) == 1
    t = rp.tensor()
    assert t is rp.tensor() and not t.flags.writeable
    with pytest.raises(ValueError):
        t[0, 0] = 1.0


def loop_mass(rp):
    """Per-atom product of the whole-grid transfer rows' masses."""
    cell = rp.grid.cell_volume
    transfer = dense_transfer(rp)
    total = 0.0
    for a in range(rp.source.n_atoms):
        prod = rp.source.weights[a]
        for k in range(rp.n):
            prod *= transfer[rp.center_of[a, k]].sum() * cell
        total += prod
    return total


def loop_density(rp):
    """Per-atom, per-coordinate accumulation of the coordinate-averaged
    marginal, on the whole-grid transfer rows."""
    cell = rp.grid.cell_volume
    transfer = dense_transfer(rp)
    acc = np.zeros(rp.grid.n_sites)
    for a in range(rp.source.n_atoms):
        w = rp.source.weights[a]
        masses = [transfer[rp.center_of[a, k]].sum() * cell for k in range(rp.n)]
        for k in range(rp.n):
            others = 1.0
            for l in range(rp.n):
                if l != k:
                    others *= masses[l]
            acc += (w / rp.n) * others * transfer[rp.center_of[a, k]]
    return acc.reshape(rp.grid.shape)


def test_mass_and_density_match_per_atom_loops(all_identity_fixtures):
    for name, grid, plan, rho, eps_list in all_identity_fixtures:
        for eps in eps_list:
            rp = build_regularized(plan, rho, eps)
            assert abs(rp.mass() - loop_mass(rp)) <= 1e-14 * loop_mass(rp), (name, eps)
            ref = loop_density(rp)
            got = rp.density().values
            assert np.abs(got - ref).max() <= 1e-14 * ref.max(), (name, eps)
            assert np.array_equal(got == 0.0, ref == 0.0), (name, eps)


def loop_evaluate(rp, transfer, config):
    """Per-ordering product of the whole-grid transfer entries at the
    snapped configuration, over every ordering of every atom."""
    config = np.asarray(config, dtype=float).reshape(rp.n, rp.source.dim)
    idx = rp.grid.indices_of(config)
    sites = [np.ravel_multi_index(tuple(idx[k]), rp.grid.shape) for k in range(rp.n)]
    total = 0.0
    for centers, w in zip(*expanded_rows(rp)):
        prod = w
        for k in range(rp.n):
            prod *= transfer[centers[k], sites[k]]
            if prod == 0.0:
                break
        total += prod
    return float(total)


def test_evaluate_matches_per_atom_loop(fixtures_with_2d):
    rng = np.random.default_rng(5)
    for name, grid, plan, rho, eps_list in fixtures_with_2d:
        lo, hi = grid.origin - 2 * grid.h, grid.origin + (grid.npts + 1) * grid.h
        for eps in eps_list:
            rp = build_regularized(plan, rho, eps)
            near = plan.configs[rng.integers(plan.n_atoms, size=40)]
            near = near + rng.uniform(-2 * eps, 2 * eps, near.shape)
            # P_eps vanishes off the marginal's support, so draw tuples on it
            support = grid.points()[rho.values.ravel() > 0]
            on_support = support[rng.integers(len(support), size=(40, plan.n))]
            # points past the grid's edges snap to the edge nodes
            anywhere = rng.uniform(lo, hi, (20,) + plan.configs.shape[1:])
            configs = np.concatenate([plan.configs, near, on_support, anywhere])
            transfer = dense_transfer(rp)
            ref = np.array([loop_evaluate(rp, transfer, x) for x in configs])
            got = rp.evaluate(configs)
            assert ref.max() > 0.0, (name, eps)
            assert np.all(np.abs(got - ref) <= 1e-14 * ref), (name, eps)
            assert np.array_equal(got == 0.0, ref == 0.0), (name, eps)
