import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llot import grids
from llot.errors import ValidationError
from llot.grids import (
    AtomicPlan,
    Grid,
    GridDensity,
    density_from_values,
    dirichlet_sum_sqrt,
    h1_seminorm_sqrt,
    marginal,
    separation,
    snap_to_grid,
)
from llot.mollifier import BumpProfile
from llot.presets import sweep_density
from llot.quantum import MixedStateKernel, kernel_eval
from llot.regularizer import build_regularized
from instances import fixture_paired_smooth, identity_fixtures, plan_from_atoms, potential_instance
from oracles import expanded, gradient_dirichlet_sum_sqrt


def plan_1d(atoms):
    return plan_from_atoms(atoms, dim=1)


def test_grid_validation():
    with pytest.raises(ValidationError):
        Grid.line(0.0, -0.1, 8)
    with pytest.raises(ValidationError):
        Grid.line(0.0, 0.1, 1)
    g = Grid.line(0.5, 0.25, 5)
    assert np.allclose(g.axis(), [0.5, 0.75, 1.0, 1.25, 1.5])
    assert g.indices_of([1.06]).tolist() == [2]


def test_density_mass_validation():
    g = Grid.line(0.0, 0.5, 4)
    vals = np.array([1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValidationError):
        GridDensity(g, vals)  # mass 2, not 1
    rho = GridDensity(g, vals / 2.0)
    assert rho.mass() == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValidationError):
        GridDensity(g, -vals)


def test_non_finite_inputs_rejected():
    with pytest.raises(ValidationError, match="finite"):
        Grid.line(0.0, float("nan"), 8)
    with pytest.raises(ValidationError, match="finite"):
        Grid.line(float("inf"), 0.1, 8)
    g = Grid.line(0.0, 0.5, 4)
    with pytest.raises(ValidationError, match="finite"):
        GridDensity(g, np.array([0.5, np.nan, 0.5, 1.0]))
    with pytest.raises(ValidationError, match="finite"):
        GridDensity(g, np.array([0.5, np.inf, 0.5, 1.0]))
    with pytest.raises(ValidationError, match="finite"):
        plan_1d([((0.0, np.nan), 0.5), ((np.nan, 0.0), 0.5)])
    with pytest.raises(ValidationError, match="finite"):
        plan_1d([((0.0, 1.0), np.nan), ((1.0, 0.0), 0.5)])
    line = Grid.line(0.0, 0.1, 10)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="finite"):
            line.indices_of([[0.3], [bad]])
    # a non-finite coordinate reaches no node of the state or the plan
    plan = plan_1d([((0.2, 0.7), 0.5), ((0.7, 0.2), 0.5)])
    rp = build_regularized(plan, marginal(plan, line), 0.1)
    K = MixedStateKernel(rp)
    configs = np.array([[[0.2], [0.7]]])
    for bad in (np.nan, np.inf, -np.inf):
        broken = configs.copy()
        broken[0, 1, 0] = bad
        with pytest.raises(ValidationError, match="finite"):
            kernel_eval(K, broken, configs)
        with pytest.raises(ValidationError, match="finite"):
            kernel_eval(K, configs, broken)
        with pytest.raises(ValidationError, match="finite"):
            rp.evaluate(broken)


def test_indices_of_clips_exactly_at_the_grid_edges():
    grid = Grid(dim=2, origin=np.array([-0.3, 0.7]), h=0.25, npts=9)
    steps = [-1.7e308, -1e300, -1e6, -100.0, -0.6, -0.4, 0.0, 0.5, 3.0, 7.5, 8.0, 8.4, 8.6,
             100.0, 1e6, 1e300, 1.7e308]
    x = np.array([[grid.origin[0] + a * grid.h, grid.origin[1] + b * grid.h]
                  for a in steps for b in steps])
    ref = [[min(max(int(round((xk - ok) / grid.h)), 0), grid.npts - 1)
            for xk, ok in zip(point, grid.origin)] for point in x]
    got = grid.indices_of(x)
    assert got.dtype.kind == "i"
    assert np.array_equal(got, np.array(ref))
    assert grid.indices_of(x[0]).tolist() == ref[0]
    # points whose offset over h overflows a float clip like any other
    huge = np.array([[-1.7e308, 1.7e308], [1.7e308, -1.7e308]])
    assert grid.indices_of(huge).tolist() == [[0, grid.npts - 1], [grid.npts - 1, 0]]
    assert Grid.line(0.0, 0.1, 10).indices_of(huge[:, :1]).tolist() == [[0], [9]]


@pytest.mark.parametrize("n, dim", [(0, 1), (2, 0)])
def test_plan_needs_a_particle_and_a_dimension(n, dim):
    with pytest.raises(ValidationError, match="at least one particle and one dimension"):
        AtomicPlan(n, dim, np.zeros((1, n, dim)), np.ones(1))


def test_indices_of_rejects_points_of_another_dimension():
    line = Grid.line(0.0, 0.25, 9)
    plane = Grid(dim=2, origin=np.zeros(2), h=0.25, npts=9)
    with pytest.raises(ValidationError, match="dimension 2 on a grid of dimension 1"):
        line.indices_of(np.zeros((3, 2, 2)))
    with pytest.raises(ValidationError, match="dimension 1 on a grid of dimension 2"):
        plane.indices_of(np.zeros((3, 1)))
    with pytest.raises(ValidationError, match="dimension 1 on a grid of dimension 2"):
        plane.indices_of(0.5)
    # a batch of another shape is not regrouped into (m, n, dim) rows
    _, grid, plan, eps_list = fixture_paired_smooth()
    rp = build_regularized(plan, marginal(plan, grid), eps_list[0])
    K = MixedStateKernel(rp)
    configs = np.zeros((4, 2, 1))
    for bad in (np.zeros((4, 3, 1)), np.zeros((4, 2, 2)), np.zeros((4, 2)), np.zeros(2),
                np.zeros((1, 4, 2, 1))):
        with pytest.raises(ValidationError, match="configuration batches of shapes"):
            rp.evaluate(bad)
        with pytest.raises(ValidationError, match="configuration batches of shapes"):
            kernel_eval(K, bad, configs)
        with pytest.raises(ValidationError, match="configuration batches of shapes"):
            kernel_eval(K, configs, bad)
    with pytest.raises(ValidationError, match=r"shapes \[\(4, 2, 1\), \(3, 2, 1\)\]: expected"):
        kernel_eval(K, configs, configs[:3])


@pytest.mark.parametrize("dim", [1, 2])
def test_flat_index_is_c_order_with_minus_one_off_the_grid(dim):
    grid = Grid(dim=dim, origin=np.zeros(dim), h=0.25, npts=5)
    idx = np.stack(np.meshgrid(*[np.arange(-2, 7)] * dim, indexing="ij"), axis=-1)
    flat = grid.flat_index(idx)
    on = np.all((idx >= 0) & (idx < grid.npts), axis=-1)
    assert np.array_equal(flat[on], np.ravel_multi_index(tuple(idx[on].T), grid.shape))
    for k in range(dim):
        for edge in (-1, grid.npts):
            past = np.zeros(dim, dtype=int)
            past[k] = edge
            assert grid.flat_index(past) == -1
    assert np.all(flat[~on] == -1)
    assert np.array_equal(grid.multi_index(flat[on]), idx[on])
    assert np.array_equal(grid.flat_index(grid.multi_index(np.arange(grid.n_sites))),
                          np.arange(grid.n_sites))


def test_marginal_two_site_symmetric():
    g = Grid.line(0.0, 1.0, 2)
    plan = plan_1d([((0.0, 1.0), 0.5), ((1.0, 0.0), 0.5)])
    rho = marginal(plan, g)
    assert np.allclose(rho.values * g.h, [0.5, 0.5])


def test_marginal_single_atom_delta():
    g = Grid.line(0.0, 0.25, 9)
    plan = plan_1d([((1.0,), 1.0)])
    rho = marginal(plan, g)
    expected = np.zeros(9)
    expected[4] = 1.0 / g.h
    assert np.allclose(rho.values, expected)


def test_marginal_three_particle_uniform():
    g = Grid.line(0.0, 1.0, 3)
    import itertools
    atoms = [(perm, 1.0 / 6.0) for perm in itertools.permutations((0.0, 1.0, 2.0))]
    plan = plan_1d(atoms)
    rho = marginal(plan, g)
    assert np.allclose(rho.values * g.h, [1 / 3, 1 / 3, 1 / 3])


def test_marginal_empty_plan_rejected():
    with pytest.raises(ValidationError, match="empty measure"):
        AtomicPlan(1, 1, np.empty((0, 1, 1)), np.empty(0))


def test_symmetrize_keeps_an_atom_as_one_orbit():
    # the constructor symmetrizes: one atom is one orbit, its points sorted
    plan = plan_1d([((1.0, 0.0), 1.0)])
    assert plan.n_atoms == 1
    assert plan.configs.ravel().tolist() == [0.0, 1.0]
    assert plan.weights.tolist() == [1.0]
    assert dict_is_symmetric(*expanded(plan), tol=0.0)


def test_symmetrize_idempotent_and_mass_preserving():
    plan = plan_1d([((0.0, 1.0), 0.25), ((2.0, 0.5), 0.75)])
    listed = plan_1d([((1.0, 0.0), 0.125), ((0.5, 2.0), 0.75), ((0.0, 1.0), 0.125)])
    again = AtomicPlan(plan.n, plan.dim, plan.configs, plan.weights)
    assert plan.weights.sum() == pytest.approx(1.0, abs=1e-15)
    for other in (listed, again):
        assert other.configs.tobytes() == plan.configs.tobytes()
        assert np.array_equal(other.weights, plan.weights)


def test_symmetrize_diagonal_atom_fixed_point():
    plan = plan_1d([((0.5, 0.5), 1.0)])
    assert plan.n_atoms == 1
    assert np.allclose(plan.configs[0].ravel(), [0.5, 0.5])
    configs, weights = expanded(plan)
    assert AtomicPlan(2, 1, configs, weights).configs.tobytes() == plan.configs.tobytes()


def test_marginal_invariant_under_symmetrize():
    g = Grid.line(0.0, 0.25, 16)
    r1 = marginal(plan_1d([((0.5, 1.5), 1.0)]), g)
    r2 = marginal(plan_1d([((1.5, 0.5), 0.5), ((0.5, 1.5), 0.5)]), g)
    assert np.array_equal(r1.values, r2.values)


def test_signed_zeros_make_one_orbit():
    plan = plan_1d([((0.0, 1.0), 0.5), ((1.0, -0.0), 0.5)])
    assert plan.n_atoms == 1
    assert plan.weights.tolist() == [1.0]
    assert plan.configs.ravel().tolist() == [0.0, 1.0]
    assert not np.any(np.signbit(plan.configs))


def test_separation_permutation_plan():
    import itertools
    atoms = [(perm, 1.0 / 6.0) for perm in itertools.permutations((0.0, 1.0, 2.0))]
    plan = plan_1d(atoms)
    assert separation(plan) == pytest.approx(1.0, abs=0)


def test_separation_small_pair():
    plan = plan_1d([((0.0, 0.3), 1.0)])
    assert separation(plan) == pytest.approx(0.3)


def test_separation_diagonal_flags_atom():
    plan = plan_1d([((0.7, 0.7), 1.0)])
    assert separation(plan) == 0.0


def test_separation_single_particle_error():
    plan = plan_1d([((0.5,), 1.0)])
    with pytest.raises(ValidationError, match="separation undefined"):
        separation(plan)


def test_snap_to_grid_merges_duplicates():
    g = Grid.line(0.0, 0.5, 5)
    plan = plan_1d([((0.49, 1.5), 0.5), ((0.51, 1.5), 0.5)])
    snapped = snap_to_grid(plan, g)
    assert snapped.n_atoms == 1
    assert snapped.weights[0] == pytest.approx(1.0)


def sampled_density(grid, fn):
    vals = fn(grid.axis())
    return density_from_values(grid, np.maximum(vals, 0.0), normalize=True)


def test_h1_matches_profile_moment():
    # rho = chi^2 sampled: sqrt(rho) = chi, so the seminorm is the gradient
    # moment of the profile; bump curvature makes the FD constant large, so
    # the tolerance here is loose but the refinement test below pins order 2
    b = BumpProfile(1)
    g = Grid.line(-1.1, 2.2 / 2047, 2048)
    vals = b.radial(np.abs(g.axis())) ** 2
    rho = GridDensity(g, vals / (vals.sum() * g.h))
    scale = 1.0 / (vals.sum() * g.h)
    got = h1_seminorm_sqrt(rho)
    expected = b.moments()[0] * scale
    assert abs(got - expected) / expected < 5e-3


def test_h1_scaling_identity():
    gauss = lambda x: np.exp(-((x - 0.0) / 0.4) ** 2)
    g1 = Grid.line(-2.0, 4.0 / 1023, 1024)
    rho1 = sampled_density(g1, gauss)
    val1 = h1_seminorm_sqrt(rho1)
    eps = 0.5
    g2 = Grid.line(-2.0 * eps, eps * 4.0 / 1023, 1024)
    rho2 = sampled_density(g2, lambda x: gauss(x / eps) / eps)
    val2 = h1_seminorm_sqrt(rho2)
    assert val2 == pytest.approx(val1 / eps**2, rel=1e-6)


def test_h1_truncated_gaussian_refinement_oracle():
    gauss = lambda x: np.exp(-x * x / 2.0)
    fine = Grid.line(-4.0, 8.0 / 8191, 8192)
    oracle = h1_seminorm_sqrt(sampled_density(fine, gauss))
    coarse = Grid.line(-4.0, 8.0 / 511, 512)
    got = h1_seminorm_sqrt(sampled_density(coarse, gauss))
    assert abs(got - oracle) / oracle < 1e-4


# (shape, STRIPE_ENTRIES, rows of the last stripe): stripes of 3 rows cut 10
# rows into 3 + 3 + 3 + 1 and 11 into 3 + 3 + 3 + 2; stripes of one row read
# the two-row halo at both array ends
STRIPED_SHAPES = [
    ((10,), 3, 1), ((11,), 3, 2), ((10,), 1, 1),
    ((10, 4), 12, 1), ((11, 4), 12, 2), ((11, 4), 1, 1),
    ((10, 3, 4), 36, 1), ((11, 3, 4), 36, 2), ((5, 3, 4), 1, 1),
]


@pytest.mark.parametrize("shape, entries, last", STRIPED_SHAPES)
def test_dirichlet_sum_in_stripes_matches_np_gradient(monkeypatch, shape, entries, last):
    monkeypatch.setattr(grids, "STRIPE_ENTRIES", entries)
    spans = grids.stripes(shape)
    assert len(spans) > 1 and spans[-1][1] - spans[-1][0] == last
    rng = np.random.default_rng(len(shape))
    edges = np.zeros(shape)
    edges[:2] = edges[-2:] = 1.0 + rng.random((2,) + shape[1:])
    for values in (0.5 + rng.random(shape),   # nonzero at every array edge
                   edges):                     # nonzero at the first and last rows only
        ref = gradient_dirichlet_sum_sqrt(values, 0.1)
        # the same squared differences, added in another order: every term
        # is >= 0, so the sums differ by a few ulps; 1e-14 is about 45
        assert abs(dirichlet_sum_sqrt(values, 0.1) - ref) <= 1e-14 * ref


def test_dirichlet_sum_of_a_line_in_one_stripe_is_np_gradients():
    gauss = sampled_density(Grid.line(-2.0, 4.0 / 1023, 1024), lambda x: np.exp(-x * x))
    cases = [sweep_density(), gauss,                  # the sweep's rho; nonzero edges
             density_from_values(Grid.line(0.0, 0.5, 3), [1.0, 2.0, 3.0], normalize=True)]
    for rho in cases:
        assert len(grids.stripes(rho.values.shape)) == 1
        assert dirichlet_sum_sqrt(rho.values, rho.grid.h) == \
            gradient_dirichlet_sum_sqrt(rho.values, rho.grid.h)


def test_dirichlet_sum_needs_three_entries_per_axis():
    with pytest.raises(ValidationError, match="at least 3 entries per axis"):
        dirichlet_sum_sqrt(np.ones((4, 2)), 0.1)


def test_h1_order_two_convergence():
    gauss = lambda x: np.exp(-x * x / 2.0)
    ref = h1_seminorm_sqrt(sampled_density(Grid.line(-6.0, 12.0 / 16383, 16384), gauss))
    errs = []
    hs = []
    for npts in (128, 256, 512):
        g = Grid.line(-6.0, 12.0 / (npts - 1), npts)
        errs.append(abs(h1_seminorm_sqrt(sampled_density(g, gauss)) - ref))
        hs.append(g.h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def loop_marginal(configs, weights, grid):
    """Per-atom, per-coordinate binning of ``w / n`` to the nearest node, for
    any listing of atoms."""
    values = np.zeros(grid.shape)
    n = configs.shape[1]
    for config, w in zip(configs, weights):
        for k in range(n):
            values[tuple(grid.indices_of(config[k]))] += w / (n * grid.cell_volume)
    return values


def loop_separation(plan):
    """Per-atom minimum pairwise distance, the least over the atoms."""
    best = np.inf
    for config in plan.configs:
        dist = np.sqrt(((config[:, None, :] - config[None, :, :]) ** 2).sum(-1))
        best = min(best, dist[np.triu_indices(plan.n, k=1)].min())
    return best


def loop_snapped_nodes(plan, grid):
    """Per-coordinate nearest nodes and the largest coordinate shift."""
    snapped = np.empty_like(plan.configs)
    shift = 0.0
    for a in range(plan.n_atoms):
        for k in range(plan.n):
            snapped[a, k] = grid.node(grid.indices_of(plan.configs[a, k]))
            moved = np.abs(snapped[a, k] - plan.configs[a, k])
            shift = max(shift, float(np.max(moved)))
    return snapped, shift


def vectorization_cases():
    for name, grid, plan, _ in identity_fixtures():
        yield name, grid, plan
    grid, plan, _ = potential_instance()
    yield "potential", grid, plan
    rng = np.random.default_rng(3)
    g2 = Grid(dim=2, origin=np.array([-0.3, 0.2]), h=0.1, npts=12)
    configs = rng.uniform(-0.3, 0.8, size=(7, 3, 2))
    yield "2d-off-node", g2, AtomicPlan(3, 2, configs, np.full(7, 1.0 / 7.0))
    yield "diagonal", Grid.line(0.0, 0.25, 8), plan_1d([((0.3, 1.0), 0.5),
                                                         ((0.7, 0.7), 0.5)])


def test_marginal_separation_and_snap_match_per_atom_loops():
    for name, grid, plan in vectorization_cases():
        assert np.array_equal(marginal(plan, grid).values,
                              loop_marginal(plan.configs, plan.weights, grid)), name
        if plan.n >= 2:
            assert separation(plan) == loop_separation(plan), name
        nodes, shift = loop_snapped_nodes(plan, grid)
        snapped = snap_to_grid(plan, grid)
        # the snapped nodes of the loop, merged as snap_to_grid merges them
        assert np.array_equal(snapped.configs, snap_to_grid(
            AtomicPlan(plan.n, plan.dim, nodes, plan.weights), grid).configs), name
        snap_to_grid(plan, grid, max_shift=shift)
        if shift > 0.0:
            with pytest.raises(ValidationError, match="away from the nearest node"):
                snap_to_grid(plan, grid, max_shift=np.nextafter(shift, 0.0))


def dict_symmetrize(configs, weights):
    """Atoms merged through a dict keyed by each configuration's sorted
    points, ``-0.0`` read as ``+0.0``: the distinct configurations in
    lexicographic order, weights summed in input order."""
    merged = {}
    for config, w in zip(configs, weights):
        key = tuple(sorted(tuple(float(v) + 0.0 for v in point) for point in config))
        merged[key] = merged.get(key, 0.0) + float(w)
    keys = sorted(merged)
    return np.array(keys, dtype=float), np.array([merged[k] for k in keys])


def dict_is_symmetric(configs, weights, tol):
    """Per atom and permutation, the dict-merged weight of the permuted copy
    of a listing of atoms."""
    table = {}
    for config, w in zip(configs, weights):
        key = np.ascontiguousarray(config).tobytes()
        table[key] = table.get(key, 0.0) + w
    for config in configs:
        total = table[np.ascontiguousarray(config).tobytes()]
        for perm in itertools.permutations(range(configs.shape[1])):
            key = np.ascontiguousarray(config[list(perm)]).tobytes()
            if key not in table or abs(table[key] - total) > tol:
                return False
    return True


def merge_cases():
    """Listings ``(n, dim, configs, weights)`` with duplicate atoms, signed
    zeros and 2-D points, each as drawn and expanded over every ordering."""
    rng = np.random.default_rng(5)
    values = np.array([-0.5, -0.0, 0.0, 0.25, 1.0, 1.75])
    raw = [("signed-zero", 2, 1, np.array([[0.0, 1.0], [1.0, -0.0], [1.0, 0.0],
                                           [-0.0, 1.0]])[:, :, None], np.full(4, 0.25))]
    for i, (n, dim, m) in enumerate([(2, 1, 40), (3, 1, 60), (2, 2, 30), (3, 2, 50)]):
        configs = rng.choice(values, size=(m, n, dim))
        configs[m // 2:] = configs[:m - m // 2]          # duplicate atoms
        weights = rng.uniform(0.1, 1.0, size=m)
        raw.append((f"random-{i}", n, dim, configs, weights / weights.sum()))
    g2 = Grid(dim=2, origin=np.array([-0.3, 0.2]), h=0.1, npts=12)
    snapped = snap_to_grid(AtomicPlan(3, 2, rng.uniform(-0.3, 0.8, size=(9, 3, 2)),
                                      np.full(9, 1.0 / 9.0)), g2)
    raw.append(("2d-n3", 3, 2, snapped.configs, snapped.weights))
    for name, n, dim, configs, weights in raw:
        yield name, n, dim, configs, weights
        plan = AtomicPlan(n, dim, configs, weights)
        yield (name + "-expanded", n, dim) + expanded(plan)


def test_merges_match_dict_loops():
    for name, n, dim, configs, weights in merge_cases():
        plan = AtomicPlan(n, dim, configs, weights)
        ref_configs, ref_weights = dict_symmetrize(configs, weights)
        # byte-equal: sorted points, +0.0 for every zero, lexicographic atoms
        assert plan.configs.tobytes() == ref_configs.tobytes(), name
        assert np.array_equal(plan.weights, ref_weights), name
        assert dict_is_symmetric(*expanded(plan), tol=0.0), name


def test_snap_to_grid_and_atom_order_match_loops():
    cases = [(name, grid, plan) for name, grid, plan in vectorization_cases()]
    g = Grid.line(-0.5, 0.25, 12)
    cases += [(name, g, AtomicPlan(n, dim, configs, weights))
              for name, n, dim, configs, weights in merge_cases() if dim == 1]
    for name, grid, plan in cases:
        keys = [tuple(c.ravel()) for c in plan.configs]
        assert keys == sorted(set(keys)), name
        nodes, _ = loop_snapped_nodes(plan, grid)
        configs, weights = dict_symmetrize(nodes, plan.weights)
        snapped = snap_to_grid(plan, grid)
        assert snapped.configs.tobytes() == configs.tobytes(), name
        assert np.array_equal(snapped.weights, weights), name


PROPERTY_GRID = Grid.line(-0.5, 0.25, 12)


@st.composite
def small_listings(draw):
    """Listings ``(configs, weights)`` of atoms on up to three particles
    whose coordinates repeat often: half of them on nodes of
    ``PROPERTY_GRID``, the rest anywhere inside it."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    on_node = st.integers(0, 11).map(lambda i: -0.5 + 0.25 * i)
    coord = st.one_of(on_node, st.floats(-0.5, 2.25, allow_subnormal=False))
    configs = np.array(draw(st.lists(st.lists(coord, min_size=n, max_size=n),
                                     min_size=m, max_size=m)))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
    return configs[:, :, None], weights / weights.sum()


PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None,
                             database=None)


@PROPERTY_SETTINGS
@given(small_listings())
def test_symmetrize_is_idempotent_and_symmetric(listing):
    configs, weights = listing
    once = AtomicPlan(configs.shape[1], 1, configs, weights)
    twice = AtomicPlan(once.n, 1, *expanded(once))
    assert dict_is_symmetric(*expanded(once), tol=0.0)
    assert once.configs.tobytes() == twice.configs.tobytes()
    assert np.allclose(twice.weights, once.weights, rtol=1e-14, atol=0.0)


@PROPERTY_SETTINGS
@given(small_listings())
def test_snap_and_symmetrize_preserve_mass(listing):
    plan = AtomicPlan(listing[0].shape[1], 1, *listing)
    assert plan.weights.sum() == pytest.approx(1.0, rel=0.0, abs=1e-14)
    snapped = snap_to_grid(plan, PROPERTY_GRID)
    assert snapped.weights.sum() == pytest.approx(plan.weights.sum(), rel=0.0, abs=1e-14)


@PROPERTY_SETTINGS
@given(small_listings())
def test_marginal_is_invariant_under_symmetrize(listing):
    before = loop_marginal(*listing, PROPERTY_GRID)
    after = marginal(AtomicPlan(listing[0].shape[1], 1, *listing), PROPERTY_GRID).values
    assert np.abs(after - before).max() <= 1e-14 * before.max()
