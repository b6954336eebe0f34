import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llot.errors import ValidationError
from llot.grids import (
    AtomicPlan,
    Grid,
    GridDensity,
    density_from_values,
    h1_seminorm_sqrt,
    is_symmetric,
    marginal,
    separation,
    snap_to_grid,
    symmetrize,
)
from llot.mollifier import BumpProfile


def plan_1d(atoms):
    return AtomicPlan.from_atoms(atoms, dim=1)


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


def test_indices_of_clips_exactly_at_the_grid_edges():
    grid = Grid(dim=2, origin=np.array([-0.3, 0.7]), h=0.25, npts=9)
    steps = [-1e6, -100.0, -0.6, -0.4, 0.0, 0.5, 3.0, 7.5, 8.0, 8.4, 8.6, 100.0, 1e6]
    x = np.array([[grid.origin[0] + a * grid.h, grid.origin[1] + b * grid.h]
                  for a in steps for b in steps])
    ref = [[min(max(int(round((xk - ok) / grid.h)), 0), grid.npts - 1)
            for xk, ok in zip(point, grid.origin)] for point in x]
    got = grid.indices_of(x)
    assert got.dtype.kind == "i"
    assert np.array_equal(got, np.array(ref))
    assert grid.indices_of(x[0]).tolist() == ref[0]


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
        AtomicPlan.from_atoms([], dim=1)


def test_symmetrize_splits_single_atom():
    plan = plan_1d([((0.0, 1.0), 1.0)])
    sym = symmetrize(plan)
    assert sym.n_atoms == 2
    assert np.allclose(sorted(sym.weights), [0.5, 0.5])
    assert is_symmetric(sym)


def test_symmetrize_idempotent_and_mass_preserving():
    plan = plan_1d([((0.0, 1.0), 0.25), ((2.0, 0.5), 0.75)])
    once = symmetrize(plan)
    twice = symmetrize(once)
    assert once.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert twice.n_atoms == once.n_atoms
    assert np.allclose(np.sort(twice.weights), np.sort(once.weights))
    key = lambda p: sorted(tuple(c.ravel()) for c in p.configs)
    assert key(twice) == key(once)


def test_symmetrize_diagonal_atom_fixed_point():
    plan = plan_1d([((0.5, 0.5), 1.0)])
    sym = symmetrize(plan)
    assert sym.n_atoms == 1
    assert np.allclose(sym.configs[0].ravel(), [0.5, 0.5])


def test_marginal_invariant_under_symmetrize():
    g = Grid.line(0.0, 0.25, 16)
    plan = plan_1d([((0.5, 1.5), 1.0)])
    r1 = marginal(plan, g)
    r2 = marginal(symmetrize(plan), g)
    assert np.array_equal(r1.values, r2.values)


def test_separation_permutation_plan():
    import itertools
    atoms = [(perm, 1.0 / 6.0) for perm in itertools.permutations((0.0, 1.0, 2.0))]
    plan = plan_1d(atoms)
    assert separation(plan).alpha == pytest.approx(1.0, abs=0)


def test_separation_small_pair():
    plan = plan_1d([((0.0, 0.3), 1.0)])
    assert separation(plan).alpha == pytest.approx(0.3)


def test_separation_diagonal_flags_atom():
    plan = plan_1d([((0.7, 0.7), 1.0)])
    rep = separation(plan)
    assert rep.alpha == 0.0
    assert rep.violating_atom is not None


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


def loop_marginal(plan, grid):
    """Per-atom, per-coordinate binning of ``w / n`` to the nearest node."""
    values = np.zeros(grid.shape)
    for config, w in zip(plan.configs, plan.weights):
        for k in range(plan.n):
            values[tuple(grid.indices_of(config[k]))] += w / (plan.n * grid.cell_volume)
    return values


def loop_separation(plan):
    """Per-atom minimum pairwise distance; the first atom attaining it."""
    best, worst = np.inf, None
    for config in plan.configs:
        dist = np.sqrt(((config[:, None, :] - config[None, :, :]) ** 2).sum(-1))
        m = dist[np.triu_indices(plan.n, k=1)].min()
        if m < best:
            best, worst = m, config
    return best, worst


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
    from llot.presets import identity_fixtures, potential_instance

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
        assert np.array_equal(marginal(plan, grid).values, loop_marginal(plan, grid)), name
        if plan.n >= 2:
            rep = separation(plan)
            best, worst = loop_separation(plan)
            assert rep.alpha == best, name
            if best == 0.0:
                assert np.array_equal(rep.violating_atom, worst), name
            else:
                assert rep.violating_atom is None, name
        nodes, shift = loop_snapped_nodes(plan, grid)
        snapped = snap_to_grid(plan, grid)
        # the snapped nodes of the loop, merged as snap_to_grid merges them
        assert np.array_equal(snapped.configs, snap_to_grid(
            AtomicPlan(plan.n, plan.dim, nodes, plan.weights), grid).configs), name
        snap_to_grid(plan, grid, max_shift=shift)
        if shift > 0.0:
            with pytest.raises(ValidationError, match="away from the nearest node"):
                snap_to_grid(plan, grid, max_shift=np.nextafter(shift, 0.0))


def dict_merge(configs, weights):
    """Atoms merged through a dict keyed by each configuration's bytes: the
    distinct configurations in key order, weights summed in input order."""
    merged = {}
    for config, w in zip(configs, weights):
        key = np.ascontiguousarray(config).tobytes()
        if key in merged:
            merged[key][1] += w
        else:
            merged[key] = [config, float(w)]
    items = sorted(merged.items(), key=lambda kv: kv[0])
    return np.stack([v[0] for _, v in items]), np.array([v[1] for _, v in items])


def dict_symmetrize(plan):
    """Each atom's n! permuted copies with shares w / n!, merged by dict."""
    perms = list(itertools.permutations(range(plan.n)))
    configs, weights = dict_merge(
        [config[list(perm)] for config in plan.configs for perm in perms],
        [w / len(perms) for w in plan.weights for _ in perms])
    return configs, weights / weights.sum()


def dict_is_symmetric(plan, tol):
    """Per atom and permutation, the dict-merged weight of the permuted copy."""
    table = {}
    for config, w in zip(plan.configs, plan.weights):
        key = np.ascontiguousarray(config).tobytes()
        table[key] = table.get(key, 0.0) + w
    for config in plan.configs:
        total = table[np.ascontiguousarray(config).tobytes()]
        for perm in itertools.permutations(range(plan.n)):
            key = np.ascontiguousarray(config[list(perm)]).tobytes()
            if key not in table or abs(table[key] - total) > tol:
                return False
    return True


def merge_cases():
    """Plans with duplicate atoms, signed zeros and a 2-D n = 3 plan, each
    as given, symmetrized, and symmetrized with two orbits' weights moved by
    +-1e-10 (symmetric at tol 1e-9, not at 1e-12)."""
    rng = np.random.default_rng(5)
    values = np.array([-0.5, -0.0, 0.0, 0.25, 1.0, 1.75])
    raw = [("signed-zero", plan_1d([((0.0, 1.0), 0.25), ((1.0, -0.0), 0.25),
                                    ((1.0, 0.0), 0.25), ((-0.0, 1.0), 0.25)]))]
    for i, (n, dim, m) in enumerate([(2, 1, 40), (3, 1, 60), (2, 2, 30), (3, 2, 50)]):
        configs = rng.choice(values, size=(m, n, dim))
        configs[m // 2:] = configs[:m - m // 2]          # duplicate atoms
        weights = rng.uniform(0.1, 1.0, size=m)
        raw.append((f"random-{i}", AtomicPlan(n, dim, configs, weights / weights.sum())))
    g2 = Grid(dim=2, origin=np.array([-0.3, 0.2]), h=0.1, npts=12)
    raw.append(("2d-n3", snap_to_grid(AtomicPlan(3, 2, rng.uniform(-0.3, 0.8, size=(9, 3, 2)),
                                                 np.full(9, 1.0 / 9.0)), g2)))
    for name, plan in raw:
        yield name, plan
        sym = symmetrize(plan)
        yield name + "-sym", sym
        if sym.n_atoms > 2 * len(list(itertools.permutations(range(sym.n)))):
            weights = sym.weights.copy()
            weights[0] += 1e-10
            weights[-1] -= 1e-10
            yield name + "-nudged", AtomicPlan(sym.n, sym.dim, sym.configs, weights)


def test_merges_match_dict_loops():
    nudged = 0
    for name, plan in merge_cases():
        sym = symmetrize(plan)
        configs, weights = dict_symmetrize(plan)
        # byte-equal, so -0.0 and 0.0 stay apart as in the dict keys
        assert sym.configs.tobytes() == configs.tobytes(), name
        assert np.array_equal(sym.weights, weights), name
        for tol in (1e-12, 1e-9):
            assert is_symmetric(plan, tol) == dict_is_symmetric(plan, tol), (name, tol)
        if name.endswith("-nudged"):
            nudged += 1
            assert is_symmetric(plan, 1e-9) and not is_symmetric(plan, 1e-12), name
    assert nudged >= 4
    assert not is_symmetric(plan_1d([((0.0, 1.0), 0.5), ((1.0, -0.0), 0.5)]))


def test_snap_to_grid_and_sorted_copy_match_loops():
    cases = [(name, grid, plan) for name, grid, plan in vectorization_cases()]
    g = Grid.line(-0.5, 0.25, 12)
    cases += [(name, g, plan) for name, plan in merge_cases() if plan.dim == 1]
    for name, grid, plan in cases:
        nodes, _ = loop_snapped_nodes(plan, grid)
        configs, weights = dict_merge(nodes, plan.weights)
        snapped = snap_to_grid(plan, grid)
        assert snapped.configs.tobytes() == configs.tobytes(), name
        assert np.array_equal(snapped.weights, weights), name
        keys = [tuple(c.ravel()) for c in plan.configs]
        order = sorted(range(plan.n_atoms), key=lambda i: keys[i])
        ordered = plan.sorted_copy()
        assert ordered.configs.tobytes() == plan.configs[order].tobytes(), name
        assert np.array_equal(ordered.weights, plan.weights[order]), name


PROPERTY_GRID = Grid.line(-0.5, 0.25, 12)


@st.composite
def small_plans(draw):
    """Plans on up to three particles whose coordinates repeat often: half
    of them on nodes of ``PROPERTY_GRID``, the rest anywhere inside it."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    on_node = st.integers(0, 11).map(lambda i: -0.5 + 0.25 * i)
    coord = st.one_of(on_node, st.floats(-0.5, 2.25, allow_subnormal=False))
    configs = np.array(draw(st.lists(st.lists(coord, min_size=n, max_size=n),
                                     min_size=m, max_size=m)))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
    return AtomicPlan(n, 1, configs[:, :, None], weights / weights.sum())


PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None,
                             database=None)


@PROPERTY_SETTINGS
@given(small_plans())
def test_symmetrize_is_idempotent_and_symmetric(plan):
    once = symmetrize(plan)
    twice = symmetrize(once)
    assert is_symmetric(once)
    assert once.configs.tobytes() == twice.configs.tobytes()
    assert np.allclose(twice.weights, once.weights, rtol=1e-14, atol=0.0)


@PROPERTY_SETTINGS
@given(small_plans())
def test_snap_and_symmetrize_preserve_mass(plan):
    assert symmetrize(plan).weights.sum() == pytest.approx(1.0, rel=0.0, abs=1e-14)
    snapped = snap_to_grid(plan, PROPERTY_GRID)
    assert snapped.weights.sum() == pytest.approx(plan.weights.sum(), rel=0.0, abs=1e-14)


@PROPERTY_SETTINGS
@given(small_plans())
def test_marginal_is_invariant_under_symmetrize(plan):
    before = marginal(plan, PROPERTY_GRID).values
    after = marginal(symmetrize(plan), PROPERTY_GRID).values
    assert np.abs(after - before).max() <= 1e-14 * before.max()
