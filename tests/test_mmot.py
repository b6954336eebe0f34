import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from llot import mmot
from llot.errors import NumericalError, ValidationError
from llot.grids import AtomicPlan, Grid, coulomb, density_from_values, separation
from llot.mmot import TransportProblem, solve_lp, solve_sinkhorn
from instances import sixteen_site_density, three_site_density, two_site_density
from oracles import expanded, raise_lp_duals, refined_sweep_density


@pytest.fixture(scope="module")
def p_two():
    return TransportProblem(2, two_site_density())


@pytest.fixture(scope="module")
def p_three():
    return TransportProblem(3, three_site_density())


@pytest.fixture(scope="module")
def p_sixteen():
    return TransportProblem(2, sixteen_site_density())


def test_two_site_forced_antidiagonal(p_two):
    sol = solve_lp(p_two)
    assert sol.value == pytest.approx(1.0, abs=1e-10)
    assert sol.plan.n_atoms == 1
    assert np.allclose(sol.plan.weights, [1.0])
    assert sol.marginal_residual <= 1e-12


def test_three_site_forced_permutations(p_three):
    sol = solve_lp(p_three)
    assert sol.value == pytest.approx(2.5, abs=1e-10)
    assert sol.plan.n_atoms == 1
    assert separation(sol.plan) == pytest.approx(1.0)


def test_lp_duality_gap(p_two, p_three, p_sixteen):
    for p in (p_two, p_three, p_sixteen):
        sol = solve_lp(p)
        assert sol.duality_gap is not None and abs(sol.duality_gap) <= 1e-8


def test_lp_against_generic_oracle(p_sixteen):
    sol = solve_lp(p_sixteen)
    positions, masses = p_sixteen.support()
    s = len(masses)
    combos = list(itertools.combinations(range(s), 2))
    costs = np.array([1.0 / abs(positions[i, 0] - positions[j, 0])
                      for i, j in combos])
    a = np.zeros((s, len(combos)))
    for col, (i, j) in enumerate(combos):
        a[i, col] = 0.5
        a[j, col] = 0.5
    ref = linprog(costs, A_eq=a, b_eq=masses, bounds=(0, None), method="highs")
    assert sol.value == pytest.approx(ref.fun, abs=1e-8)


def test_lp_value_invariant_under_plan_symmetrization(p_sixteen):
    sol = solve_lp(p_sixteen)
    configs, weights = expanded(sol.plan)
    v1 = float((coulomb(sol.plan.configs) * sol.plan.weights).sum())
    v2 = float((coulomb(configs) * weights).sum())
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_lp_infeasible_marginal():
    grid = Grid.line(0.0, 1.0, 3)
    rho = density_from_values(grid, np.array([0.8, 0.1, 0.1]), normalize=True)
    with pytest.raises(ValidationError, match="no finite-cost feasible plan"):
        solve_lp(TransportProblem(3, rho))


def test_lp_size_limit_directs_to_sinkhorn():
    # C(640, 2) = 204,480 multisets, past the LP cap; 640^2 = 409,600 Gibbs
    # entries, within Sinkhorn's
    grid = Grid.line(0.0, 0.01, 640)
    rho = density_from_values(grid, np.ones(640), normalize=True)
    with pytest.raises(ValidationError, match="use the sinkhorn solver"):
        solve_lp(TransportProblem(2, rho))


def test_lp_size_limit_names_no_solver_that_refuses_too():
    # C(49, 4) = 211,876 multisets, past the LP cap; 49^4 = 5.76M Gibbs
    # entries, past Sinkhorn's as well
    grid = Grid.line(0.0, 0.01, 49)
    rho = density_from_values(grid, np.ones(49), normalize=True)
    with pytest.raises(ValidationError, match="exact-LP limit") as err:
        solve_lp(TransportProblem(4, rho))
    assert "sinkhorn" not in str(err.value)


def test_dual_certificate_and_perturbation(monkeypatch, p_three):
    sol = solve_lp(p_three)
    assert sol.max_violation <= 1e-8
    assert sol.complementary_residual <= 1e-8
    raise_lp_duals(monkeypatch)
    with pytest.raises(NumericalError, match="dual violation"):
        solve_lp(p_three)


def test_dual_check_against_per_configuration_loop(p_sixteen):
    sol = solve_lp(p_sixteen)
    positions, _ = p_sixteen.support()
    v = sol.dual_potential
    slack = [v[list(c)].sum() - coulomb(positions[list(c)][None])[0]
             for c in itertools.combinations(range(len(positions)), 2)]
    site_of = {tuple(x): i for i, x in enumerate(positions)}
    cs = sum(w * abs(coulomb(config[None])[0] - sum(v[site_of[tuple(x)]] for x in config))
             for config, w in zip(sol.plan.configs, sol.plan.weights))
    assert sol.max_violation == max(slack)
    assert sol.complementary_residual == pytest.approx(cs, rel=1e-12, abs=1e-15)


def test_sinkhorn_two_site(p_two):
    sol = solve_sinkhorn(p_two, beta=100.0, tol=1e-8)
    assert abs(sol.value - 1.0) <= 1e-3
    assert sol.marginal_residual <= 1e-8


def test_sinkhorn_marginal_residual_meets_tol(p_sixteen):
    sol = solve_sinkhorn(p_sixteen, beta=50.0, tol=1e-8, max_iter=50000)
    assert sol.marginal_residual <= 1e-8
    assert sol.converged is True


def test_sinkhorn_reports_iteration_cap(p_sixteen):
    sol = solve_sinkhorn(p_sixteen, beta=200.0, max_iter=5)
    assert sol.converged is False
    assert sol.marginal_residual > 1.0
    assert sol.iterations == 5


@pytest.mark.parametrize("beta, tol", [
    (math.nan, 1e-8), (math.inf, 1e-8), (0.0, 1e-8), (-1.0, 1e-8),
    (200.0, math.nan), (200.0, 0.0),
])
def test_sinkhorn_rejects_a_bad_beta_or_tol(p_sixteen, beta, tol):
    with pytest.raises(ValidationError, match="positive and finite"):
        solve_sinkhorn(p_sixteen, beta=beta, tol=tol)


def assert_beta_sweep_toward_lp(p):
    """Sinkhorn values at beta = 25..200 stay above the LP value, do not
    increase with beta and end within 1e-3 of it."""
    lp = solve_lp(p)
    values = []
    for beta in (25.0, 50.0, 100.0, 200.0):
        sol = solve_sinkhorn(p, beta=beta, tol=1e-9, max_iter=50000)
        values.append(sol.value)
        assert sol.value >= lp.value - 1e-8
    assert all(values[i + 1] <= values[i] + 1e-9 for i in range(len(values) - 1))
    assert abs(values[-1] - lp.value) <= 1e-3


def test_sinkhorn_beta_sweep_monotone_toward_lp(p_sixteen):
    assert_beta_sweep_toward_lp(p_sixteen)


def test_sinkhorn_beta_sweep_monotone_toward_lp_three_particles():
    assert_beta_sweep_toward_lp(TransportProblem(3, sixteen_site_density()))


def test_plan_separation_prunes(p_sixteen):
    # the Sinkhorn plan comes pruned, so no coincident-site atom survives
    sol = solve_sinkhorn(p_sixteen, beta=200.0, tol=1e-9, max_iter=50000)
    assert sol.plan.weights.min() >= mmot.PRUNE_THRESHOLD
    assert separation(sol.plan) > 0.0


def test_lp_plan_separation_positive_on_smooth_density():
    grid = Grid.line(0.0, 1.0 / 31.0, 32)
    x = grid.axis()
    raw = (np.exp(-((x - 0.25) / 0.1) ** 2) + np.exp(-((x - 0.75) / 0.1) ** 2))
    raw[raw < 1e-9 * raw.max()] = 0.0
    rho = density_from_values(grid, raw, normalize=True)
    sol = solve_lp(TransportProblem(2, rho))
    assert separation(sol.plan) > 0.0
    assert sol.marginal_residual <= 1e-10


def test_smoothed_plan_cost_respects_lp_lower_bound(p_sixteen):
    from llot.regularizer import build_regularized, integrate_observable

    sol = solve_lp(p_sixteen)
    alpha = separation(sol.plan)
    rho = p_sixteen.marginal
    rp = build_regularized(sol.plan, rho, alpha / 8.0)
    value = integrate_observable(rp)
    assert value >= sol.value - 1e-8


def two_bump(sites):
    """``sixteen_site_density``'s two-bump profile on ``sites`` nodes of [0, 1]."""
    grid = Grid.line(0.0, 1.0 / (sites - 1), sites)
    x = grid.axis()
    raw = np.exp(-((x - 0.25) / 0.12) ** 2) + np.exp(-((x - 0.75) / 0.12) ** 2)
    return density_from_values(grid, raw, normalize=True)


def comotion_cost(p):
    """Cost of the 1-D quantile-shift coupling u -> (F^-1(u + k/n mod 1))_k.

    For the Coulomb cost in one dimension this co-motion coupling is optimal
    (Seidl 1999; Colombo, De Pascale, Di Marino, Canad. J. Math. 2015), so its
    cost is the transport value, independent of any LP solver.  The integrand
    is constant between the points where some u + k/n crosses a jump of F.
    """
    positions, masses = p.support()  # a line grid lists sites in order
    cum = np.cumsum(masses)
    shifts = np.arange(p.n) / p.n
    jumps = ((cum[:, None] - shifts) % 1.0).ravel()
    breaks = np.unique(np.concatenate([[0.0, 1.0], jumps]))
    u = (0.5 * (breaks[1:] + breaks[:-1]))[:, None] + shifts
    sites = np.minimum(np.searchsorted(cum, u % 1.0), len(masses) - 1)
    return float(np.diff(breaks) @ coulomb(positions[sites]))


@pytest.mark.parametrize("n, density", [
    (2, sixteen_site_density()),
    (3, sixteen_site_density()),
    (2, two_bump(64)),
    (3, two_bump(24)),
    # costs of about 1e-3 to 0.5: HiGHS once stopped at a vertex about 1e-5
    # above the optimum here
    (2, refined_sweep_density(10, 0)),
    (2, refined_sweep_density(20, 0)),
], ids=["16-sites-n2", "16-sites-n3", "64-sites-n2", "24-sites-n3",
        "sweep-refined-10x-n2", "sweep-refined-20x-n2"])
def test_lp_matches_comotion_oracle(n, density):
    p = TransportProblem(n, density)
    assert solve_lp(p).value == pytest.approx(comotion_cost(p), rel=1e-12, abs=0.0)


def two_clusters(distance):
    """Two 10-node clusters at h = 1e-3, ``distance`` apart: pair costs from
    about 1/distance up to 1000."""
    h = 1e-3
    gap = round(distance / h)
    raw = np.zeros(gap + 10)
    raw[:10] = raw[gap:] = 1.0
    return density_from_values(Grid.line(0.0, h, len(raw)), raw, normalize=True)


# at distances 1 to 100 the costs span four to six decades; over their mean,
# HiGHS stopped at a vertex whose dual certificate failed
@pytest.mark.parametrize("distance", [0.1, 1.0, 10.0, 100.0])
def test_lp_matches_comotion_across_cost_decades(distance):
    p = TransportProblem(2, two_clusters(distance))
    assert solve_lp(p).value == pytest.approx(comotion_cost(p), rel=mmot.DUAL_TOL, abs=0.0)


@pytest.mark.parametrize("n, masses, value", [
    (2, [0.5, 0.2, 0.2, 0.1], 2.0 / 3.0),
    (3, [1 / 3, 1 / 3, 0.1, 0.1, 2 / 15], 0.3 * 5 / 2 + 0.3 * 11 / 6 + 0.4 * 19 / 12),
], ids=["n2", "n3"])
def test_lp_boundary_feasible_degenerate_marginal(n, masses, value):
    # one site (two for n = 3) holds exactly 1/n, so it sits in every atom
    grid = Grid.line(0.0, 1.0, len(masses))
    p = TransportProblem(n, density_from_values(grid, np.array(masses), normalize=True))
    sol = solve_lp(p)
    assert sol.value == pytest.approx(value, rel=1e-12)
    assert abs(sol.duality_gap) <= 1e-8
    assert sol.max_violation <= 1e-8
    assert sol.marginal_residual <= 1e-10


@pytest.mark.parametrize("status, error, match", [
    (2, ValidationError, "infeasible"),
    (4, NumericalError, "solver stopped"),
])
def test_lp_solver_failure_raises(monkeypatch, p_two, status, error, match):
    failed = SimpleNamespace(status=status, message="solver stopped")
    # solve_lp imports linprog on each call, so the patch reaches it
    monkeypatch.setattr("scipy.optimize.linprog", lambda *args, **kwargs: failed)
    with pytest.raises(error, match=match):
        solve_lp(p_two)


def dense_sinkhorn(p, beta, max_iter=20000, tol=1e-8, damping=0.5):
    """Log-domain Sinkhorn on the dense log-weight tensor, no absorption.

    Every step adds the potential to all s^n log-weights and takes the row
    log-sum-exp of the full tensor, with ``solve_sinkhorn``'s cold start,
    stopping rule and pruning.  Returns (iterations, value, sorted plan).
    """
    positions, masses, costs, site_idx = mmot._gibbs_cost_tensor(p)
    s = len(masses)
    ordered = np.sort(site_idx, axis=1)
    distinct = np.all(ordered[:, 1:] != ordered[:, :-1], axis=1).reshape(costs.shape)

    def log_weights(base, f):
        g = base
        for k in range(p.n):
            shape = [1] * p.n
            shape[k] = s
            g = g + f.reshape(shape)
        return g

    def logsumexp(x, axis=None):
        top = x.max(axis=axis, keepdims=True)
        out = top + np.log(np.exp(x - top).sum(axis=axis, keepdims=True))
        return out.ravel() if axis is not None else float(out.item())

    base = -beta * np.where(distinct, costs, 0.0) + np.where(distinct, 0.0, -np.inf)
    f = np.zeros(s)
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        logm = logsumexp(log_weights(base, f).reshape(s, -1), axis=1)
        log_total = logsumexp(logm)
        residual = np.abs(np.exp(logm - log_total) - masses).sum()
        if residual <= tol:
            break
        f = f + damping * (np.log(masses) - (logm - log_total))
    g = log_weights(base, f)
    w = np.exp(g - logsumexp(g)).ravel()
    kept = np.nonzero(w >= mmot.PRUNE_THRESHOLD * w.sum())[0]
    configs = positions[site_idx[kept]]
    weights = w[kept] / w[kept].sum()
    value = float((coulomb(configs) * weights).sum())
    plan = AtomicPlan(p.n, positions.shape[1], configs, weights)
    return iterations, value, plan


@pytest.mark.parametrize("n, density", [
    (2, sixteen_site_density()),
    (3, sixteen_site_density()),
    (2, two_bump(64)),
], ids=["16-sites-n2", "16-sites-n3", "64-sites-n2"])
def test_sinkhorn_absorbed_kernel_matches_dense_iteration(monkeypatch, n, density):
    p = TransportProblem(n, density)
    absorbed = []
    absorb = mmot._absorb
    monkeypatch.setattr(mmot, "_absorb",
                        lambda base, f0: absorbed.append(1) or absorb(base, f0))
    sol = solve_sinkhorn(p, beta=200.0)
    iterations, value, plan = dense_sinkhorn(p, beta=200.0)
    assert sol.iterations == iterations
    assert sol.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert np.array_equal(sol.plan.configs, plan.configs)
    assert len(absorbed) >= 2  # the first kernel, plus re-absorptions
