"""Symmetric multi-marginal transport with Coulomb cost on grid densities.

Two solvers share one problem description: an exact linear program over
repeat-free multisets of support sites (the symmetric, infinite-diagonal
structure shrinks the variable set by n! and removes the singular
configurations), solved by scipy's HiGHS, and an entropic fixed-point
iteration with one shared scaling potential.  The LP returns Kantorovich dual
certificates; the entropic path converges to the LP value as the inverse
temperature grows and reports whether it met its tolerance.

The entropic iteration works on scalings against an absorbed kernel: the
Gibbs tensor is re-based on a reference potential and shifted by its row
maxima, so each step is n - 1 matrix-vector contractions with no exponential
of the s^n tensor, and the kernel is rebuilt only when the potential has
moved by more than ``ABSORB_RANGE`` from its reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array

from .errors import NumericalError, ValidationError
from .grids import AtomicPlan, GridDensity, SeparationReport, marginal, permutations
from .grids import coulomb, separation

MAX_LP_VARIABLES = 200_000
MAX_GIBBS_ENTRIES = 2_000_000
PRUNE_THRESHOLD = 1e-9  # atoms below this share of the total weight are dropped
DAMPING = 0.5  # share of the log-marginal correction applied per Sinkhorn step
ABSORB_RANGE = 50.0  # max |f - f0| before the Sinkhorn kernel is re-based


@dataclass
class TransportProblem:
    """Pinned-marginal symmetric transport with the Coulomb pair cost."""

    n: int
    marginal: GridDensity

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("transport needs at least two particles")

    def support(self):
        """(site positions (s, dim), site masses (s,), flat site indices)."""
        flat = self.marginal.values.ravel()
        idx = np.nonzero(flat > 0)[0]
        pts = self.marginal.grid.points()[idx]
        masses = flat[idx] * self.marginal.grid.cell_volume
        return pts, masses, idx


@dataclass
class TransportSolution:
    plan: AtomicPlan
    value: float
    solver: str
    marginal_residual: float
    dual_potential: Optional[np.ndarray] = None
    duality_gap: Optional[float] = None
    beta: Optional[float] = None
    iterations: int = 0
    converged: bool = True  # Sinkhorn met tol; the LP raises if not
    # LP: max |A x - b| over the marginal rows; Sinkhorn: the last L1
    # iteration residual, before pruning
    residual: Optional[float] = None
    status: Optional[int] = None  # HiGHS status of the LP


@dataclass
class DualCheckReport:
    ok: bool
    max_violation: float
    worst_config: Optional[np.ndarray]
    complementary_residual: float


def _feasibility_check(n: int, masses: np.ndarray):
    if masses.size < n or masses.max() > 1.0 / n + 1e-12:
        raise ValidationError("no finite-cost feasible plan")


def _marginal_residual(plan: AtomicPlan, problem: TransportProblem) -> float:
    binned = marginal(plan, problem.marginal.grid)
    return binned.l1_distance(problem.marginal)


def solve_lp(p: TransportProblem) -> TransportSolution:
    """Exact minimizer over symmetric plans via the multiset linear program.

    Variables are repeat-free multisets of support sites; the marginal
    constraint row for site i collects count_i(multiset)/n.  HiGHS solves the
    program; its equality-row duals over n give a Kantorovich potential v with
    sum_j v(x_j) <= cost(X).  Each optimal multiset is spread evenly over its
    n! orderings.
    """
    positions, masses, _ = p.support()
    _feasibility_check(p.n, masses)
    s, dim = positions.shape
    n_vars = math.comb(s, p.n)
    if n_vars > MAX_LP_VARIABLES:
        raise ValidationError(
            f"{n_vars} multiset variables exceed the exact-LP limit "
            f"({MAX_LP_VARIABLES}); use the sinkhorn solver"
        )
    combos = np.array(list(itertools.combinations(range(s), p.n)))  # (n_vars, n)
    costs = coulomb(positions[combos])
    if not np.all(np.isfinite(costs)):
        raise ValidationError("cost is singular on a repeat-free configuration")

    # column j holds 1/n at the sites of multiset j; sparse, since a dense
    # matrix at the variable cap would take about a gigabyte
    a = csc_array((np.full(combos.size, 1.0 / p.n), combos.ravel(),
                   np.arange(0, combos.size + 1, p.n)), shape=(s, n_vars))
    res = linprog(costs, A_eq=a, b_eq=masses, bounds=(0, None), method="highs")
    if res.status == 2:
        raise ValidationError("linear program infeasible")
    if res.status != 0:
        raise NumericalError(f"linear program not solved: {res.message}")
    x = np.maximum(res.x, 0.0)
    y = res.eqlin.marginals
    value = float(costs @ x)

    kept = np.nonzero(x > 1e-15)[0]
    perms = permutations(p.n)
    configs = positions[combos[kept][:, perms]].reshape(-1, p.n, dim)
    weights = np.repeat(x[kept], len(perms))
    plan = AtomicPlan(p.n, dim, configs, weights / weights.sum()).sorted_copy()

    return TransportSolution(
        plan=plan,
        value=value,
        solver="lp",
        marginal_residual=_marginal_residual(plan, p),
        dual_potential=y / p.n,
        duality_gap=value - float(y @ masses),
        iterations=int(res.nit),
        residual=float(np.abs(a @ x - masses).max()),
        status=int(res.status),
    )


def _gibbs_cost_tensor(p: TransportProblem):
    positions, masses, _ = p.support()
    s = positions.shape[0]
    if s**p.n > MAX_GIBBS_ENTRIES:
        raise ValidationError(
            f"Gibbs tensor of {s}^{p.n} entries exceeds the sinkhorn limit"
        )
    site_idx = np.indices((s,) * p.n).reshape(p.n, -1).T  # (s^n, n)
    # +inf exactly where two sites coincide
    costs = coulomb(positions[site_idx]).reshape((s,) * p.n)
    return positions, masses, costs, site_idx


def _potential_sum(base: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``base[i_1, ..., i_n] + f[i_1] + ... + f[i_n]``, shape ``(s, s^(n-1))``."""
    g = base
    for k in range(base.ndim):
        shape = [1] * base.ndim
        shape[k] = f.size
        g = g + f.reshape(shape)
    return g.reshape(f.size, -1)


def _absorb(base: np.ndarray, f0: np.ndarray):
    """Scaling kernel re-based on the potential ``f0``.

    Returns ``K = exp(g - r)`` and the row maxima ``r`` of
    ``g = base + f0 + ... + f0``; every row of ``K`` has a largest entry of
    exactly 1.
    """
    g = _potential_sum(base, f0)
    r = g.max(axis=1)
    return np.exp(g - r[:, None]), r


def _logsumexp(x: np.ndarray) -> float:
    top = x.max()
    return float(top + np.log(np.exp(x - top).sum()))


def _require_finite_positive(name: str, value: float):
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")


def solve_sinkhorn(p: TransportProblem, beta: float, max_iter: int = 20000,
                   tol: float = 1e-8) -> TransportSolution:
    """Entropic proportional fitting with a single shared scaling potential.

    Coincident-site configurations carry zero weight (the singular diagonal
    is excluded, not clipped).  The iteration runs cold from ``f = 0`` at the
    requested ``beta`` on scalings against an absorbed kernel (Schmitzer,
    SIAM J. Sci. Comput. 2019): with ``g = -beta c + f0 + ... + f0`` over
    ``(s, s^(n-1))`` and its row maxima ``r``, ``K = exp(g - r)`` is built
    once per absorption, and each step contracts ``K`` with ``u = exp(f - f0)``
    along the n - 1 trailing axes to ``t``, so that the log-marginal is
    ``(f - f0) + r + log t``.  ``f0`` starts at 0 and is reset to ``f``
    whenever ``max|f - f0|`` exceeds ``ABSORB_RANGE``; since every row of
    ``K`` holds an entry equal to 1, ``t_i >= exp(-(n - 1) ABSORB_RANGE) > 0``
    and ``log t`` stays finite at any beta.  ``max_iter`` caps the whole run;
    at the cap the solver returns without raising, and ``converged`` records
    whether the iteration residual (before pruning) reached ``tol``.
    """
    _require_finite_positive("inverse temperature beta", beta)
    _require_finite_positive("tolerance", tol)
    positions, masses, costs, site_idx = _gibbs_cost_tensor(p)
    _feasibility_check(p.n, masses)
    s = positions.shape[0]
    log_mass = np.log(masses)

    base = -beta * costs   # -inf on coincident sites: beta > 0
    f = f0 = np.zeros(s)
    kernel, r = _absorb(base, f0)
    iterations = 0
    residual = np.inf
    while iterations < max_iter:
        iterations += 1
        df = f - f0
        if np.abs(df).max() > ABSORB_RANGE:
            f0, df = f, np.zeros(s)
            kernel, r = _absorb(base, f0)
        u = np.exp(df)
        t = kernel
        for _ in range(p.n - 1):
            t = t.reshape(-1, s) @ u
        logm = df + r + np.log(t)
        log_total = _logsumexp(logm)
        residual = float(np.abs(np.exp(logm - log_total) - masses).sum())
        if residual <= tol:
            break
        f = f + DAMPING * (log_mass - (logm - log_total))

    g = _potential_sum(base, f)
    flat_w = np.exp(g - g.max()).ravel()
    kept_idx = np.nonzero(flat_w >= PRUNE_THRESHOLD * flat_w.sum())[0]
    kept_w = flat_w[kept_idx]
    kept_w = kept_w / kept_w.sum()
    configs = positions[site_idx[kept_idx]]
    plan = AtomicPlan(p.n, positions.shape[1], configs, kept_w).sorted_copy()
    value = float((coulomb(configs) * kept_w).sum())
    return TransportSolution(
        plan=plan,
        value=value,
        solver="sinkhorn",
        marginal_residual=_marginal_residual(plan, p),
        beta=beta,
        iterations=iterations,
        converged=bool(residual <= tol),
        residual=residual,
    )


def check_dual(sol: TransportSolution, p: TransportProblem,
               tol: float = 1e-8) -> DualCheckReport:
    """Verify the Kantorovich certificate of a solved problem.

    Checks sum_j v(x_j) <= cost(X) + tol over every repeat-free
    configuration, the multisets :func:`solve_lp` enumerates (only its
    solutions carry a dual, and it refuses more than ``MAX_LP_VARIABLES``),
    and reports the complementary-slackness residual on the plan support.
    """
    _require_finite_positive("tolerance", tol)
    if sol.dual_potential is None:
        raise ValidationError("solution carries no dual potential")
    positions, _, support = p.support()
    v = sol.dual_potential
    s = positions.shape[0]
    if len(v) != s or sol.plan.n != p.n:
        raise ValidationError("solution is of another problem: "
                              f"{sol.plan.n} particles on {len(v)} sites, not {p.n} on {s}")
    combos = np.array(list(itertools.combinations(range(s), p.n)))
    configs = positions[combos]
    slack = v[combos].sum(axis=1) - coulomb(configs)
    worst = int(np.argmax(slack))
    max_violation = float(slack[worst])

    grid = p.marginal.grid
    site_of = np.full(grid.n_sites, -1)
    site_of[support] = np.arange(s)
    idx = grid.indices_of(sol.plan.configs)
    sites = site_of[np.ravel_multi_index(tuple(np.moveaxis(idx, -1, 0)), grid.shape)]
    if np.any(sites < 0):
        raise ValidationError("plan has an atom off the marginal support")
    plan_costs = coulomb(sol.plan.configs)
    cs = (sol.plan.weights * np.abs(plan_costs - v[sites].sum(axis=1))).sum()
    return DualCheckReport(
        ok=max_violation <= tol,
        max_violation=max_violation,
        worst_config=configs[worst] if max_violation > tol else None,
        complementary_residual=float(cs),
    )


def plan_separation(sol: TransportSolution) -> SeparationReport:
    """Separation of the solved plan after pruning negligible atoms."""
    keep = sol.plan.weights >= PRUNE_THRESHOLD * sol.plan.weights.sum()
    if not keep.any():
        raise ValidationError("plan empty after pruning")
    configs = sol.plan.configs[keep]
    weights = sol.plan.weights[keep]
    plan = AtomicPlan(sol.plan.n, sol.plan.dim, configs, weights / weights.sum())
    return separation(plan)
