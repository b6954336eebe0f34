"""Symmetric multi-marginal transport with Coulomb cost on grid densities.

Two solvers share one problem description: an exact linear program over
repeat-free multisets of support sites (the symmetric, infinite-diagonal
structure shrinks the variable set by n! and removes the singular
configurations), solved by scipy's HiGHS, and an entropic fixed-point
iteration with one shared scaling potential.  The LP runs on the costs over
their smallest one and checks its Kantorovich certificate on every multiset, raising
on a failure; the entropic path converges to the LP value as the inverse
temperature grows and reports whether it met its tolerance.  scipy (HiGHS
and its sparse matrices) is imported on the first LP solve, not with this
module, so code that never solves an LP never loads it.

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

from .errors import NumericalError, ValidationError
from .grids import AtomicPlan, GridDensity, coulomb, marginal

MAX_LP_VARIABLES = 200_000
MAX_GIBBS_ENTRIES = 2_000_000
PRUNE_THRESHOLD = 1e-9  # atoms below this share of the total weight are dropped
DAMPING = 0.5  # share of the log-marginal correction applied per Sinkhorn step
ABSORB_RANGE = 50.0  # max |f - f0| before the Sinkhorn kernel is re-based
DUAL_TOL = 1e-9  # largest dual violation of the LP, as a share of its value


@dataclass
class TransportProblem:
    """Pinned-marginal symmetric transport with the Coulomb pair cost."""

    n: int
    marginal: GridDensity

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("transport needs at least two particles")

    def support(self):
        """(site positions (s, dim), site masses (s,))."""
        flat = self.marginal.values.ravel()
        idx = np.nonzero(flat > 0)[0]
        pts = self.marginal.grid.points()[idx]
        masses = flat[idx] * self.marginal.grid.cell_volume
        return pts, masses


@dataclass
class TransportSolution:
    plan: AtomicPlan
    value: float
    marginal_residual: float
    dual_potential: Optional[np.ndarray] = None
    duality_gap: Optional[float] = None
    iterations: int = 0
    converged: bool = True  # Sinkhorn met tol; the LP raises if not
    # LP: max |A x - b| over the marginal rows; Sinkhorn: the last L1
    # iteration residual, before pruning
    residual: Optional[float] = None
    status: Optional[int] = None  # HiGHS status of the LP
    # LP certificate over every multiset X: max of sum_j v(x_j) - cost(X),
    # and the plan's mean |cost(X) - sum_j v(x_j)|
    max_violation: Optional[float] = None
    complementary_residual: Optional[float] = None


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
    program on the costs over their smallest one, at a dual feasibility
    tolerance of ``DUAL_TOL``; its equality-row duals, times that cost, over
    n give a Kantorovich potential v with sum_j v(x_j) <= cost(X).
    The reduced costs ``cost(X) - sum_j v(x_j)`` over every multiset are the
    certificate: lowering v by ``max_violation / n`` makes it feasible, so
    the value exceeds the optimum by at most ``duality_gap + max_violation``,
    and a violation above ``DUAL_TOL`` times the value raises
    :class:`NumericalError`.  Each optimal multiset is one orbit of the
    plan.  scipy's HiGHS loads on the first call, not at import.

    HiGHS runs without presolve.  Over every program the tests solve, 1
    to 13041 columns with the cost-decade and degenerate cases, ``x`` and
    the row duals came out bit-identical with presolve on and off, with the
    same status and iteration count, except that presolve solves a
    one-column program in 0 iterations and the simplex in 1.  Presolve cost
    2-3 ms of a 10-13 ms solve at 2016 and 2024 columns.  The certificate
    above still guards the result.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csc_array

    positions, masses = p.support()
    _feasibility_check(p.n, masses)
    s, dim = positions.shape
    n_vars = math.comb(s, p.n)
    if n_vars > MAX_LP_VARIABLES:
        advice = ("use the sinkhorn solver" if s**p.n <= MAX_GIBBS_ENTRIES
                  else "use fewer support sites")
        raise ValidationError(
            f"{n_vars} multiset variables exceed the exact-LP limit "
            f"({MAX_LP_VARIABLES}); {advice}"
        )
    combos = np.array(list(itertools.combinations(range(s), p.n)))  # (n_vars, n)
    costs = coulomb(positions[combos])
    if not np.all(np.isfinite(costs)):
        raise ValidationError("cost is singular on a repeat-free configuration")

    # column j holds 1/n at the sites of multiset j; sparse, since a dense
    # matrix at the variable cap would take about a gigabyte
    a = csc_array((np.full(combos.size, 1.0 / p.n), combos.ravel(),
                   np.arange(0, combos.size + 1, p.n)), shape=(s, n_vars))
    # HiGHS's dual feasibility tolerance is absolute: on costs far below 1,
    # or spanning many decades, it stops at a suboptimal vertex
    scale = float(costs.min())
    res = linprog(costs / scale, A_eq=a, b_eq=masses, bounds=(0, None), method="highs",
                  options={"dual_feasibility_tolerance": DUAL_TOL, "presolve": False})
    if res.status == 2:
        raise ValidationError("linear program infeasible")
    if res.status != 0:
        raise NumericalError(f"linear program not solved: {res.message}")
    x = np.maximum(res.x, 0.0)
    y = res.eqlin.marginals * scale
    v = y / p.n
    reduced = costs - v[combos].sum(axis=1)
    max_violation = float(-reduced.min())
    value = float(costs @ x)
    if max_violation > DUAL_TOL * value:
        raise NumericalError(
            f"linear program not optimal: dual violation {max_violation:.3g} "
            f"exceeds {DUAL_TOL:g} of the value {value:.3g}")

    kept = np.nonzero(x > 1e-15)[0]
    plan = AtomicPlan(p.n, dim, positions[combos[kept]], x[kept] / x[kept].sum())

    return TransportSolution(
        plan=plan,
        value=value,
        marginal_residual=_marginal_residual(plan, p),
        dual_potential=v,
        duality_gap=value - float(y @ masses),
        iterations=int(res.nit),
        residual=float(np.abs(a @ x - masses).max()),
        status=int(res.status),
        max_violation=max_violation,
        complementary_residual=float(x @ np.abs(reduced) / x.sum()),
    )


def _gibbs_cost_tensor(p: TransportProblem):
    positions, masses = p.support()
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


def require_finite_positive(name: str, value: float):
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
    require_finite_positive("inverse temperature beta", beta)
    require_finite_positive("tolerance", tol)
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
    plan = AtomicPlan(p.n, positions.shape[1], configs, kept_w)
    value = float((coulomb(configs) * kept_w).sum())
    return TransportSolution(
        plan=plan,
        value=value,
        marginal_residual=_marginal_residual(plan, p),
        iterations=iterations,
        converged=bool(residual <= tol),
        residual=residual,
    )
