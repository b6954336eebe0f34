"""Trial-state upper bounds and the small-parameter rate study.

For a pinned density rho with transport optimum E_OT and optimizer plan, the
smoothed-plan trial state gives, for each effective semiclassical parameter
eta, the upper bound

    total(eps) = eta * n * (H1(sqrt rho) + w^-2 * grad moment) + V(eps),

with w = max(eps, h) the width of the grid kernel and V(eps) the integral of
the Coulomb cost against P_eps; its minimum over eps exceeds E_OT by
O(sqrt(eta) + eta).  V does not depend on eta, so one :class:`TrialCurve`
per (rho, plan) smooths each width once and serves every eta.  The sweep
optimizes eps per eta, records the gap, and fits the log-log rate.

eps is optimized over the feasible window ``[2h, alpha/4 * (1 - 1e-3)]``
to ``EPS_REL_TOL`` relative, on one path; the window is empty when the
plan's separation alpha is at most ``8h / (1 - 1e-3)``.  Each curve scans
its window once, at ``N_SCAN`` geometric widths whose ends are the window's
bounds, and every eta takes its best scan point from that table.  When
the best point is a window edge, one probe ``EPS_REL_TOL`` inside the edge
decides it: a probe above the edge's total returns the edge itself,
exactly; only a probe at or below it runs the search.  The search is
Brent's bounded search (``scipy.optimize.minimize_scalar``, method
``"bounded"``) on the scan interval around the best point, with ``xatol =
EPS_REL_TOL * a`` at its lower end ``a``.  It stops when ``|x - xm| <= 2
tol1 - (b - a)/2``, ``xm`` the midpoint of its bracket ``[a, b]`` and
``tol1 = sqrt(eps_mach) |x| + xatol / 3``, so every point of the final
bracket lies within ``2 tol1 <= (2.98e-8 + 6.67e-8) x`` of the returned x,
inside ``EPS_REL_TOL * x``.  A refined width whose total exceeds the best
scan point's is dropped for that point, so the result is never worse than
the best scan point, whether or not the total is unimodal in eps.  A sweep
record whose ``eps_opt`` equals a window bound names it in ``eps_edge``.

``EPS_REL_TOL`` is the search's precision.  Near an interior optimum the
total is flat to rounding over a relative width of about ``sqrt(u * total
/ gap)``, u the unit roundoff, so ``eps_opt`` is fixed only to the wider of
the two, and Brent's answer inside the flat width follows the rounding.  On
the sweep preset that width is the wider: two sweeps related by the exact
Coulomb scaling law give ``eps_opt`` 2.7e-7 apart, totals 6.4e-16 apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import NumericalError, ValidationError
from .grids import AtomicPlan, GridDensity, h1_seminorm_sqrt, l1_gradient
from .mollifier import BumpProfile
from .mmot import TransportProblem, require_finite_positive, solve_lp
from .regularizer import PreparedPlan, coulomb_smoothing_rate, integrate_observable
from .regularizer import kinetic_term, prepare_plan, smooth_plan

N_SCAN = 32   # geometric pre-scan points of the eps optimization
# relative precision of the eps search: Brent's final bracket lies within
# (2.98e-8 + 6.67e-8) x of its answer x; an interior eps_opt's may be coarser
EPS_REL_TOL = 1e-7


@dataclass
class TrialEnergy:
    eta: float
    eps: float
    kinetic_term: float
    potential_term: float

    @property
    def total(self) -> float:
        return self.kinetic_term + self.potential_term


@dataclass
class SweepRecord:
    """One eta of a sweep, and the one list of a sweep record's fields: the
    report's records are ``dataclasses.asdict`` of these, and the CSV's
    columns are these fields in order.  ``assembled_margin`` is
    :func:`assembled_margin` at ``eps_opt``, the distance at which
    ``assembled_c`` takes its sups.  A failed eta carries its ``error`` and
    NaN numbers."""

    eta: float
    eps_opt: float = math.nan
    total: float = math.nan
    gap: float = math.nan
    assembled_c: float = math.nan
    assembled_margin: float = math.nan
    error: Optional[str] = None
    eps_edge: Optional[str] = None   # "lower" or "upper" when eps_opt is that window bound


@dataclass
class SweepResult:
    records: list
    e_ot: float
    alpha: float
    fitted_slope: float
    eps_window: tuple       # (lo, hi) of TrialCurve.window
    widths_smoothed: int    # distinct widths the sweep's TrialCurve smoothed


def trial_energy(rho: GridDensity, plan: AtomicPlan, eps: float, eta: float) -> TrialEnergy:
    """Assemble the two-term upper bound at one (eps, eta)."""
    if not (math.isfinite(eta) and eta >= 0):
        raise ValidationError(f"eta must be nonnegative and finite, got {eta!r}")
    return TrialCurve(rho, plan).energy(eps, eta)


class TrialCurve:
    """The trial bound of one (rho, plan) as a function of (eps, eta).

    ``V(eps)`` and the kinetic term at eta = 1 are memoized per exact float
    eps and shared by every eta; the plan is prepared for smoothing once, on
    first use, and the window is scanned once, on the first
    :meth:`optimize`.  The kinetic term is closed form (:func:`kinetic_term`)
    from ``H1(sqrt rho)``, computed once per curve, and the width and
    gradient moment of each smoothing's kernel.
    """

    def __init__(self, rho: GridDensity, plan: AtomicPlan):
        self.rho = rho
        self.plan = plan
        self.h1 = h1_seminorm_sqrt(rho)
        self._smoothed_at: dict = {}

    @cached_property
    def prepared(self) -> PreparedPlan:
        return prepare_plan(self.plan, self.rho)

    def _smoothed(self, eps: float) -> tuple:
        """``(V(eps), kinetic term at eta = 1)`` of the plan smoothed at
        ``eps``; ``V`` is the Coulomb cost integrated against ``P_eps``."""
        eps = float(eps)
        if eps not in self._smoothed_at:
            rp = smooth_plan(self.prepared, eps)
            self._smoothed_at[eps] = (integrate_observable(rp),
                                      kinetic_term(self.plan.n, self.h1, rp.kernel))
        return self._smoothed_at[eps]

    def energy(self, eps: float, eta: float) -> TrialEnergy:
        potential, kinetic_at_one = self._smoothed(eps)
        kinetic = eta * kinetic_at_one
        return TrialEnergy(eta=eta, eps=eps, kinetic_term=float(kinetic),
                           potential_term=float(potential))

    def window(self) -> tuple:
        """The feasible widths ``(lo, hi) = (2h, alpha/4 * (1 - 1e-3))``; the
        window is empty when ``lo >= hi``: alpha at most ``8h / (1 - 1e-3)``."""
        return 2.0 * self.rho.grid.h, self.prepared.alpha / 4.0 * (1.0 - 1e-3)

    @cached_property
    def _scan(self) -> tuple:
        """``(xs, V, K)``: the ``N_SCAN`` geometric widths of :meth:`window`,
        its bounds included, and ``V`` and the eta = 1 kinetic term at each."""
        lo, hi = self.window()
        if lo >= hi:
            raise ValidationError(f"empty feasible eps interval: [{lo:.4g}, {hi:.4g}]")
        xs = np.geomspace(lo, hi, N_SCAN)
        potential, kinetic = np.array([self._smoothed(x) for x in xs]).T
        return xs, potential, kinetic

    def optimize(self, eta: float):
        """Minimize the trial total over the feasible mollifier widths.

        Returns ``(eps_opt, energy)``.  The best point of the curve's scan
        table, ``V + eta * K`` at ``N_SCAN`` widths, is refined on one path
        (module docstring).  At a window edge the total is first probed once
        at the edge moved ``EPS_REL_TOL`` relative into the window: a probe
        strictly above the edge's total returns the edge itself, exactly.
        Otherwise Brent's bounded search refines inside the scan interval
        ``[a, b]`` around the best point to ``xatol = EPS_REL_TOL * a``; a
        search that reports no success (its evaluation cap, or a nan total)
        raises ``NumericalError``.  A refined total above the best scan
        point's returns that point, so the result is never worse than the
        best scan point.  At an interior optimum ``eps_opt`` is fixed only
        to the wider of ``EPS_REL_TOL`` and the total's flat width
        ``sqrt(u * total / gap)`` (module docstring).
        """
        require_finite_positive("eta", eta)
        xs, potential, kinetic = self._scan
        vals = potential + eta * kinetic
        best = int(np.argmin(vals))

        def total(eps: float) -> float:
            return self.energy(eps, eta).total

        probe = {0: xs[0] * (1.0 + EPS_REL_TOL),
                 N_SCAN - 1: xs[-1] * (1.0 - EPS_REL_TOL)}.get(best)
        if probe is not None and total(probe) > vals[best]:
            eps_opt = float(xs[best])
            return eps_opt, self.energy(eps_opt, eta)
        a = xs[max(best - 1, 0)]
        b = xs[min(best + 1, N_SCAN - 1)]
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(total, bounds=(a, b), method="bounded",
                              options={"xatol": EPS_REL_TOL * a})
        if not res.success:
            raise NumericalError(f"eps search on [{a:.6g}, {b:.6g}] failed: "
                                 f"{res.message}")
        eps_opt = float(res.x)
        if total(eps_opt) > vals[best]:
            eps_opt = float(xs[best])
        return eps_opt, self.energy(eps_opt, eta)


def assembled_margin(alpha: float, eps_opt: float) -> float:
    """``alpha - 4 eps_opt``: the least pairwise distance of the smoothed
    plan's configurations, at which :func:`assembled_constant` takes the
    Coulomb derivative sups.  ``alpha * 1e-3`` at an upper-edge optimum."""
    return alpha - 4.0 * eps_opt


def assembled_constant(n: int, alpha: float, h1: float, grad_moment: float,
                       l1_grad_rho: float, second_moment: float,
                       eps_opt: float) -> float:
    """Rate constant from the explicit ingredients of the upper bound.

    The potential part is the bound of
    :func:`~llot.regularizer.potential_error` over eps^2
    (:func:`~llot.regularizer.coulomb_smoothing_rate`), with the pairwise
    distance margin :func:`assembled_margin` evaluated at eps_opt.  At an
    upper-edge optimum that margin is ``alpha * 1e-3``, so the constant
    reads large there: about 31 on the sweep preset, and 6.9e6 on the n = 3
    clusters of ``tests/oracles.py``, whose gaps are at most 1406.  The
    sweep report states the margin beside each constant.
    """
    margin = assembled_margin(alpha, eps_opt)
    if margin <= 0:
        return math.inf
    d_eps = coulomb_smoothing_rate(n, margin, l1_grad_rho, second_moment)
    return (n * h1 + n * grad_moment * (8.0 / alpha) ** 2
            + 2.0 * math.sqrt(n * grad_moment * d_eps))


def fit_log_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x) over positive entries."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = (xs > 0) & (ys > 0) & np.isfinite(ys)
    if keep.sum() < 2:
        return math.nan
    coeff = np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)
    return float(coeff[0])


def sweep(rho: GridDensity, n: int, eta_list) -> SweepResult:
    """Solve the transport problem once, then rate-study the trial bound.

    Every eta optimizes eps over one shared :class:`TrialCurve`, so each
    width is smoothed once per sweep.  The curve's scan table serves every
    eta, so it is built after the LP and before any eta runs: an empty
    feasible window, or a scan width that cannot be smoothed, raises
    ``ValidationError`` for the whole sweep.  A validation or numerical
    failure in one eta's eps search is recorded in that eta's
    :class:`SweepRecord` and the sweep continues.  Records are ordered by
    eta ascending; the result carries ``E_OT``, the fitted log-log slope of
    the gap, the feasible window and the number of distinct widths
    smoothed, and a record whose ``eps_opt`` is one of the window's bounds
    says which in ``eps_edge``.
    The etas (each positive and finite) are checked before the LP and any
    eta run: inside the loop their errors would be recorded as failed etas
    instead of rejecting the call, and a nan eta cannot be sorted.
    """
    eta_list = [float(e) for e in eta_list]
    if len(eta_list) < 1:
        raise ValidationError("eta list is empty")
    if not all(math.isfinite(e) and e > 0 for e in eta_list):
        raise ValidationError(f"every eta must be positive and finite, got {eta_list}")
    eta_list.sort()
    problem = TransportProblem(n=n, marginal=rho)
    sol = solve_lp(problem)
    curve = TrialCurve(rho, sol.plan)
    alpha = curve.prepared.alpha
    grad_moment, second_moment = BumpProfile(rho.grid.dim).moments()
    l1g = l1_gradient(rho)
    window = curve.window()
    edges = dict(zip(window, ("lower", "upper")))
    curve._scan   # every eta's table: an empty window or a bad width rejects the sweep

    records = []
    for eta in eta_list:
        try:
            eps_opt, energy = curve.optimize(eta)
            c = assembled_constant(n, alpha, curve.h1, grad_moment, l1g,
                                   second_moment, eps_opt)
            records.append(SweepRecord(
                eta=eta, eps_opt=eps_opt, total=energy.total,
                gap=energy.total - sol.value, assembled_c=c,
                assembled_margin=assembled_margin(alpha, eps_opt),
                eps_edge=edges.get(eps_opt)))
        except (ValidationError, NumericalError) as exc:
            records.append(SweepRecord(eta=eta, error=str(exc)))
    slope = fit_log_slope([r.eta for r in records if r.error is None],
                          [r.gap for r in records if r.error is None])
    return SweepResult(records=records, e_ot=sol.value, alpha=alpha,
                       fitted_slope=slope, eps_window=window,
                       widths_smoothed=len(curve._smoothed_at))
