import math

import numpy as np
import pytest

from llot import mollifier, regularizer, semiclassics
from llot.errors import NumericalError, ValidationError
from llot.grids import h1_seminorm_sqrt, marginal, separation
from llot.mmot import TransportProblem, solve_lp
from llot.mollifier import BumpProfile
from llot.presets import SWEEP_ETAS, SWEEP_SCALE, sweep_density
from llot.regularizer import (MARGINAL_TOL, MAX_TENSOR_ENTRIES, RegularizedPlan,
                              build_regularized, integrate_observable)
from llot.semiclassics import (
    TrialCurve,
    TrialEnergy,
    assembled_constant,
    fit_log_slope,
    sweep,
    trial_energy,
)
from instances import sixteen_site_density
from oracles import (diagonal_pair_plan, refined_sweep_density, three_cluster_density,
                     three_cluster_plan)


@pytest.fixture(scope="module")
def solved_instance():
    rho = sweep_density()
    sol = solve_lp(TransportProblem(2, rho))
    return rho, sol


def test_trial_energy_zero_eta_is_feasible_potential(solved_instance):
    rho, sol = solved_instance
    alpha = separation(sol.plan)
    te = trial_energy(rho, sol.plan, alpha / 8.0, 0.0)
    assert te.kinetic_term == 0.0
    assert te.total >= sol.value - 1e-8


def test_trial_energy_matches_hand_assembly(solved_instance):
    rho, sol = solved_instance
    alpha = separation(sol.plan)
    eps, eta = alpha / 10.0, 0.01
    te = trial_energy(rho, sol.plan, eps, eta)
    rp = build_regularized(sol.plan, rho, eps)
    kin = eta * 2 * (h1_seminorm_sqrt(rho) + BumpProfile(1).moments()[0] / eps**2)
    pot = integrate_observable(rp)
    assert te.total == pytest.approx(kin + pot, rel=1e-12)


def test_trial_energy_potential_approaches_transport_value(solved_instance):
    rho, sol = solved_instance
    alpha = separation(sol.plan)
    gaps = []
    for eps in (alpha / 8.0, alpha / 16.0, alpha / 32.0):
        te = trial_energy(rho, sol.plan, eps, 0.0)
        gaps.append(te.potential_term - sol.value)
    assert all(g >= -1e-8 for g in gaps)
    assert gaps[-1] <= gaps[0]


def test_optimize_finds_a_closed_form_interior_minimum(solved_instance, monkeypatch):
    # V(eps) = b eps^2 and a kinetic part a / eps^2 at eta = 1, so the total
    # a eta / eps^2 + b eps^2 has its minimizer m = (a eta / b)^(1/4) inside
    # the window, where the bounded search must find it to EPS_REL_TOL
    rho, sol = solved_instance
    curve = TrialCurve(rho, sol.plan)
    lo, hi = curve.window()
    a_coef, eta = 3.7, 2.3e-3
    m = lo**0.4 * hi**0.6
    b_coef = a_coef * eta / m**4
    widths = []

    def closed_form(self, eps):
        widths.append(eps)
        return b_coef * eps**2, a_coef / eps**2

    monkeypatch.setattr(TrialCurve, "_smoothed", closed_form)
    eps_opt, total = curve.optimize(eta)
    assert lo < eps_opt < hi
    assert abs(eps_opt - m) <= semiclassics.EPS_REL_TOL * m
    assert total == pytest.approx(2.0 * math.sqrt(a_coef * eta * b_coef), rel=1e-12)
    assert len(set(widths)) < semiclassics.N_SCAN + 15


def test_a_failed_eps_search_raises_and_the_sweep_records_it(monkeypatch):
    # an interior record whose bounded search reports no success fails
    # loudly; the edge-bound records never search and stay whole, and both
    # interior records search
    from scipy import optimize

    minimize_scalar = optimize.minimize_scalar

    def failing(*args, **kwargs):
        res = minimize_scalar(*args, **kwargs)
        res.success, res.message = False, "injected failure"
        return res

    monkeypatch.setattr(optimize, "minimize_scalar", failing)
    rho = sweep_density()
    curve = TrialCurve(rho, solve_lp(TransportProblem(2, rho)).plan)
    with pytest.raises(NumericalError, match="injected failure"):
        curve.optimize(SWEEP_ETAS[4])
    result = sweep(rho, 2, SWEEP_ETAS)
    failed = [r for r in result.records if r.error is not None]
    assert [r.eta for r in failed] == [SWEEP_ETAS[4], SWEEP_ETAS[5]]
    assert all("injected failure" in r.error and math.isnan(r.total) for r in failed)
    assert all(math.isfinite(r.total) for r in result.records if r.error is None)


def test_optimize_eps_moves_with_eta(solved_instance):
    rho, sol = solved_instance
    curve = TrialCurve(rho, sol.plan)
    eps_small, _ = curve.optimize(1e-4)
    eps_large, _ = curve.optimize(1e-1)
    assert eps_small <= eps_large + 1e-12


def test_optimize_eps_empty_interval():
    # the 16-site plan's separation is 7h, so alpha/4 < 2h: the window is
    # empty by geometry
    rho = sixteen_site_density()
    plan = solve_lp(TransportProblem(2, rho)).plan
    assert separation(plan) < 8 * rho.grid.h
    with pytest.raises(ValidationError, match="empty feasible eps interval"):
        TrialCurve(rho, plan).optimize(1e-2)


def test_fit_log_slope_exact_sqrt():
    etas = np.geomspace(1e-4, 1e-1, 8)
    gaps = np.sqrt(etas)
    assert fit_log_slope(etas, gaps) == pytest.approx(0.5, abs=1e-12)


def test_fit_slope_invariant_under_scaling():
    etas = np.geomspace(1e-3, 1e-1, 6)
    gaps = etas**0.47
    assert fit_log_slope(etas, 7.3 * gaps) == pytest.approx(
        fit_log_slope(etas, gaps), abs=1e-12)


def test_refined_sweep_density_at_refine_one_is_the_preset():
    rho, preset = refined_sweep_density(1, 0), sweep_density()
    assert rho.grid == preset.grid
    assert np.array_equal(rho.values, preset.values)


def test_sweep_end_to_end():
    # The preset's window [2h, alpha/4) spans only 19/8; a sqrt(eta) regime
    # over the etas needs eps_opt to move by 1000^(1/4), so refine 3x.
    rho = refined_sweep_density(3, 12)
    result = sweep(rho, 2, SWEEP_ETAS)
    assert result.alpha / (8.0 * rho.grid.h) >= 1000.0 ** 0.25
    assert all(r.error is None for r in result.records)
    assert all(r.gap >= -1e-8 for r in result.records)
    assert 0.4 <= result.fitted_slope <= 0.6
    # gap is nonincreasing as eta decreases
    gaps = [r.gap for r in result.records]
    assert all(gaps[i] <= gaps[i + 1] + 1e-8 for i in range(len(gaps) - 1))
    # explicit-constant envelope
    for r in result.records:
        assert r.gap <= r.assembled_c * (math.sqrt(r.eta) + r.eta)


def test_sweep_builds_no_tensor(monkeypatch):
    rho = sweep_density()
    records = sweep(rho, 2, SWEEP_ETAS).records
    monkeypatch.setattr(RegularizedPlan, "tensor", lambda self: pytest.fail("tensor built"))
    assert sweep(rho, 2, SWEEP_ETAS).records == records


def test_three_particle_sweep_runs_past_the_tensor_cap():
    # every optimum sits on the window's upper edge here, so the slope says
    # nothing about the rate and is not checked
    rho = three_cluster_density()
    assert rho.grid.n_sites**3 > MAX_TENSOR_ENTRIES
    result = sweep(rho, 3, SWEEP_ETAS)
    for r in result.records:
        assert r.error is None
        assert math.isfinite(r.total) and result.e_ot <= r.total


def test_a_two_dimensional_lp_plan_pins_rho_and_its_sweep_runs(two_disc_lp):
    # at HiGHS's default primal feasibility tolerance the plan missed rho by
    # 2e-6 in L1, so the sweep's binned-marginal check raised before any eta
    rho, sol = two_disc_lp
    assert sol.residual <= 1e-12
    assert marginal(sol.plan, rho.grid).l1_distance(rho) <= MARGINAL_TOL
    result = sweep(rho, 2, [1e-6, 1e-3])
    assert [r.error for r in result.records] == [None, None]
    assert [r.eps_edge for r in result.records] == ["lower", "upper"]


def test_sweep_survives_a_negligible_kernel_tail():
    # at 10x refinement an edge kernel offset has a squared weight near
    # 1e-299, which once pushed rho * kappa under DENOM_FLOOR at every eta
    result = sweep(refined_sweep_density(10, 40), 2, np.geomspace(1e-4, 1e-1, 3))
    assert [r.error for r in result.records] == [None, None, None]
    assert all(r.gap >= -1e-8 for r in result.records)


def test_sweep_with_an_empty_window_raises():
    # a plan separation below 8h empties the window, so no eta can run: the
    # sweep raises once its LP is solved, before any eta
    with pytest.raises(ValidationError, match="empty feasible eps interval"):
        sweep(sixteen_site_density(), 2, [1e-3, 1e-2])


def test_assembled_constant_positive_and_monotone_in_n():
    c2 = assembled_constant(2, 4.0, 1.0, 3.0, 0.5, 0.1, 0.4)
    c3 = assembled_constant(3, 4.0, 1.0, 3.0, 0.5, 0.1, 0.4)
    assert 0.0 < c2 < c3


@pytest.mark.parametrize("n", [2, 3])
def test_assembled_constant_matches_hand_formula(n):
    # alpha = 1 and eps_opt = 1/8 leave the margin r0 = 1/2; the potential
    # part is potential_error's bound over eps^2:
    # n(n-1)/r0^2 * int|grad rho| * M2 + 8 n(n-1)/r0^3
    h1, grad_moment, l1_grad_rho, second_moment = 0.7, 0.3, 3.0, 0.5
    d_eps = n * (n - 1) * (4.0 * l1_grad_rho * second_moment + 64.0)
    expected = n * h1 + n * grad_moment * 64.0 + 2.0 * math.sqrt(n * grad_moment * d_eps)
    got = assembled_constant(n, 1.0, h1, grad_moment, l1_grad_rho, second_moment, 0.125)
    assert got == pytest.approx(expected, rel=1e-14)


# Preset-sweep totals of the code before the shared trial curve, which built
# the smoothed plan anew for every (eta, eps) evaluation.
PER_EVALUATION_TOTALS = (
    0.001364336183207661, 0.0013644867444384404, 0.0013648111187770054,
    0.0013655099621045661, 0.001366756255550848, 0.0013692358219952476,
    0.0013722922882542141, 0.0013775990652904525, 0.001389032169829589,
    0.0014136640468634658,
)


def test_preset_sweep_smooths_each_width_once(monkeypatch):
    widths = []
    smooth = semiclassics.smooth_widths

    def counting_smooth(prep, eps):
        widths.extend(np.ravel(eps).tolist())
        return smooth(prep, eps)

    monkeypatch.setattr(semiclassics, "smooth_widths", counting_smooth)
    rho = sweep_density()
    result = sweep(rho, 2, SWEEP_ETAS)
    assert len(widths) == len(set(widths)) == 52
    plan = solve_lp(TransportProblem(2, rho)).plan
    assert len(result.records) == len(PER_EVALUATION_TOTALS)
    for r, before in zip(result.records, PER_EVALUATION_TOTALS):
        assert r.error is None
        single = trial_energy(rho, plan, r.eps_opt, r.eta).total
        assert r.total == pytest.approx(single, rel=1e-12)
        assert r.total <= before + 1e-9 * before


def test_preset_sweep_settles_edge_optima_with_one_probe(monkeypatch):
    # 32 scan widths, one probe per window edge and bounded Brent searches
    # of 9 widths for each interior record.  The search at eta 4.64e-3 took
    # 10 widths when the smoothing summed by slice-adds: its totals round
    # differently under the box-table products, and Brent's path follows
    # the rounding.  The widths are counted at smooth_widths, which the
    # scan calls once for its 32 widths and each later width once alone
    widths = []
    stacked = semiclassics.smooth_widths

    def counting(prep, eps):
        widths.extend(np.ravel(eps).tolist())
        return stacked(prep, eps)

    monkeypatch.setattr(semiclassics, "smooth_widths", counting)
    result = sweep(sweep_density(), 2, SWEEP_ETAS)
    assert len(widths) == 52
    lo, hi = result.eps_window
    assert lo == 2.0 * sweep_density().grid.h
    assert [r.eps_edge for r in result.records] == ["lower"] * 4 + [None] * 2 + ["upper"] * 4
    for r in result.records:
        if r.eps_edge is not None:
            assert r.eps_opt == {"lower": lo, "upper": hi}[r.eps_edge]
        else:
            assert lo < r.eps_opt < hi


def test_preset_sweep_builds_seven_kernel_lattices_for_its_52_widths(monkeypatch):
    # the 52 widths keep 4 offset sets (3, 5, 7 and 9 offsets), and the
    # sweep's order of widths switches set 6 times; the prepared plan keeps
    # the last set only, so each switch is one build.  The 32 scan widths
    # are one stacked pass per set, runs of 1, 14, 10 and 7 widths; the 20
    # refined widths follow as passes of one width each: the lower edge's
    # probe on 3 offsets, the two interior searches' 18 widths on 5 and the
    # upper edge's probe on 9
    builds, passes = [], []
    lattice = mollifier.KernelLattice
    stacked = semiclassics.smooth_widths

    def counting_lattice(*args):
        built = lattice(*args)
        builds.append(len(built.offsets))
        return built

    def recording(prep, eps):
        rps = stacked(prep, eps)
        passes.append([(np.size(rp.eps), len(rp.kernel.offsets)) for rp in rps])
        return rps

    monkeypatch.setattr(mollifier, "KernelLattice", counting_lattice)
    monkeypatch.setattr(semiclassics, "smooth_widths", recording)
    result = sweep(sweep_density(), 2, SWEEP_ETAS)
    assert result.widths_smoothed == 52
    assert len(builds) == 7
    assert sorted(set(builds)) == [3, 5, 7, 9]
    assert passes == [[(1, 3), (14, 5), (10, 7), (7, 9)], [(1, 3)]] + \
        [[(1, 5)]] * 18 + [[(1, 9)]]


def three_cluster_curve_inputs():
    grid, plan, _ = three_cluster_plan()
    return marginal(plan, grid), plan


def preset_curve_inputs():
    rho = sweep_density()
    return rho, solve_lp(TransportProblem(2, rho)).plan


@pytest.mark.parametrize("inputs, runs", [
    (preset_curve_inputs, [1, 14, 10, 7]),
    (diagonal_pair_plan, [1, 6, 13, 3, 3, 6]),
    (three_cluster_curve_inputs, [1, 7, 6, 4, 4, 3, 2, 2, 1, 2]),
], ids=["preset", "2-d-tail-cut", "n3-others"])
def test_scan_table_equals_the_one_width_path(monkeypatch, inputs, runs):
    # every scan width's (V, K) from its stacked pass against a fresh
    # curve's one-width smoothing: V to 1e-14 relative, K bit for bit.  The
    # 2-D plan's cube is 2-D and TAIL_CUT drops edge offsets at two scan
    # widths; the n = 3 plan's pair groups carry the third center's mass
    rho, plan = inputs()
    stacked = semiclassics.smooth_widths
    sizes = []

    def recording(prep, eps):
        rps = stacked(prep, eps)
        sizes.extend(np.size(rp.eps) for rp in rps)
        return rps

    monkeypatch.setattr(semiclassics, "smooth_widths", recording)
    xs, potential, kinetic = TrialCurve(rho, plan)._scan
    assert sizes == runs
    monkeypatch.undo()
    for x, v, k in zip(xs, potential, kinetic):
        v_one, k_one = TrialCurve(rho, plan)._smoothed(x)
        assert abs(v - v_one) <= 1e-14 * abs(v_one), x
        assert k == k_one, x


def shifted_preset():
    """The preset moved one node down: its support starts 3 nodes from the
    grid's first, inside the 4-node reach of the widest scan widths."""
    rho = sweep_density()
    return type(rho)(rho.grid, np.roll(rho.values, -1))


@pytest.mark.parametrize("density, floor, match", [
    (sweep_density, 1e-100, "density vanishes near plan support"),
    (shifted_preset, regularizer.DENOM_FLOOR, "too close to the grid boundary"),
], ids=["denominator-floor", "boundary-margin"])
def test_a_scan_width_that_fails_a_check_rejects_the_sweep(monkeypatch, density, floor,
                                                           match):
    # on the preset only the 25th scan width, the first of the last stacked
    # pass, has rho * kappa below 1e-100 on a window; on the shifted preset
    # only the last pass, 9 offsets wide, reaches past the grid.  Either
    # rejects the whole sweep before any eta runs
    monkeypatch.setattr(regularizer, "DENOM_FLOOR", floor)
    monkeypatch.setattr(TrialCurve, "optimize", lambda self, eta: pytest.fail("eta ran"))
    with pytest.raises(ValidationError, match=match):
        sweep(density(), 2, SWEEP_ETAS)


# The scaling law x -> lam x (ROADMAP item 20): on the grid of spacing
# lam h, the record at eta is the record of the unscaled grid at eta / lam,
# with e_ot, total and gap divided by lam and eps_opt multiplied by lam.
# Tolerances, relative unless said otherwise:
# - e_ot: E_OT_TOL = 1e-14, rounding of the scaled costs (the LP reads 0
#   on both lambdas here).
# - total: TOTAL_TOL = EPS_REL_TOL**2.  Each side's eps_opt is within
#   EPS_REL_TOL of a minimum, where the total moves to second order; at
#   equal widths the totals agree to rounding (1.4e-15 probed).
# - gap = total - e_ot cancels all but about 3e-3 of the total, so it is
#   held to the totals' absolute tolerance, TOTAL_TOL * total +
#   E_OT_TOL * e_ot (2.2e-13 of the gap probed).
# - eps_opt: 2 EPS_REL_TOL, one per side, plus the width over which the
#   two totals, equal to TOTAL_TOL, cannot tell widths apart: the total
#   rises over its minimum by about gap * (d eps / eps)^2, so
#   sqrt(TOTAL_TOL * total / gap).  An edge optimum is the scaled window
#   bound, equal to rounding.
# widths_smoothed is not compared: Brent's path follows the rounding.
E_OT_TOL = 1e-14
TOTAL_TOL = semiclassics.EPS_REL_TOL ** 2


@pytest.mark.parametrize("lam", [2.0, 0.37])
def test_sweep_records_follow_the_coulomb_scaling_law(lam):
    scaled = sweep(sweep_density(SWEEP_SCALE * lam), 2, SWEEP_ETAS)
    base = sweep(sweep_density(), 2, np.array(SWEEP_ETAS) / lam)
    assert scaled.e_ot * lam == pytest.approx(base.e_ot, rel=E_OT_TOL, abs=0)
    assert len(scaled.records) == len(base.records) == len(SWEEP_ETAS)
    assert [r.eps_edge for r in scaled.records] == [r.eps_edge for r in base.records]
    for s, b in zip(scaled.records, base.records):
        assert s.error is None and b.error is None
        assert s.total * lam == pytest.approx(b.total, rel=TOTAL_TOL, abs=0)
        gap_tol = TOTAL_TOL * b.total + E_OT_TOL * base.e_ot
        assert abs(s.gap * lam - b.gap) <= gap_tol
        eps_tol = 2 * semiclassics.EPS_REL_TOL + math.sqrt(TOTAL_TOL * b.total / b.gap)
        assert s.eps_opt / lam == pytest.approx(b.eps_opt, rel=eps_tol, abs=0)


@pytest.mark.parametrize("edge, offset, probed", [
    ("lower", 1e-3, False), ("lower", -0.5, True),
    ("upper", -1e-3, False), ("upper", 1.0, True),
], ids=["lower-inside", "lower-edge", "upper-inside", "upper-edge"])
def test_edge_probe_never_skips_a_real_minimum(solved_instance, monkeypatch,
                                               edge, offset, probed):
    # a closed-form unimodal total, log(eps / m)^2 with no kinetic part, whose
    # minimizer m sits 1e-3 relative inside a window edge (inside the first
    # scan interval and far past the probe) or outside the window
    rho, sol = solved_instance
    curve = TrialCurve(rho, sol.plan)
    lo, hi = curve.window()
    xs = np.geomspace(lo, hi, semiclassics.N_SCAN)
    bound = {"lower": lo, "upper": hi}[edge]
    m = bound * (1.0 + offset)
    widths = []

    def closed_form(self, eps):
        widths.append(eps)
        return math.log(eps / m) ** 2, 0.0

    monkeypatch.setattr(TrialCurve, "_smoothed", closed_form)
    eps_opt, energy = curve.optimize(1e-2)
    probe = {"lower": lo * (1.0 + semiclassics.EPS_REL_TOL),
             "upper": hi * (1.0 - semiclassics.EPS_REL_TOL)}[edge]
    assert probe in widths
    if probed:
        assert eps_opt == bound
        assert set(widths) == set(xs) | {probe}
    else:
        assert xs[0] < m < xs[1] or xs[-2] < m < xs[-1]
        assert abs(eps_opt - m) <= semiclassics.EPS_REL_TOL * m
        assert len(set(widths)) > len(xs) + 1


def _failing_at(eta_bad, exc_type):
    optimize = semiclassics.TrialCurve.optimize

    def optimize_or_fail(self, eta, *args, **kwargs):
        if eta == eta_bad:
            raise exc_type("injected failure")
        return optimize(self, eta, *args, **kwargs)
    return optimize_or_fail


def test_sweep_records_validation_error_and_continues(monkeypatch):
    etas = [1e-3, 1e-2, 1e-1]
    monkeypatch.setattr(semiclassics.TrialCurve, "optimize",
                        _failing_at(1e-2, ValidationError))
    result = sweep(sweep_density(), 2, etas)
    assert [r.error for r in result.records] == [None, "injected failure", None]
    assert math.isnan(result.records[1].total)
    assert all(math.isfinite(r.total) for r in (result.records[0], result.records[2]))


def test_sweep_propagates_programming_errors(monkeypatch):
    monkeypatch.setattr(semiclassics.TrialCurve, "optimize",
                        _failing_at(1e-2, TypeError))
    with pytest.raises(TypeError, match="injected failure"):
        sweep(sweep_density(), 2, [1e-3, 1e-2, 1e-1])


def test_trial_energy_kinetic_uses_kernel_width(solved_instance):
    rho, sol = solved_instance
    h = rho.grid.h
    at_h = trial_energy(rho, sol.plan, h, 0.01)
    sub = trial_energy(rho, sol.plan, 0.5 * h, 0.01)
    assert sub.kinetic_term == at_h.kinetic_term
    assert sub.potential_term == at_h.potential_term


def test_scan_table_totals_equal_the_energy_totals(solved_instance):
    # V + eta * K over the cached table adds the same two floats as a
    # TrialEnergy's total, so the scan picks the same best point bit for bit
    rho, sol = solved_instance
    curve = TrialCurve(rho, sol.plan)
    xs, potential, kinetic = curve._scan
    assert len(xs) == semiclassics.N_SCAN and (xs[0], xs[-1]) == curve.window()
    for eta in SWEEP_ETAS:
        totals = [TrialEnergy(eta, x, eta * k, v).total
                  for x, (v, k) in zip(xs, map(curve._smoothed, xs))]
        assert np.array_equal(potential + eta * kinetic, totals)


def test_preset_sweep_reaches_the_window_minimum(solved_instance):
    # each record's total is at most the least total over 400 geometric
    # widths of the window; the interior records sit at a local minimum of
    # the total, and record 5's total has two, at about 2.46h and 3.46h
    rho, sol = solved_instance
    result = sweep(rho, 2, SWEEP_ETAS)
    curve = TrialCurve(rho, sol.plan)
    assert curve.window() == result.eps_window
    table = [curve._smoothed(x) for x in np.geomspace(*curve.window(), 400)]
    for r in result.records:
        floor = min(v + r.eta * k for v, k in table)
        assert r.total <= floor


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_eta_is_rejected(solved_instance, monkeypatch, bad):
    rho, sol = solved_instance
    with pytest.raises(ValidationError, match="eta must be nonnegative and finite"):
        trial_energy(rho, sol.plan, 2.0 * rho.grid.h, bad)
    with pytest.raises(ValidationError, match="eta must be positive and finite"):
        TrialCurve(rho, sol.plan).optimize(bad)
    # the sweep rejects the list before sorting it and before the LP, and a
    # zero or negative eta with it
    monkeypatch.setattr(semiclassics, "solve_lp", lambda p: pytest.fail("LP solved"))
    for eta in (bad, 0.0, -1e-3):
        with pytest.raises(ValidationError, match="every eta must be positive and finite"):
            sweep(rho, 2, [eta, 1e-3])
