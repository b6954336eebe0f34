"""The benchmark workloads: seeded inputs, the CLI calls of one op, and the
output checks behind ``checks_passed_frac``.

``quantum-check`` is not listed in BENCHMARK.json: the program fails its
``diagonal_equals_plan`` check on every op (see ``KNOWN_FAILURES``), and a
listed workload must run without failures.  It stays here, with that check,
for runs by hand; list it again once the defect is fixed.

Every workload translates its geometry by a seed-chosen origin.  The Coulomb
cost and every check are translation invariant, so the stored reference
values hold for every seed while the input files differ from seed to seed.
Inputs are written through ``llot.fileio`` and the program sees only files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Relative tolerances of the reference comparisons.
TOTAL_TOL = 1e-9
E_OT_TOL = 1e-10
REPRODUCE_TOL = 1e-9
LHS_TOL = 1e-9


@dataclass
class Inputs:
    """The argv of each CLI call in one op, its report path, and check data."""

    calls: list
    reports: list
    context: dict = field(default_factory=dict)


def _origin(rng, h: float) -> float:
    return float(h * rng.uniform(-64.0, 64.0))


def _shifted(density, origin: float):
    from llot.grids import Grid, density_from_values

    grid = density.grid
    return density_from_values(Grid.line(origin, grid.h, grid.npts), density.values)


def _paired(origin: float, h: float, npts: int):
    """The presets' paired plan (pairs 0.75 apart over [0.25, 0.76]) and its
    binned marginal, on a grid starting at ``origin``."""
    from llot import presets
    from llot.grids import Grid, marginal

    grid = Grid.line(origin, h, npts)
    plan = presets.paired_plan(grid, origin + 0.25, origin + 0.76, 0.75)
    return plan, marginal(plan, grid)


def _rel_close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * abs(ref)


# -- rate-sweep ---------------------------------------------------------------

def make_rate_sweep(seed: int, workdir: Path) -> Inputs:
    from llot import fileio, presets

    rng = np.random.default_rng(seed)
    base = presets.sweep_density()
    density = workdir / "sweep_density.csv"
    fileio.write_density(density, _shifted(base, _origin(rng, base.grid.h)))
    report = workdir / "sweep_report.json"
    return Inputs(
        calls=[["sweep", "--density", str(density), "--n", "2", "--out", str(report)]],
        reports=[report],
        context={"density": density},
    )


def check_rate_sweep(reports: list, inputs: Inputs, reference: dict) -> list:
    from llot import fileio
    from llot.mmot import TransportProblem, solve_lp
    from llot.semiclassics import trial_energy

    rep = reports[0]
    records = rep["records"]
    ref = reference["rate-sweep"]
    rho = fileio.read_density(inputs.context["density"], n_particles=2)
    plan = solve_lp(TransportProblem(n=2, marginal=rho)).plan
    reproduced = [trial_energy(rho, plan, r["eps_opt"], r["eta"]).total for r in records]
    return [
        ("records_ok", len(records) == len(ref["totals"]) and all(
            r["error"] is None and rep["e_ot"] <= r["total"] for r in records)),
        ("total_reproduces", all(
            _rel_close(t, r["total"], REPRODUCE_TOL) for t, r in zip(reproduced, records))),
        ("total_vs_reference", all(
            r["total"] <= t + TOTAL_TOL * abs(t) for r, t in zip(records, ref["totals"]))),
        ("e_ot_vs_reference", _rel_close(rep["e_ot"], ref["e_ot"], E_OT_TOL)),
    ]


# -- regularize-fine ------------------------------------------------------------

FINE_NPTS = 1024
FINE_H = 2.0 / (FINE_NPTS - 1)
FINE_EPS = 0.05


def make_regularize_fine(seed: int, workdir: Path) -> Inputs:
    from llot import fileio

    rng = np.random.default_rng(seed)
    plan, rho = _paired(_origin(rng, FINE_H), FINE_H, FINE_NPTS)
    plan_path = workdir / "fine_plan.json"
    density = workdir / "fine_density.csv"
    fileio.write_plan(plan_path, plan)
    fileio.write_density(density, rho)
    report = workdir / "fine_report.json"
    return Inputs(
        calls=[["regularize", "--plan", str(plan_path), "--density", str(density),
                "--eps", repr(FINE_EPS), "--checks", "marginal,kinetic,potential",
                "--out", str(report)]],
        reports=[report],
    )


def check_regularize_fine(reports: list, inputs: Inputs, reference: dict) -> list:
    checks = reports[0]["checks"]
    ref = reference["regularize-fine"]
    return [
        ("marginal_l1_error", checks["marginal_l1_error"] <= 1e-10),
        ("potential_satisfied", checks["potential"]["satisfied"] is True),
        ("kinetic_ratio", checks["kinetic"]["ratio"] <= 1.05),
        ("kinetic_lhs_vs_reference",
         _rel_close(checks["kinetic"]["lhs"], ref["kinetic_lhs"], LHS_TOL)),
        ("potential_lhs_vs_reference",
         _rel_close(checks["potential"]["lhs"], ref["potential_lhs"], LHS_TOL)),
    ]


# -- transport ------------------------------------------------------------------

def _two_bump(sites: int, origin: float):
    """``presets.sixteen_site_density``'s two-bump profile on ``sites`` nodes."""
    from llot.grids import Grid, density_from_values

    grid = Grid.line(origin, 1.0 / (sites - 1), sites)
    x = grid.axis() - origin
    raw = (np.exp(-((x - 0.25) / 0.12) ** 2)
           + np.exp(-((x - 0.75) / 0.12) ** 2))
    return density_from_values(grid, raw, normalize=True)


def make_transport(seed: int, workdir: Path) -> Inputs:
    from llot import fileio

    rng = np.random.default_rng(seed)
    origin = _origin(rng, 1.0 / 63.0)
    d64 = workdir / "bump64.csv"
    d24 = workdir / "bump24.csv"
    fileio.write_density(d64, _two_bump(64, origin))
    fileio.write_density(d24, _two_bump(24, origin))
    reports = [workdir / f"{name}.json" for name in ("lp_n2", "lp_n3", "sinkhorn")]
    calls = [
        ["mmot", "--density", str(d64), "--n", "2", "--solver", "lp"],
        ["mmot", "--density", str(d24), "--n", "3", "--solver", "lp"],
        ["mmot", "--density", str(d64), "--n", "2", "--solver", "sinkhorn",
         "--beta", "200"],
    ]
    return Inputs(calls=[c + ["--out", str(r)] for c, r in zip(calls, reports)],
                  reports=reports)


def check_transport(reports: list, inputs: Inputs, reference: dict) -> list:
    lp2, lp3, sk = reports
    out = []
    for name, rep in (("lp_n2", lp2), ("lp_n3", lp3)):
        out += [
            (f"{name}_dual_feasible", rep["dual_feasible"] is True),
            (f"{name}_duality_gap", abs(rep["duality_gap"]) <= 1e-8),
            (f"{name}_marginal_residual", rep["marginal_residual"] <= 1e-10),
        ]
    out += [
        ("sinkhorn_marginal_residual", sk["marginal_residual"] <= 1e-6),
        ("sinkhorn_not_below_lp", sk["value"] >= lp2["value"] - 1e-6),
    ]
    return out


# -- quantum-check --------------------------------------------------------------

QUANTUM_NPTS = 64
QUANTUM_H = 1.0 / 32.0
QUANTUM_EPS = 0.75 / 8.0


def make_quantum_check(seed: int, workdir: Path) -> Inputs:
    from llot import fileio

    rng = np.random.default_rng(seed)
    plan, rho = _paired(_origin(rng, QUANTUM_H), QUANTUM_H, QUANTUM_NPTS)
    plan_path = workdir / "paired_plan.json"
    density = workdir / "paired_density.csv"
    fileio.write_plan(plan_path, plan)
    fileio.write_density(density, rho)
    report = workdir / "quantum_report.json"
    return Inputs(
        calls=[["quantum-check", "--plan", str(plan_path), "--density", str(density),
                "--eps", repr(QUANTUM_EPS), "--samples", "1000",
                "--seed", str(seed), "--out", str(report)]],
        reports=[report],
    )


def check_quantum_check(reports: list, inputs: Inputs, reference: dict) -> list:
    rep = reports[0]
    return [
        ("trace_one", abs(rep["trace"] - 1.0) <= 1e-10),
        ("density_l1_error", rep["density_l1_error"] <= 1e-10),
        ("diagonal_equals_plan",
         rep["diagonal_max_abs_error"] <= 1e-10 * rep["diagonal_max_value"]),
        ("kinetic_rel_mismatch", rep["kinetic"]["rel_mismatch"] <= 0.01),
        ("positivity_min", rep["positivity_min"] >= -1e-12),
    ]


WORKLOADS = {
    "rate-sweep": (make_rate_sweep, check_rate_sweep),
    "regularize-fine": (make_regularize_fine, check_regularize_fine),
    "transport": (make_transport, check_transport),
    "quantum-check": (make_quantum_check, check_quantum_check),
}

# Check names per workload, so an op that fails before its report exists
# still counts each of its checks as failed.
CHECK_NAMES = {
    "rate-sweep": ["records_ok", "total_reproduces", "total_vs_reference",
                   "e_ot_vs_reference"],
    "regularize-fine": ["marginal_l1_error", "potential_satisfied", "kinetic_ratio",
                        "kinetic_lhs_vs_reference", "potential_lhs_vs_reference"],
    "transport": [f"{lp}_{c}" for lp in ("lp_n2", "lp_n3")
                  for c in ("dual_feasible", "duality_gap", "marginal_residual")]
                 + ["sinkhorn_marginal_residual", "sinkhorn_not_below_lp"],
    "quantum-check": ["trace_one", "density_l1_error", "diagonal_equals_plan",
                      "kinetic_rel_mismatch", "positivity_min"],
}

# Checks that fail on the seed code, with the cause.  They count as failures;
# this table only explains them in the run description.
KNOWN_FAILURES = {
    "quantum-check": {
        "diagonal_equals_plan": "kernel_eval evaluates the kernel amplitude at "
                                "unsnapped coordinates while RegularizedPlan.evaluate "
                                "snaps them to nodes (ROADMAP item 0)",
    },
}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def run_checks(workload: str, reports, inputs: Inputs, reference: dict) -> tuple:
    """``({check name: passed}, error)``; a missing report or a check that
    raises fails every check of the op."""
    names = CHECK_NAMES[workload]
    if reports is None:
        return {name: False for name in names}, "no report"
    try:
        results = dict(WORKLOADS[workload][1](reports, inputs, reference))
    except Exception as exc:  # a malformed report must not stop the run
        return {name: False for name in names}, f"check raised {exc!r}"
    if list(results) != names:
        raise RuntimeError(f"{workload}: checks {list(results)} differ from {names}")
    return {name: bool(ok) for name, ok in results.items()}, None
