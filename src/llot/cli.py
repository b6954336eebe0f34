"""Command-line entry point: llot {regularize, quantum-check, mmot, sweep, selftest}.

All reports are deterministic JSON (sorted keys, no timestamps); identical
inputs produce byte-identical output.  Exit codes: 0 success, 1 validation
error or a file that cannot be read or written, 2 numerical failure.  A
``selftest`` with a failed check and a Sinkhorn ``mmot`` that did not
converge write their report and exit 2.  Output paths are checked before
any computation, so a bad one writes no file at all.  A ``--density`` file
has mass 1, or mass n (the plan's or ``--n``'s) and is divided by n.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import fileio, presets
from .errors import NumericalError, ValidationError
from .grids import h1_seminorm_sqrt, marginal, symmetrize
from .mmot import TransportProblem, check_dual, plan_separation, solve_lp, solve_sinkhorn
from .quantum import MixedStateKernel, kernel_eval, kinetic_trace, one_particle_density
from .quantum import quadratic_form
from .regularizer import build_regularized, kinetic_of_sqrt, kinetic_term, potential_error
from .semiclassics import sweep as run_sweep


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="llot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="report path (default stdout)")

    p = sub.add_parser("regularize", help="build the pinned smoothing and verify it")
    p.add_argument("--plan", required=True)
    p.add_argument("--density", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--checks", default="marginal",
                   help="comma list from {marginal,kinetic,potential}")
    common(p)

    p = sub.add_parser("quantum-check", help="verify the fermionic mixed state")
    p.add_argument("--plan", required=True)
    p.add_argument("--density", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("mmot", help="solve the pinned-marginal transport problem")
    p.add_argument("--density", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--solver", default="lp", choices=["lp", "sinkhorn"])
    p.add_argument("--beta", type=float, default=200.0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--plan-out", dest="plan_out", default=None,
                   help="write the optimal plan JSON here")
    common(p)

    p = sub.add_parser("sweep", help="rate study of the trial upper bound")
    p.add_argument("--density", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--etas", default="1e-4:1e-1:10",
                   help="log-spaced range lo:hi:count")
    p.add_argument("--eps-min", type=float, default=None)
    p.add_argument("--csv", default=None, help="write per-eta records CSV here")
    common(p)

    p = sub.add_parser("selftest", help="run the built-in desk instances")
    common(p)
    return parser


def _emit(report: dict, out):
    text = fileio.write_report(out, report)
    if out is None:
        sys.stdout.write(text)


def _parse_etas(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError("etas must be lo:hi:count")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(
            f"etas {spec!r}: lo and hi must be numbers, count an integer")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"etas {spec!r}: lo and hi must be finite")
    if lo <= 0 or hi <= lo or count < 2:
        raise ValidationError("etas range must satisfy 0 < lo < hi, count >= 2")
    return np.geomspace(lo, hi, count)


def _check_outputs(args):
    """Reject an output path that names a directory or lies in a directory
    that does not exist."""
    for flag in ("out", "plan_out", "csv"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        path = Path(path)
        if path.is_dir():
            raise ValidationError(f"cannot write {path}: it is a directory")
        if not path.parent.is_dir():
            raise ValidationError(f"cannot write {path}: {path.parent} is not a directory")


def _kernel_flag(rp) -> dict:
    """Report keys that mark a width at or below the grid spacing."""
    if not rp.one_node_kernel:
        return {}
    return {"one_node_kernel": True,
            "kernel_note": "eps <= grid spacing: one-node kernel, so P_eps = P "
                           "on this grid"}


def _cmd_regularize(args) -> dict:
    plan = fileio.read_plan(args.plan)
    rho = fileio.read_density(args.density, n_particles=plan.n)
    plan = symmetrize(plan)
    rp = build_regularized(plan, rho, args.eps)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = set(checks) - {"marginal", "kinetic", "potential"}
    if unknown:
        raise ValidationError(f"unknown checks: {sorted(unknown)}")
    result = {}
    if "marginal" in checks:
        result["marginal_l1_error"] = rp.density().l1_distance(rho)
    if "kinetic" in checks:
        lhs = kinetic_of_sqrt(rp)
        rhs = kinetic_term(plan.n, h1_seminorm_sqrt(rho), rp.kernel)
        result["kinetic"] = {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs}
    if "potential" in checks:
        lhs, bound = potential_error(rp)
        result["potential"] = {"lhs": lhs, "bound": bound,
                               "satisfied": bool(lhs <= bound)}
    return {
        "command": "regularize",
        "config": {"plan": args.plan, "density": args.density, "eps": args.eps,
                   "checks": checks},
        "separation": rp.alpha if np.isfinite(rp.alpha) else "inf",
        "checks": result,
        **_kernel_flag(rp),
    }


def _cmd_quantum_check(args) -> dict:
    if args.samples < 1:
        raise ValidationError(f"samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {args.seed}")
    plan = fileio.read_plan(args.plan)
    rho = fileio.read_density(args.density, n_particles=plan.n)
    plan = symmetrize(plan)
    rp = build_regularized(plan, rho, args.eps)
    kernel = MixedStateKernel(rp)
    tr = rp.mass()
    dens_err = one_particle_density(kernel).l1_distance(rho)
    rng = np.random.default_rng(args.seed)
    # diagonal identity on sampled support configurations
    max_abs = 0.0
    max_val = 0.0
    diagonal_samples = min(args.samples, 2000)
    for _ in range(diagonal_samples):
        a = rng.integers(rp.source.n_atoms)
        config = rp.source.configs[a] + rng.uniform(-2 * rp.eps, 2 * rp.eps,
                                                    size=(rp.n, rp.source.dim))
        diag = kernel_eval(kernel, config, config)
        direct = rp.evaluate(config)
        max_abs = max(max_abs, abs(diag - direct))
        max_val = max(max_val, abs(direct))
    analytic, quadrature = kinetic_trace(kernel)
    # positivity: the least Rayleigh quotient over random tensor-grid vectors
    quotients = []
    shape = (rp.grid.n_sites,) * rp.n
    positivity_samples = min(100, args.samples)
    for _ in range(positivity_samples):
        psi = rng.standard_normal(shape)
        quotients.append(quadratic_form(kernel, psi) / float((psi * psi).sum()))
    return {
        "command": "quantum-check",
        "config": {"plan": args.plan, "density": args.density, "eps": args.eps,
                   "samples": args.samples, "seed": args.seed},
        "trace": tr,
        "density_l1_error": dens_err,
        "diagonal_max_abs_error": max_abs,
        "diagonal_max_value": max_val,
        "diagonal_samples": diagonal_samples,
        "kinetic": {"analytic": analytic, "quadrature": quadrature,
                    "rel_mismatch": abs(analytic - quadrature) / analytic},
        "positivity_min": min(quotients),
        "positivity_samples": positivity_samples,
        **_kernel_flag(rp),
    }


def _cmd_mmot(args) -> dict:
    rho = fileio.read_density(args.density, n_particles=args.n)
    problem = TransportProblem(n=args.n, marginal=rho)
    if args.solver == "lp":
        sol = solve_lp(problem)
        dual = check_dual(sol, problem, tol=args.tol)
        extra = {"duality_gap": sol.duality_gap,
                 "dual_feasible": bool(dual.ok),
                 "complementary_residual": dual.complementary_residual,
                 "iterations": sol.iterations,
                 "status": sol.status,
                 "primal_residual": sol.residual}
    else:
        sol = solve_sinkhorn(problem, beta=args.beta, tol=args.tol)
        extra = {"beta": args.beta, "iterations": sol.iterations,
                 "converged": sol.converged,
                 "residual": sol.residual}
    if args.plan_out is not None:
        fileio.write_plan(args.plan_out, sol.plan)
    report = {
        "command": "mmot",
        "config": {"density": args.density, "n": args.n, "solver": args.solver,
                   "beta": args.beta, "tol": args.tol},
        "value": sol.value,
        "marginal_residual": sol.marginal_residual,
        "separation": plan_separation(sol).alpha,
        "n_atoms": sol.plan.n_atoms,
    }
    report.update(extra)
    if rho.grid.dim != 3:
        report["dimension_note"] = (
            f"pairwise 1/|x-y| cost evaluated in dimension {rho.grid.dim}; "
            "the physical statement is for dimension 3"
        )
    return report


def _cmd_sweep(args) -> dict:
    rho = fileio.read_density(args.density, n_particles=args.n)
    etas = _parse_etas(args.etas)
    result = run_sweep(rho, args.n, etas, eps_min=args.eps_min)
    if args.csv is not None:
        fileio.write_sweep_csv(args.csv, result.records)
    return {
        "command": "sweep",
        "config": {"density": args.density, "n": args.n, "etas": args.etas,
                   "eps_min": args.eps_min},
        "e_ot": result.e_ot,
        "separation": result.alpha,
        "fitted_slope": result.fitted_slope,
        "records": [
            {"eta": r.eta, "eps_opt": r.eps_opt, "total": r.total,
             "gap": r.gap, "assembled_c": r.assembled_c,
             "scan_fallback": r.scan_fallback, "error": r.error}
            for r in result.records
        ],
    }


def _cmd_selftest(args) -> dict:
    checks = []

    def record(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    for name, grid, plan, eps_list in presets.identity_fixtures():
        rho = marginal(plan, grid)
        for eps in eps_list:
            rp = build_regularized(plan, rho, eps)
            err = rp.density().l1_distance(rho)
            record(f"marginal-pinning:{name}:eps={eps:.6g}", err <= 1e-10,
                   {"l1_error": err})
            tr = rp.mass()
            record(f"trace-one:{name}:eps={eps:.6g}", abs(tr - 1.0) <= 1e-10,
                   {"trace": tr})

    sol2 = solve_lp(TransportProblem(2, presets.two_site_density()))
    record("lp-two-site", abs(sol2.value - 1.0) <= 1e-10, {"value": sol2.value})
    sol3 = solve_lp(TransportProblem(3, presets.three_site_density()))
    record("lp-three-site", abs(sol3.value - 2.5) <= 1e-10, {"value": sol3.value})
    p16 = TransportProblem(2, presets.sixteen_site_density())
    sol16 = solve_lp(p16)
    dual16 = check_dual(sol16, p16)
    record("lp-16-site-dual", dual16.ok and sol16.duality_gap <= 1e-8,
           {"value": sol16.value, "duality_gap": sol16.duality_gap})

    ok = all(c["passed"] for c in checks)
    return {
        "command": "selftest",
        "all_passed": ok,
        "checks": checks,
    }


_COMMANDS = {
    "regularize": _cmd_regularize,
    "quantum-check": _cmd_quantum_check,
    "mmot": _cmd_mmot,
    "sweep": _cmd_sweep,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_outputs(args)
        report = _COMMANDS[args.command](args)
        _emit(report, args.out)
    except (ValidationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    if report.get("all_passed") is False or report.get("converged") is False:
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
