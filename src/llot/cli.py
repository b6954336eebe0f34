"""Command-line entry point: llot {regularize, quantum-check, mmot, sweep}.

All reports are deterministic JSON (sorted keys, no timestamps); identical
inputs produce byte-identical output.  Exit codes: 0 success, 1 validation
error or a file that cannot be read or written, 2 numerical failure, such
as an LP whose dual certificate fails, with no report written.  A
``quantum-check`` with a failed check and a Sinkhorn ``mmot`` that did not
converge write their report and exit 2.  The LP ``mmot`` report states its
certificate: ``max_violation``, the largest dual violation, within
``dual_tolerance = DUAL_TOL * value``, or no report is written.  The two
kinetic energies of ``quantum-check``, the continuum ``kinetic_term`` (as in
``regularize``'s ``rhs``) and the state's ``Tr(-Delta_h gamma)``, get no
verdict, since they differ by O((h/eps)^2) discretization.  Output paths
are checked before any computation, so a bad one writes no file at all; an
output that is the same file as an input or another output is a bad one.
A ``--density`` file has mass 1, or mass n (the plan's or ``--n``'s) and is
divided by n.  A plan file is read as the symmetrization of its atoms, and
the ``mmot`` report's ``n_atoms`` counts the plan's orbits, one atom each.
A ``sweep`` whose feasible eps window is empty (a plan separation of at
most about 8 grid spacings) exits 1 with no report and no CSV; an eta whose
eps search alone fails is a record with its ``error``.  The report's
records and the CSV's columns are the fields of
:class:`~llot.semiclassics.SweepRecord`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .errors import NumericalError, ValidationError
from .grids import h1_seminorm_sqrt, separation
from .mmot import DUAL_TOL, TransportProblem, require_finite_positive, solve_lp, solve_sinkhorn
from .quantum import (MixedStateKernel, kernel_eval, kinetic_trace, one_particle_density,
                      rdm_max_eigenvalue)
from .regularizer import build_regularized, kinetic_of_sqrt, kinetic_term, potential_error
from .semiclassics import EPS_REL_TOL, sweep as run_sweep

# quantum-check verdicts: |trace - 1|, the density's L1 error, the diagonal
# error over the largest diagonal value, and the largest one-body eigenvalue
# above 1 may each reach this much
IDENTITY_TOL = 1e-10


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged."""
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
    p.add_argument("--samples", type=int, default=1000,
                   help="configurations drawn near the plan's atoms for the "
                        "diagonal check; every one is evaluated, in chunks")
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("mmot", help="solve the pinned-marginal transport problem")
    p.add_argument("--density", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--solver", default="lp", choices=["lp", "sinkhorn"])
    p.add_argument("--beta", type=float, default=200.0)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="Sinkhorn's marginal residual tolerance")
    p.add_argument("--plan-out", dest="plan_out", default=None,
                   help="write the optimal plan JSON here")
    common(p)

    p = sub.add_parser("sweep", help="rate study of the trial upper bound")
    p.add_argument("--density", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--etas", default="1e-4:1e-1:10",
                   help="log-spaced range lo:hi:count")
    p.add_argument("--csv", default=None, help="write per-eta records CSV here")
    common(p)
    return parser


def _emit(report: dict, out):
    text = fileio.write_report(out, report)
    if out is None:
        sys.stdout.write(text)


def _parse_etas(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"etas {spec!r}: must be lo:hi:count")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(
            f"etas {spec!r}: lo and hi must be numbers, count an integer")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"etas {spec!r}: lo and hi must be finite")
    if lo <= 0 or hi <= lo or count < 2:
        raise ValidationError(f"etas {spec!r}: range must satisfy 0 < lo < hi, count >= 2")
    return np.geomspace(lo, hi, count)


def _file_id(path: Path) -> tuple:
    """The device and inode of the file ``path`` names, or, for a file not
    yet written, those of its directory and its name."""
    try:
        st = path.stat()
        return st.st_dev, st.st_ino
    except FileNotFoundError:
        st = path.parent.stat()
        return st.st_dev, st.st_ino, path.name


def _check_outputs(args):
    """Reject an output path that names a directory, lies in a directory
    that does not exist, or names the same file as an input or another
    output: one write would replace the other file."""
    seen = {}
    for flag in ("density", "plan"):
        path = getattr(args, flag, None)
        if path is not None and Path(path).exists():
            seen[_file_id(Path(path))] = flag
    for flag in ("out", "plan_out", "csv"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        path = Path(path)
        if path.is_dir():
            raise ValidationError(f"cannot write {path}: it is a directory")
        if not path.parent.is_dir():
            raise ValidationError(f"cannot write {path}: {path.parent} is not a directory")
        other = seen.setdefault(_file_id(path), flag)
        if other != flag:
            raise ValidationError(f"cannot write {path}: --{flag.replace('_', '-')} "
                                  f"is the same file as --{other.replace('_', '-')}")


def _kernel_flag(rp) -> dict:
    """Report keys that mark a width at or below the grid spacing."""
    if not rp.one_node_kernel:
        return {}
    return {"one_node_kernel": True,
            "kernel_note": "eps <= grid spacing: one-node kernel, so P_eps = P "
                           "on this grid"}


def _cmd_regularize(args) -> dict:
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = set(checks) - {"marginal", "kinetic", "potential"}
    if unknown:
        raise ValidationError(f"unknown checks: {sorted(unknown)}")
    plan = fileio.read_plan(args.plan)
    rho = fileio.read_density(args.density, n_particles=plan.n)
    rp = build_regularized(plan, rho, args.eps)
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
    rp = build_regularized(plan, rho, args.eps)
    kernel = MixedStateKernel(rp)
    tr = rp.mass()
    dens_err = one_particle_density(kernel).l1_distance(rho)
    # diagonal identity on sampled configurations near the plan's atoms, each
    # in a random ordering, so that every ordering and its parity is reached
    rng = np.random.default_rng(args.seed)
    atoms = rng.integers(rp.source.n_atoms, size=args.samples)
    configs = rp.source.configs[atoms] + rng.uniform(
        -2 * rp.eps, 2 * rp.eps, size=(args.samples, rp.n, rp.source.dim))
    order = rng.permuted(np.tile(np.arange(rp.n), (args.samples, 1)), axis=1)
    configs = np.take_along_axis(configs, order[:, :, None], axis=1)
    direct = rp.evaluate(configs)
    max_abs = float(np.abs(kernel_eval(kernel, configs, configs) - direct).max())
    max_val = float(np.abs(direct).max())
    analytic = kinetic_term(rp.n, h1_seminorm_sqrt(rho), rp.kernel)
    on_grid = kinetic_trace(kernel)
    rdm_max = rdm_max_eigenvalue(kernel)
    checks = [
        {"name": name, "passed": bool(passed), "tolerance": IDENTITY_TOL}
        for name, passed in (
            ("trace_one", abs(tr - 1.0) <= IDENTITY_TOL),
            ("density_l1_error", dens_err <= IDENTITY_TOL),
            ("diagonal_equals_plan", max_abs <= IDENTITY_TOL * max_val),
            ("pauli", rdm_max <= 1.0 + IDENTITY_TOL),
        )
    ]
    return {
        "command": "quantum-check",
        "config": {"plan": args.plan, "density": args.density, "eps": args.eps,
                   "samples": args.samples, "seed": args.seed},
        "trace": tr,
        "density_l1_error": dens_err,
        "diagonal_max_abs_error": max_abs,
        "diagonal_max_value": max_val,
        "kinetic": {"analytic": analytic, "grid": on_grid,
                    "ratio": on_grid / analytic},
        "rdm_max_eigenvalue": rdm_max,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
        **_kernel_flag(rp),
    }


def _cmd_mmot(args) -> dict:
    require_finite_positive("tolerance", args.tol)
    rho = fileio.read_density(args.density, n_particles=args.n)
    problem = TransportProblem(n=args.n, marginal=rho)
    if args.solver == "lp":
        sol = solve_lp(problem)
        extra = {"duality_gap": sol.duality_gap,
                 "dual_feasible": True,  # solve_lp raises on a failed certificate
                 "max_violation": sol.max_violation,
                 "dual_tolerance": DUAL_TOL * sol.value,
                 "complementary_residual": sol.complementary_residual,
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
        "separation": separation(sol.plan),
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
    result = run_sweep(rho, args.n, etas)
    if args.csv is not None:
        fileio.write_sweep_csv(args.csv, result.records)
    return {
        "command": "sweep",
        "config": {"density": args.density, "n": args.n, "etas": args.etas,
                   "eps_rel_tol": EPS_REL_TOL},
        "e_ot": result.e_ot,
        "separation": result.alpha,
        "fitted_slope": result.fitted_slope,
        "eps_window": list(result.eps_window),
        "widths_smoothed": result.widths_smoothed,
        "records": [dataclasses.asdict(r) for r in result.records],
    }


_COMMANDS = {
    "regularize": _cmd_regularize,
    "quantum-check": _cmd_quantum_check,
    "mmot": _cmd_mmot,
    "sweep": _cmd_sweep,
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
