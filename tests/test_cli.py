import csv
import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import llot
from llot import cli, fileio, mmot, regularizer, semiclassics
from llot.grids import Grid, marginal
from llot.mmot import TransportProblem, solve_lp
from llot.presets import sweep_density
from llot.quantum import MixedStateKernel, rdm_max_eigenvalue
from llot.regularizer import RegularizedPlan, build_regularized, prepare_plan, smooth_plan
from instances import (fixture_paired_smooth, permutation_plan, plan_from_atoms,
                       sixteen_site_density)
from oracles import (dense_one_body_matrix, fine_paired_plan, raise_lp_duals,
                     three_cluster_density, three_cluster_plan)


@pytest.fixture(scope="module")
def paired_files(tmp_path_factory):
    name, grid, plan, eps_list = fixture_paired_smooth()
    root = tmp_path_factory.mktemp("paired")
    plan_path, density_path = root / "plan.json", root / "density.csv"
    fileio.write_plan(plan_path, plan)
    fileio.write_density(density_path, marginal(plan, grid))
    return grid, plan_path, density_path, eps_list[0]


def run(argv, out):
    assert cli.main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_quantum_check_diagonal_equals_plan(paired_files, tmp_path):
    grid, plan_path, density_path, eps = paired_files
    rep = run(["quantum-check", "--plan", str(plan_path), "--density",
               str(density_path), "--eps", repr(eps), "--samples", "200"],
              tmp_path / "quantum.json")
    assert rep["diagonal_max_value"] > 0.0
    assert rep["diagonal_max_abs_error"] <= 1e-12 * rep["diagonal_max_value"]
    assert "one_node_kernel" not in rep


def test_quantum_check_passes_at_three_particles(tmp_path):
    grid, plan, eps = three_cluster_plan()
    plan_path, density_path = tmp_path / "plan.json", tmp_path / "density.csv"
    fileio.write_plan(plan_path, plan)
    fileio.write_density(density_path, marginal(plan, grid))
    rep = run(["quantum-check", "--plan", str(plan_path), "--density", str(density_path),
               "--eps", repr(eps), "--samples", "1000"], tmp_path / "quantum.json")
    assert rep["all_passed"] is True
    assert all(c["passed"] for c in rep["checks"])
    assert rep["diagonal_max_value"] > 0.0


def test_quantum_check_samples_every_ordering(tmp_path, monkeypatch):
    # the plan holds one sorted configuration per orbit; the diagonal check
    # draws each sample in a random ordering, so both parities are exercised
    grid, plan, eps = three_cluster_plan()
    plan_path, density_path = tmp_path / "plan.json", tmp_path / "density.csv"
    fileio.write_plan(plan_path, plan)
    fileio.write_density(density_path, marginal(plan, grid))
    sampled = []
    kernel_eval = cli.kernel_eval
    monkeypatch.setattr(cli, "kernel_eval", lambda K, configs, configs_p: sampled.append(
        configs) or kernel_eval(K, configs, configs_p))
    run(["quantum-check", "--plan", str(plan_path), "--density", str(density_path),
         "--eps", repr(eps), "--samples", "300"], tmp_path / "quantum.json")
    orderings = np.argsort(np.concatenate(sampled)[:, :, 0], axis=1)
    assert len(np.unique(orderings, axis=0)) == 6


def test_regularize_flags_sub_grid_width(paired_files, tmp_path):
    grid, plan_path, density_path, eps = paired_files
    base = ["regularize", "--plan", str(plan_path), "--density", str(density_path)]
    resolved = run(base + ["--eps", repr(eps)], tmp_path / "resolved.json")
    assert "one_node_kernel" not in resolved
    sub = run(base + ["--eps", repr(0.5 * grid.h)], tmp_path / "sub.json")
    assert sub["one_node_kernel"] is True
    assert "P_eps = P" in sub["kernel_note"]
    assert sub["checks"]["marginal_l1_error"] <= 1e-10


def test_regularize_checks_three_particles_past_the_tensor_cap(tmp_path):
    rho = three_cluster_density()
    plan = solve_lp(TransportProblem(3, rho)).plan
    plan_path, density_path = tmp_path / "plan.json", tmp_path / "density.csv"
    fileio.write_plan(plan_path, plan)
    fileio.write_density(density_path, marginal(plan, rho.grid))
    rep = run(["regularize", "--plan", str(plan_path), "--density", str(density_path),
               "--eps", repr(8 * rho.grid.h), "--checks", "marginal,potential"],
              tmp_path / "regularize.json")
    assert rep["checks"]["marginal_l1_error"] <= 1e-12
    assert rep["checks"]["potential"]["satisfied"] is True


def test_regularize_reports_agree_under_one_and_two_blas_threads(tmp_path):
    """The smoothing's box-table products run through BLAS: on the 1024-node
    paired plan, a fresh interpreter's report is the same bytes whether
    OpenBLAS may use one thread or two."""
    rp = fine_paired_plan()
    plan_path, density_path = tmp_path / "plan.json", tmp_path / "density.csv"
    fileio.write_plan(plan_path, rp.source)
    fileio.write_density(density_path, rp.rho)
    src = str(Path(llot.__file__).resolve().parent.parent)
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.json"
        argv = ["regularize", "--plan", str(plan_path), "--density", str(density_path),
                "--eps", repr(rp.eps), "--checks", "marginal,potential", "--out", str(out)]
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "llot.cli"] + argv, env=env, check=True)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_mmot_rejects_nan_density(tmp_path):
    density = tmp_path / "density.csv"
    fileio.write_density(density, sixteen_site_density())
    lines = density.read_text().splitlines()
    lines[5] = lines[5].split(",")[0] + ",nan"
    density.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report.json"
    argv = ["mmot", "--density", str(density), "--n", "2", "--out", str(out)]
    assert cli.main(argv) == 1
    assert not out.exists()


@pytest.fixture(scope="module")
def sixteen_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("sixteen") / "density.csv"
    fileio.write_density(path, sixteen_site_density())
    return path


def modules_after(code: str) -> list:
    """The names in ``sys.modules`` after a fresh interpreter runs ``code``."""
    src = str(Path(llot.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code += "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def scipy_modules(names: list) -> list:
    return [m for m in names if m == "scipy" or m.startswith("scipy.")]


def loaded_by_import(module: str) -> bool:
    """Whether a fresh ``import llot`` puts ``module`` in ``sys.modules``."""
    return module in modules_after("import llot")


def test_import_does_not_load_scipy_signal():
    assert not loaded_by_import("scipy.signal")


def test_import_does_not_load_scipy_integrate():
    assert not loaded_by_import("scipy.integrate")


# the modules a bare ``import llot`` loads: the import that setup_s times
IMPORTED_BY_LLOT = {"llot.errors", "llot.grids", "llot.mollifier", "llot.regularizer",
                    "llot.quantum", "llot.mmot", "llot.semiclassics"}


@pytest.mark.parametrize("module", ["llot", "llot.cli"])
def test_import_loads_no_scipy(module):
    names = modules_after(f"import {module}")
    assert scipy_modules(names) == []
    extra = {"llot": set(), "llot.cli": {"llot.cli", "llot.fileio"}}[module]
    assert {m for m in names if m.startswith("llot.")} == IMPORTED_BY_LLOT | extra


def scipy_after_command(argv: list) -> list:
    """The ``scipy`` modules loaded by a fresh interpreter that imports
    ``llot.cli`` and runs ``argv``, which must exit 0."""
    code = f"from llot import cli; assert cli.main({argv!r}) == 0"
    return scipy_modules(modules_after(code))


def test_commands_without_an_lp_load_no_scipy(paired_files, sixteen_csv, tmp_path):
    grid, plan_path, density_path, eps = paired_files
    inputs = ["--plan", str(plan_path), "--density", str(density_path), "--eps", repr(eps)]
    for argv in (["regularize"] + inputs,
                 ["quantum-check"] + inputs + ["--samples", "20"],
                 ["mmot", "--density", str(sixteen_csv), "--n", "2",
                  "--solver", "sinkhorn", "--beta", "50"]):
        out = tmp_path / f"{argv[0]}.json"
        assert scipy_after_command(argv + ["--out", str(out)]) == [], argv[0]


def test_an_lp_solve_loads_scipy_optimize(sixteen_csv, tmp_path):
    argv = ["mmot", "--density", str(sixteen_csv), "--n", "2", "--solver", "lp",
            "--out", str(tmp_path / "lp.json")]
    assert "scipy.optimize" in scipy_after_command(argv)


def test_mmot_reports_solver_progress(sixteen_csv, tmp_path):
    base = ["mmot", "--density", str(sixteen_csv), "--n", "2"]
    lp = run(base, tmp_path / "lp.json")
    assert lp["iterations"] > 0 and "converged" not in lp
    sk = run(base + ["--solver", "sinkhorn", "--beta", "50"], tmp_path / "sk.json")
    assert sk["converged"] is True and sk["iterations"] > 0


def test_mmot_reports_solver_status_and_residuals(sixteen_csv, tmp_path):
    base = ["mmot", "--density", str(sixteen_csv), "--n", "2"]
    lp = run(base, tmp_path / "lp.json")
    assert lp["status"] == 0
    assert 0.0 <= lp["primal_residual"] <= 1e-10
    sk = run(base + ["--solver", "sinkhorn", "--beta", "50", "--tol", "1e-8"],
             tmp_path / "sk.json")
    assert "status" not in sk and "primal_residual" not in sk
    assert 0.0 <= sk["residual"] <= 1e-8 and sk["converged"] is True


def test_threads_option_is_gone(sixteen_csv, tmp_path):
    out = tmp_path / "report.json"
    argv = ["mmot", "--density", str(sixteen_csv), "--n", "2", "--threads", "2",
            "--out", str(out)]
    assert cli.main(argv) == 1
    assert not out.exists()


def cap_sinkhorn(monkeypatch):
    from llot.mmot import solve_sinkhorn

    monkeypatch.setattr(cli, "solve_sinkhorn",
                        lambda p, **kw: solve_sinkhorn(p, max_iter=5, **kw))


def test_mmot_sinkhorn_exits_2_when_not_converged(sixteen_csv, tmp_path, monkeypatch):
    cap_sinkhorn(monkeypatch)
    out = tmp_path / "report.json"
    argv = ["mmot", "--density", str(sixteen_csv), "--n", "2", "--solver", "sinkhorn",
            "--beta", "50", "--out", str(out)]
    assert cli.main(argv) == 2
    rep = json.loads(out.read_text())
    assert rep["converged"] is False
    assert rep["residual"] > rep["config"]["tol"]


def test_mmot_exits_2_on_a_failed_dual_certificate(sixteen_csv, tmp_path, monkeypatch,
                                                   capsys):
    raise_lp_duals(monkeypatch)
    out = tmp_path / "report.json"
    argv = ["mmot", "--density", str(sixteen_csv), "--n", "2", "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not out.exists()


def test_mmot_lp_report_states_its_certificate_tolerance(sixteen_csv, tmp_path):
    rep = run(["mmot", "--density", str(sixteen_csv), "--n", "2"], tmp_path / "report.json")
    assert rep["dual_tolerance"] == mmot.DUAL_TOL * rep["value"]
    assert rep["max_violation"] <= rep["dual_tolerance"]
    assert rep["dual_feasible"] is True


@pytest.fixture(scope="module")
def bench_workloads():
    """The benchmark's workload module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("workload", ["rate-sweep", "regularize-fine", "transport"])
def test_reports_hold_every_key_the_benchmark_reads(tmp_path, bench_workloads, workload):
    # a report key the benchmark reads and the program no longer writes makes
    # the benchmark's checks raise, and fails every check of the workload
    workloads = bench_workloads
    inputs = workloads.WORKLOADS[workload][0](1, tmp_path)
    for call in inputs.calls:
        assert cli.main(call) == 0
    reports = [json.loads(Path(r).read_text()) for r in inputs.reports]
    _, error = workloads.run_checks(workload, reports, inputs, workloads.load_reference())
    assert error is None


def test_quantum_check_reports_the_largest_rdm_eigenvalue(paired_files, tmp_path):
    grid, plan_path, density_path, eps = paired_files
    argv = ["quantum-check", "--plan", str(plan_path), "--density", str(density_path),
            "--eps", repr(eps), "--samples", "20", "--seed", "4"]
    rep = run(argv, tmp_path / "a.json")
    run(argv, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    plan = fileio.read_plan(plan_path)
    rp = build_regularized(plan, fileio.read_density(density_path, n_particles=2), eps)
    K = MixedStateKernel(rp)
    lam = rdm_max_eigenvalue(K)
    assert rep["rdm_max_eigenvalue"] == lam
    gamma = dense_one_body_matrix(K)
    support = np.flatnonzero(rp.rho.values)
    assert abs(lam - np.linalg.eigvalsh(gamma[np.ix_(support, support)] * grid.h)[-1]) \
        <= 1e-12 * lam
    assert 0.0 < lam < 1.0
    assert rep["all_passed"] is True
    assert [(c["name"], c["passed"], c["tolerance"]) for c in rep["checks"]] == [
        (name, True, cli.IDENTITY_TOL)
        for name in ("trace_one", "density_l1_error", "diagonal_equals_plan", "pauli")]
    assert set(rep["kinetic"]) == {"analytic", "grid", "ratio"}


def test_quantum_check_fails_the_pauli_verdict_of_overlapping_orbitals(
        tmp_path, monkeypatch):
    # two particles two nodes apart, smoothed past the eps < alpha/4 guard
    grid = Grid.line(0.0, 1 / 16, 32)
    plan = permutation_plan([16 * grid.h, 18 * grid.h])
    plan_path, density_path = tmp_path / "plan.json", tmp_path / "density.csv"
    fileio.write_plan(plan_path, plan)
    fileio.write_density(density_path, marginal(plan, grid))
    monkeypatch.setattr(cli, "build_regularized", lambda plan, rho, eps: smooth_plan(
        dataclasses.replace(prepare_plan(plan, rho), alpha=math.inf), eps))
    out = tmp_path / "report.json"
    argv = ["quantum-check", "--plan", str(plan_path), "--density", str(density_path),
            "--eps", "0.2", "--samples", "20", "--out", str(out)]
    assert cli.main(argv) == 2
    rep = json.loads(out.read_text())
    assert rep["all_passed"] is False
    assert rep["rdm_max_eigenvalue"] > 1.0 + cli.IDENTITY_TOL
    assert {c["name"]: c["passed"] for c in rep["checks"]}["pauli"] is False


def test_regularize_rejects_unknown_checks_before_reading_input(paired_files, tmp_path,
                                                                  capsys):
    grid, _, density_path, eps = paired_files
    out = tmp_path / "report.json"
    argv = ["regularize", "--plan", str(tmp_path / "missing.json"), "--density",
            str(density_path), "--eps", repr(eps), "--checks", "marginal,bogus",
            "--out", str(out)]
    assert cli.main(argv) == 1
    assert "unknown checks: ['bogus']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["regularize", "--checks", "kinetic"],
                                     ["regularize", "--checks", "potential"],
                                     ["quantum-check", "--samples", "5"]])
def test_a_grid_of_two_nodes_is_rejected(tmp_path, capsys, command):
    """The kinetic and potential checks take second-order differences, which
    read 3 nodes per axis: one particle on atoms at 0 and 1 with h = 1 is a
    clean exit 1."""
    grid = Grid.line(0.0, 1.0, 2)
    plan = plan_from_atoms([((0.0,), 0.5), ((1.0,), 0.5)], dim=1)
    plan_path, density_path = tmp_path / "plan.json", tmp_path / "density.csv"
    fileio.write_plan(plan_path, plan)
    fileio.write_density(density_path, marginal(plan, grid))
    out = tmp_path / "report.json"
    argv = command + ["--plan", str(plan_path), "--density", str(density_path),
                      "--eps", "0.5", "--out", str(out)]
    assert cli.main(argv) == 1
    assert "at least 3 nodes per axis" in capsys.readouterr().err
    assert not out.exists()


def test_quantum_check_rejects_zero_samples(paired_files, tmp_path):
    grid, plan_path, density_path, eps = paired_files
    out = tmp_path / "report.json"
    argv = ["quantum-check", "--plan", str(plan_path), "--density", str(density_path),
            "--eps", repr(eps), "--samples", "0", "--out", str(out)]
    assert cli.main(argv) == 1
    assert not out.exists()


def test_quantum_check_reports_the_sample_counts_that_ran(paired_files, tmp_path, monkeypatch):
    grid, plan_path, density_path, eps = paired_files
    rows = []
    kernel_eval = cli.kernel_eval

    def counted(K, configs, configs_p):
        rows.append(len(configs))
        return kernel_eval(K, configs, configs_p)

    monkeypatch.setattr(cli, "kernel_eval", counted)
    argv = ["quantum-check", "--plan", str(plan_path), "--density", str(density_path),
            "--eps", repr(eps), "--samples", "2500"]
    rep = run(argv, tmp_path / "report.json")
    assert rep["config"]["samples"] == 2500
    assert sum(rows) == 2500


@pytest.mark.parametrize("extra", [
    ["--solver", "sinkhorn", "--beta", "nan"],
    ["--solver", "sinkhorn", "--beta", "inf"],
    ["--solver", "sinkhorn", "--beta", "0"],
    ["--solver", "sinkhorn", "--beta=-1"],
    ["--solver", "sinkhorn", "--tol", "nan"],
    ["--solver", "sinkhorn", "--tol", "0"],
    ["--tol", "nan"],
    ["--tol", "0"],
], ids=["beta-nan", "beta-inf", "beta-0", "beta-neg", "tol-nan", "tol-0",
        "lp-tol-nan", "lp-tol-0"])
def test_mmot_rejects_a_bad_beta_or_tol(sixteen_csv, tmp_path, capsys, extra):
    out = tmp_path / "report.json"
    argv = ["mmot", "--density", str(sixteen_csv), "--n", "2", *extra, "--out", str(out)]
    assert cli.main(argv) == 1
    assert "must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, where", [
    ("3", "top level"),
    ('{"n": 2, "dim": 1, "atoms": [{"x": [[0.0], [1.0]], "w": 1.0}, 3]}', "atom 1"),
    ('{"n": 2, "dim": 1, "atoms": [{"x": [[0.0], [1.0]], "w": 1.0},'
     ' {"x": [[0], [1, 2]], "w": 1.0}]}', "atom 1"),
    ('{"n": 2, "dim": 1, "atoms": [{"x": [[0.0], [1.0]], "w": 1.0},'
     ' {"x": [[1.0], [0.0]], "w": "abc"}]}', "atom 1"),
    ('{"n": 2, "dim": 1, "atoms": [{"x": [[0.0], [1.0]], "w": true}]}', "atom 0"),
    ('{"n": 2, "dim": 1, "atoms": [{"x": [[0.0], [1.0]], "w": "1.0"}]}', "atom 0"),
    ('{"n": 2, "dim": 1, "atoms": [{"x": [["0.0"], ["1.0"]], "w": 1.0}]}', "atom 0"),
    ('{"n": 2, "dim": 1, "atoms": [{"x": [[false], [true]], "w": 1.0}]}', "atom 0"),
    ('{"n": 2, "dim": 1, "atoms": [{"x": [[0], [1]], "w": 1%s}]}' % ("0" * 400), "atom 0"),
    ('{"n": 2, "dim": "abc", "atoms": []}', "'dim' must be an integer"),
    ('{"n": 2, "dim": 1e999, "atoms": []}', "'dim' must be an integer"),
    ('{"n": 2, "dim": 1.0, "atoms": [{"x": [[0.0], [1.0]], "w": 1.0}]}',
     "'dim' must be an integer"),
    ('{"n": true, "dim": 1, "atoms": [{"x": [[0.0]], "w": 1.0}]}',
     "'n' must be an integer"),
    ('{"n": "2", "dim": 1, "atoms": [{"x": [[0.0], [1.0]], "w": 1.0}]}',
     "'n' must be an integer"),
], ids=["not-an-object", "atom-not-an-object", "ragged-x", "non-numeric-w", "bool-w",
        "numeric-string-w", "numeric-string-x", "bool-x", "overflowing-int-w", "string-dim",
        "overflowing-dim", "float-dim", "bool-n", "string-n"])
def test_regularize_rejects_a_malformed_plan(paired_files, tmp_path, capsys, text, where):
    grid, _, density_path, eps = paired_files
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(text)
    argv = ["regularize", "--plan", str(plan_path), "--density", str(density_path),
            "--eps", repr(eps), "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {plan_path}: {where}")
    assert "Traceback" not in err


@pytest.mark.parametrize("etas", ["a:b:3", "1e-3:1e-1:x", "nan:1e-1:3", "1e-3:inf:3",
                                  "1e-3:1e-1", "1e-1:1e-3:3", "0:1e-1:3", "1e-3:1e-1:1"])
def test_sweep_rejects_bad_etas(sixteen_csv, tmp_path, capsys, etas):
    argv = ["sweep", "--density", str(sixteen_csv), "--n", "2", "--etas", etas,
            "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: etas {etas!r}")


def test_sweep_report_states_the_eps_precision(tmp_path, monkeypatch):
    # 1e-3, 1e-2 and 1e-1 are edge-bound on the preset, settled by one probe
    # each; 2.15e-3 is interior, so the bounded Brent search runs for it
    from scipy import optimize

    density = tmp_path / "density.csv"
    fileio.write_density(density, sweep_density())
    searches, widths = [], []
    minimize_scalar = optimize.minimize_scalar
    smooth = semiclassics.smooth_widths

    def recording(f, bounds, **kwargs):
        searches.append((bounds[0], kwargs["options"]["xatol"]))
        return minimize_scalar(f, bounds=bounds, **kwargs)

    def counting_smooth(prep, eps):
        widths.extend(np.ravel(eps).tolist())
        return smooth(prep, eps)

    monkeypatch.setattr(optimize, "minimize_scalar", recording)
    monkeypatch.setattr(semiclassics, "smooth_widths", counting_smooth)
    rep = run(["sweep", "--density", str(density), "--n", "2", "--etas", "1e-3:1e-1:7"],
              tmp_path / "sweep.json")
    assert rep["config"]["eps_rel_tol"] == semiclassics.EPS_REL_TOL
    tol = rep["config"]["eps_rel_tol"]
    # the search's absolute tolerance is eps_rel_tol at its bracket's lower end
    assert searches and all(xatol == tol * a for a, xatol in searches)
    lo, hi = rep["eps_window"]
    records = rep["records"]          # etas 1e-3 * 10^(k/3), k = 0..6
    edge, interior = [records[k] for k in (0, 3, 6)], records[1]
    assert [r["eps_edge"] for r in edge] == ["lower", "upper", "upper"]
    assert [r["eps_opt"] for r in edge] == [lo, hi, hi]
    assert interior["eps_edge"] is None
    assert lo < interior["eps_opt"] < hi
    # each edge's probe sits eps_rel_tol relative inside the window
    assert {lo * (1.0 + tol), hi * (1.0 - tol)} <= set(widths)


def test_sweep_report_counts_the_widths_smoothed(tmp_path):
    # the preset etas: 32 scan widths, two edge probes and searches of 9
    # widths for each interior record (the second took 10 when the smoothing
    # summed by slice-adds, since Brent's path follows the totals' rounding)
    density = tmp_path / "density.csv"
    fileio.write_density(density, sweep_density())
    argv = ["sweep", "--density", str(density), "--n", "2", "--etas", "1e-4:1e-1:10"]
    rep = run(argv, tmp_path / "sweep.json")
    assert rep["widths_smoothed"] == 52
    assert len(rep["records"]) == 10 and all(r["error"] is None for r in rep["records"])
    again = tmp_path / "again.json"
    run(argv, again)
    assert again.read_bytes() == (tmp_path / "sweep.json").read_bytes()


def test_sweep_report_states_the_assembled_margin(tmp_path):
    # assembled_c takes the Coulomb sups at pairwise distances of at least
    # alpha - 4 eps_opt; at an upper-edge optimum that is alpha * 1e-3
    density = tmp_path / "density.csv"
    fileio.write_density(density, sweep_density())
    rep = run(["sweep", "--density", str(density), "--n", "2"], tmp_path / "sweep.json")
    alpha = rep["separation"]
    for r in rep["records"]:
        assert r["assembled_margin"] == alpha - 4.0 * r["eps_opt"]
        if r["eps_edge"] == "upper":
            assert r["assembled_margin"] == pytest.approx(alpha * 1e-3, rel=1e-9)
            assert r["assembled_c"] > 30.0
        else:
            assert r["assembled_margin"] > 0.2 * alpha
    assert {r["eps_edge"] for r in rep["records"]} == {"lower", None, "upper"}


def test_sweep_report_and_csv_carry_the_record_fields(tmp_path):
    # SweepRecord is the one list of a record's fields: the report's records
    # and the CSV's columns both read it
    density, records_csv = tmp_path / "density.csv", tmp_path / "records.csv"
    fileio.write_density(density, sweep_density())
    rep = run(["sweep", "--density", str(density), "--n", "2", "--csv", str(records_csv)],
              tmp_path / "sweep.json")
    names = [f.name for f in dataclasses.fields(semiclassics.SweepRecord)]
    with open(records_csv, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == names
    assert all(list(r) == sorted(names) for r in rep["records"])
    assert len(rows) == len(rep["records"])
    for row, r in zip(rows, rep["records"]):
        assert row == ["" if r[k] is None else r[k] if isinstance(r[k], str) else repr(r[k])
                       for k in names]


CLOBBERS = [
    ("sweep-csv-is-the-out",
     ["sweep", "--density", "{sixteen}", "--n", "2", "--csv", "{tmp}/r.json",
      "--out", "{tmp}/r.json"], "--csv is the same file as --out"),
    ("sweep-csv-is-the-density-by-another-path",
     ["sweep", "--density", "{sixteen}", "--n", "2", "--csv", "{tmp}/sub/../sixteen.csv"],
     "--csv is the same file as --density"),
    ("mmot-out-is-the-density",
     ["mmot", "--density", "{sixteen}", "--n", "2", "--out", "{sixteen}"],
     "--out is the same file as --density"),
    ("mmot-plan-out-is-the-out",
     ["mmot", "--density", "{sixteen}", "--n", "2", "--plan-out", "{tmp}/r.json",
      "--out", "{tmp}/r.json"], "--plan-out is the same file as --out"),
    ("mmot-plan-out-is-a-link-to-the-density",
     ["mmot", "--density", "{sixteen}", "--n", "2", "--plan-out", "{tmp}/link.csv"],
     "--plan-out is the same file as --density"),
    ("mmot-out-is-a-hard-link-to-the-density",
     ["mmot", "--density", "{sixteen}", "--n", "2", "--out", "{tmp}/hard.csv"],
     "--out is the same file as --density"),
    ("regularize-out-is-the-plan",
     ["regularize", "--plan", "{plan}", "--density", "{density}", "--eps", "0.1",
      "--out", "{plan}"], "--out is the same file as --plan"),
    ("quantum-check-out-is-the-density",
     ["quantum-check", "--plan", "{plan}", "--density", "{density}", "--eps", "0.1",
      "--out", "{density}"], "--out is the same file as --density"),
]


@pytest.mark.parametrize("argv, message", [case[1:] for case in CLOBBERS],
                         ids=[case[0] for case in CLOBBERS])
def test_an_output_that_is_an_input_or_another_output_is_rejected(
        paired_files, sixteen_csv, tmp_path, capsys, argv, message):
    _, plan_path, density_path, _ = paired_files
    for src, name in ((sixteen_csv, "sixteen.csv"), (plan_path, "plan.json"),
                      (density_path, "density.csv")):
        (tmp_path / name).write_bytes(Path(src).read_bytes())
    (tmp_path / "r.json").write_text("an earlier report\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.csv").symlink_to(tmp_path / "sixteen.csv")
    os.link(tmp_path / "sixteen.csv", tmp_path / "hard.csv")

    def files():
        return {p: (p.read_bytes(), p.stat().st_mtime_ns)
                for p in sorted(tmp_path.rglob("*")) if p.is_file()}

    before = files()
    argv = [arg.format(tmp=tmp_path, sixteen=tmp_path / "sixteen.csv",
                       plan=tmp_path / "plan.json", density=tmp_path / "density.csv")
            for arg in argv]
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err
    assert files() == before


@pytest.fixture(scope="module")
def cli_files(paired_files, sixteen_csv, tmp_path_factory):
    _, plan_path, density_path, eps = paired_files
    root = tmp_path_factory.mktemp("malformed")
    (root / "plan.json").write_text("3")
    (root / "ragged.json").write_text(
        '{"n": 2, "dim": 1, "atoms": [{"x": [[0], [1, 2]], "w": 1.0}]}')
    (root / "plan_2d.json").write_text(
        '{"n": 2, "dim": 2, "atoms": [{"x": [[0.3, 0.3], [1.0, 1.0]], "w": 1.0}]}')
    (root / "plan_0d.json").write_text(
        '{"n": 2, "dim": 0, "atoms": [{"x": [[], []], "w": 1.0}]}')
    (root / "density.csv").write_text("x,value\n0.0,abc\n1.0,1.0\n")
    (root / "mass_2.5.csv").write_text("x,value\n0.0,1.25\n1.0,1.25\n")
    # the byte 0xff, which no UTF-8 text holds
    (root / "latin1.json").write_bytes(b'{"n": 2, "dim": 1, "atoms": "\xff"}')
    (root / "latin1.csv").write_bytes(b"x,value\n0.0,\xff\n1.0,1.0\n")
    fileio.write_density(root / "preset.csv", sweep_density())
    return {"plan": plan_path, "density": density_path, "eps": repr(eps),
            "sixteen": sixteen_csv, "preset": root / "preset.csv",
            "bad_plan": root / "plan.json",
            "ragged_plan": root / "ragged.json", "plan_2d": root / "plan_2d.json",
            "plan_0d": root / "plan_0d.json", "bad_density": root / "density.csv",
            "mass_2_5_density": root / "mass_2.5.csv",
            "latin1_plan": root / "latin1.json", "latin1_density": root / "latin1.csv",
            "missing_dir": root / "missing" / "plan.json"}


def fail_trace(monkeypatch):
    monkeypatch.setattr(RegularizedPlan, "mass", lambda rp: 0.5)


def out_in_missing_dir(monkeypatch):
    """The report goes to a directory that does not exist."""
    write = fileio.write_report
    monkeypatch.setattr(fileio, "write_report", lambda path, report: write(
        Path(path).parent / "missing" / "report.json", report))


def out_is_a_directory(monkeypatch):
    """The report path names an existing directory."""
    write = fileio.write_report
    monkeypatch.setattr(fileio, "write_report",
                        lambda path, report: write(Path(path).parent, report))


def floor_one_scan_width(monkeypatch):
    """Of the preset's 32 scan widths, only the 25th, the first of the last
    stacked pass, has rho * kappa below this floor on a window."""
    monkeypatch.setattr(regularizer, "DENOM_FLOOR", 1e-100)


REGULARIZE = ["regularize", "--density", "{density}", "--eps", "{eps}"]
QUANTUM = ["quantum-check", "--density", "{density}", "--eps", "{eps}", "--samples", "20"]
MMOT = ["mmot", "--n", "2"]
SWEEP = ["sweep", "--density", "{preset}", "--n", "2"]

EXIT_CODES = [
    ("regularize-valid", REGULARIZE + ["--plan", "{plan}"], None, 0),
    ("regularize-malformed", REGULARIZE + ["--plan", "{bad_plan}"], None, 1),
    ("regularize-out-in-missing-dir", REGULARIZE + ["--plan", "{plan}"],
     out_in_missing_dir, 1),
    ("regularize-out-names-a-directory",
     REGULARIZE + ["--plan", "{plan}", "--out", "{tmp}"], None, 1),
    ("regularize-plan-of-another-dimension", REGULARIZE + ["--plan", "{plan_2d}"], None, 1),
    ("regularize-plan-of-dimension-0", REGULARIZE + ["--plan", "{plan_0d}"], None, 1),
    ("regularize-plan-not-utf8", REGULARIZE + ["--plan", "{latin1_plan}"], None, 1),
    ("quantum-check-valid", QUANTUM + ["--plan", "{plan}"], None, 0),
    ("quantum-check-malformed", QUANTUM + ["--plan", "{ragged_plan}"], None, 1),
    ("quantum-check-plan-of-another-dimension", QUANTUM + ["--plan", "{plan_2d}"],
     None, 1),
    ("quantum-check-negative-seed", QUANTUM + ["--plan", "{plan}", "--seed=-1"], None, 1),
    ("quantum-check-out-is-a-directory", QUANTUM + ["--plan", "{plan}"],
     out_is_a_directory, 1),
    ("quantum-check-failed-check", QUANTUM + ["--plan", "{plan}"], fail_trace, 2),
    ("mmot-valid", MMOT + ["--density", "{sixteen}"], None, 0),
    ("mmot-malformed", MMOT + ["--density", "{bad_density}"], None, 1),
    ("mmot-mass-neither-1-nor-n", MMOT + ["--density", "{mass_2_5_density}"], None, 1),
    ("mmot-density-not-utf8", MMOT + ["--density", "{latin1_density}"], None, 1),
    ("mmot-out-is-a-directory", MMOT + ["--density", "{sixteen}"], out_is_a_directory, 1),
    ("mmot-plan-out-in-missing-dir",
     MMOT + ["--density", "{sixteen}", "--plan-out", "{missing_dir}"], None, 1),
    ("mmot-plan-out-names-a-directory",
     MMOT + ["--density", "{sixteen}", "--plan-out", "{tmp}"], None, 1),
    ("mmot-out-in-missing-dir-writes-no-plan",
     MMOT + ["--density", "{sixteen}", "--plan-out", "{tmp}/plan.json",
             "--out", "{tmp}/missing/report.json"], None, 1),
    ("mmot-sinkhorn-not-converged",
     MMOT + ["--density", "{sixteen}", "--solver", "sinkhorn", "--beta", "50"],
     cap_sinkhorn, 2),
    ("sweep-valid", SWEEP + ["--etas", "1e-3:1e-1:3"], None, 0),
    ("sweep-malformed", SWEEP + ["--etas", "a:b:3"], None, 1),
    ("sweep-out-in-missing-dir", SWEEP + ["--etas", "1e-3:1e-1:3"], out_in_missing_dir, 1),
    ("sweep-csv-in-missing-dir",
     SWEEP + ["--etas", "1e-3:1e-1:3", "--csv", "{tmp}/missing/records.csv"], None, 1),
    ("sweep-out-in-missing-dir-writes-no-csv",
     SWEEP + ["--etas", "1e-3:1e-1:3", "--csv", "{tmp}/records.csv",
              "--out", "{tmp}/missing/report.json"], None, 1),
    ("sweep-scan-width-under-denominator-floor",
     SWEEP + ["--etas", "1e-3:1e-1:3", "--csv", "{tmp}/records.csv"], floor_one_scan_width, 1),
    # the 16-site plan's separation is 7h: no eta can run
    ("sweep-empty-window", ["sweep", "--density", "{sixteen}", "--n", "2", "--etas",
                            "1e-3:1e-1:3", "--csv", "{tmp}/records.csv"], None, 1),
]


@pytest.mark.parametrize("argv, patch, code", [case[1:] for case in EXIT_CODES],
                         ids=[case[0] for case in EXIT_CODES])
def test_exit_codes(cli_files, tmp_path, monkeypatch, capsys, argv, patch, code):
    if patch is not None:
        patch(monkeypatch)
    out = tmp_path / "report.json"
    argv = [arg.format(tmp=tmp_path, **cli_files) for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(out)]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    if code == 1:
        assert err.startswith("error: ")
        # no report, and no side file from --plan-out or --csv
        assert list(tmp_path.iterdir()) == []
    else:
        assert err == ""
        assert out.exists()


@pytest.mark.parametrize("argv", [["selftest"], SWEEP + ["--eps-min", "1"]],
                         ids=["unknown-command", "unknown-option"])
def test_an_unknown_command_or_option_is_a_usage_error(cli_files, tmp_path, capsys, argv):
    argv = [arg.format(**cli_files) for arg in argv] + ["--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: llot") and "\nerror: " in err
    assert list(tmp_path.iterdir()) == []


VALID = [case for case in EXIT_CODES if case[0].endswith("-valid")]


@pytest.mark.parametrize("argv", [case[1] for case in VALID], ids=[case[0] for case in VALID])
def test_reports_are_byte_identical_across_runs(cli_files, tmp_path, argv):
    argv = [arg.format(**cli_files) for arg in argv]
    reports = []
    for name in ("a.json", "b.json"):
        assert cli.main(argv + ["--out", str(tmp_path / name)]) == 0
        reports.append((tmp_path / name).read_bytes())
    assert reports[0] == reports[1]


def test_the_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()
