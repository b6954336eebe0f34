import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import llot
from llot import cli, fileio
from llot.grids import marginal, symmetrize
from llot.presets import fixture_paired_smooth, sixteen_site_density
from llot.quantum import MixedStateKernel, quadratic_form
from llot.regularizer import build_regularized


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


def test_regularize_flags_sub_grid_width(paired_files, tmp_path):
    grid, plan_path, density_path, eps = paired_files
    base = ["regularize", "--plan", str(plan_path), "--density", str(density_path)]
    resolved = run(base + ["--eps", repr(eps)], tmp_path / "resolved.json")
    assert "one_node_kernel" not in resolved
    sub = run(base + ["--eps", repr(0.5 * grid.h)], tmp_path / "sub.json")
    assert sub["one_node_kernel"] is True
    assert "P_eps = P" in sub["kernel_note"]
    assert sub["checks"]["marginal_l1_error"] <= 1e-10


@pytest.mark.parametrize("convention", ["probability", "auto"])
def test_mmot_rejects_nan_density(tmp_path, convention):
    density = tmp_path / "density.csv"
    fileio.write_density(density, sixteen_site_density())
    lines = density.read_text().splitlines()
    lines[5] = lines[5].split(",")[0] + ",nan"
    density.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report.json"
    argv = ["mmot", "--density", str(density), "--n", "2",
            "--mass-convention", convention, "--out", str(out)]
    assert cli.main(argv) == 1
    assert not out.exists()


def test_import_does_not_load_scipy_signal():
    src = str(Path(llot.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, llot; print('scipy.signal' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


@pytest.fixture(scope="module")
def sixteen_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("sixteen") / "density.csv"
    fileio.write_density(path, sixteen_site_density())
    return path


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


def test_mmot_sinkhorn_exits_2_when_not_converged(sixteen_csv, tmp_path, monkeypatch):
    from llot.mmot import solve_sinkhorn

    monkeypatch.setattr(cli, "solve_sinkhorn",
                        lambda p, **kw: solve_sinkhorn(p, max_iter=5, **kw))
    out = tmp_path / "report.json"
    argv = ["mmot", "--density", str(sixteen_csv), "--n", "2", "--solver", "sinkhorn",
            "--beta", "50", "--out", str(out)]
    assert cli.main(argv) == 2
    rep = json.loads(out.read_text())
    assert rep["converged"] is False
    assert rep["residual"] > rep["config"]["tol"]


def test_quantum_check_reports_the_least_rayleigh_quotient(paired_files, tmp_path):
    grid, plan_path, density_path, eps = paired_files
    argv = ["quantum-check", "--plan", str(plan_path), "--density", str(density_path),
            "--eps", repr(eps), "--samples", "20", "--seed", "4"]
    rep = run(argv, tmp_path / "a.json")
    run(argv, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    # replay the report's random stream: 20 diagonal samples, then 20 vectors
    plan = symmetrize(fileio.read_plan(plan_path))
    rp = build_regularized(plan, fileio.read_density(density_path, n_particles=2), eps)
    rng = np.random.default_rng(4)
    for _ in range(20):
        rng.integers(rp.source.n_atoms)
        rng.uniform(-2 * rp.eps, 2 * rp.eps, size=(rp.n, rp.source.dim))
    K = MixedStateKernel(rp)
    quotients = []
    for _ in range(20):
        psi = rng.standard_normal((grid.n_sites,) * 2)
        quotients.append(quadratic_form(K, psi) / float((psi * psi).sum()))
    assert rep["positivity_min"] > 0.0
    assert rep["positivity_min"] == min(quotients)


def test_quantum_check_rejects_zero_samples(paired_files, tmp_path):
    grid, plan_path, density_path, eps = paired_files
    out = tmp_path / "report.json"
    argv = ["quantum-check", "--plan", str(plan_path), "--density", str(density_path),
            "--eps", repr(eps), "--samples", "0", "--out", str(out)]
    assert cli.main(argv) == 1
    assert not out.exists()


def test_quantum_check_reports_the_sample_counts_that_ran(paired_files, tmp_path):
    grid, plan_path, density_path, eps = paired_files
    argv = ["quantum-check", "--plan", str(plan_path), "--density", str(density_path),
            "--eps", repr(eps), "--samples", "150"]
    rep = run(argv, tmp_path / "report.json")
    assert rep["config"]["samples"] == 150
    assert rep["diagonal_samples"] == 150
    assert rep["positivity_samples"] == 100
