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
from llot.regularizer import RegularizedPlan, build_regularized


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


def loaded_by_import(module: str) -> bool:
    """Whether a fresh ``import llot`` puts ``module`` in ``sys.modules``."""
    src = str(Path(llot.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, llot; print({module!r} in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return res.stdout.strip() == "True"


def test_import_does_not_load_scipy_signal():
    assert not loaded_by_import("scipy.signal")


def test_import_does_not_load_scipy_integrate():
    assert not loaded_by_import("scipy.integrate")


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
], ids=["not-an-object", "atom-not-an-object", "ragged-x", "non-numeric-w"])
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


@pytest.mark.parametrize("etas", ["a:b:3", "1e-3:1e-1:x", "nan:1e-1:3", "1e-3:inf:3"])
def test_sweep_rejects_bad_etas(sixteen_csv, tmp_path, capsys, etas):
    argv = ["sweep", "--density", str(sixteen_csv), "--n", "2", "--etas", etas,
            "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: etas {etas!r}")


@pytest.fixture(scope="module")
def cli_files(paired_files, sixteen_csv, tmp_path_factory):
    _, plan_path, density_path, eps = paired_files
    root = tmp_path_factory.mktemp("malformed")
    (root / "plan.json").write_text("3")
    (root / "ragged.json").write_text(
        '{"n": 2, "dim": 1, "atoms": [{"x": [[0], [1, 2]], "w": 1.0}]}')
    (root / "density.csv").write_text("x,value\n0.0,abc\n1.0,1.0\n")
    (root / "mass_2.5.csv").write_text("x,value\n0.0,1.25\n1.0,1.25\n")
    return {"plan": plan_path, "density": density_path, "eps": repr(eps),
            "sixteen": sixteen_csv, "bad_plan": root / "plan.json",
            "ragged_plan": root / "ragged.json", "bad_density": root / "density.csv",
            "mass_2_5_density": root / "mass_2.5.csv",
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


REGULARIZE = ["regularize", "--density", "{density}", "--eps", "{eps}"]
QUANTUM = ["quantum-check", "--density", "{density}", "--eps", "{eps}", "--samples", "20"]
MMOT = ["mmot", "--n", "2"]
SWEEP = ["sweep", "--density", "{sixteen}", "--n", "2"]

EXIT_CODES = [
    ("regularize-valid", REGULARIZE + ["--plan", "{plan}"], None, 0),
    ("regularize-malformed", REGULARIZE + ["--plan", "{bad_plan}"], None, 1),
    ("regularize-out-in-missing-dir", REGULARIZE + ["--plan", "{plan}"],
     out_in_missing_dir, 1),
    ("regularize-out-names-a-directory",
     REGULARIZE + ["--plan", "{plan}", "--out", "{tmp}"], None, 1),
    ("quantum-check-valid", QUANTUM + ["--plan", "{plan}"], None, 0),
    ("quantum-check-malformed", QUANTUM + ["--plan", "{ragged_plan}"], None, 1),
    ("quantum-check-negative-seed", QUANTUM + ["--plan", "{plan}", "--seed=-1"], None, 1),
    ("quantum-check-out-is-a-directory", QUANTUM + ["--plan", "{plan}"],
     out_is_a_directory, 1),
    ("mmot-valid", MMOT + ["--density", "{sixteen}"], None, 0),
    ("mmot-malformed", MMOT + ["--density", "{bad_density}"], None, 1),
    ("mmot-mass-neither-1-nor-n", MMOT + ["--density", "{mass_2_5_density}"], None, 1),
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
    ("sweep-eps-min-nan", SWEEP + ["--eps-min", "nan"], None, 1),
    ("sweep-eps-min-inf", SWEEP + ["--eps-min", "inf"], None, 1),
    ("sweep-eps-min-negative", SWEEP + ["--eps-min=-1"], None, 1),
    ("selftest-valid", ["selftest"], None, 0),
    ("selftest-failed-check", ["selftest"], fail_trace, 2),
    ("selftest-out-in-missing-dir", ["selftest"], out_in_missing_dir, 1),
    ("selftest-out-names-a-directory", ["selftest", "--out", "{tmp}"], None, 1),
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


VALID = [case for case in EXIT_CODES if case[0].endswith("-valid")]


@pytest.mark.parametrize("argv", [case[1] for case in VALID], ids=[case[0] for case in VALID])
def test_reports_are_byte_identical_across_runs(cli_files, tmp_path, argv):
    argv = [arg.format(**cli_files) for arg in argv]
    reports = []
    for name in ("a.json", "b.json"):
        assert cli.main(argv + ["--out", str(tmp_path / name)]) == 0
        reports.append((tmp_path / name).read_bytes())
    assert reports[0] == reports[1]
