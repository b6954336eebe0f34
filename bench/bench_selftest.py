"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest -q bench/bench_selftest.py

The file name keeps the repository's own test run from collecting it.  The
end-to-end tests start ``bench/run.py`` with one-second runs (about 25 s in
all); the rest call the runner and the tracer in process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import report  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    run.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        yield Path(tmp)


def _bench(trace: int, cwd=run.ROOT, script=Path("bench/run.py")):
    return subprocess.run(
        [sys.executable, str(script), "--workload", "rate-sweep", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_with_its_unit(trace, key):
    proc = _bench(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_fails_without_program_sources(workdir):
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(run.HERE, workdir / "bench", ignore=shutil.ignore_patterns("out"))
    proc = _bench(0, cwd=workdir)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_and_untraced_ops_write_the_same_report(workdir):
    runner = run.Runner("rate-sweep", 2, workdir)
    runner.op()
    plain = runner.inputs.reports[0].read_bytes()
    tracer = tracing.Tracer()
    runner.op(tracer)
    assert runner.inputs.reports[0].read_bytes() == plain
    assert tracer.check_nesting()
    (op,) = tracer.per_op()
    # the seed counts of ROADMAP item 2: one trial energy per build
    assert op["semiclassics.trial_energy"]["calls"] == 582
    assert op["regularizer.build_regularized"]["calls"] == 582
    assert runner.counts() == (8, 0)


def test_solver_iterations_repeat_across_runs(workdir):
    counts = []
    for seed in (1, 2):
        (workdir / str(seed)).mkdir()
        runner = run.Runner("transport", seed, workdir / str(seed))
        tracer = tracing.Tracer()
        runner.op(tracer)
        metrics = tracing.layer_metrics(tracer.per_op())
        counts.append((metrics["mmot.solve_lp.iterations"],
                       metrics["mmot.solve_sinkhorn.iterations"]))
    assert counts[0] == counts[1]
    assert counts[0][0] > 0


def test_corrupted_input_raises_failed_frac(workdir):
    runner = run.Runner("rate-sweep", 3, workdir)
    density = runner.inputs.context["density"]
    rows = density.read_text().splitlines()
    # move the mass of one node to an empty node: still a valid density,
    # but no longer the preset the reference values belong to
    header, body = rows[0], [r.split(",") for r in rows[1:]]
    full = next(i for i, r in enumerate(body) if float(r[1]) > 0)
    body[full][1], body[0][1] = body[0][1], body[full][1]
    density.write_text("\n".join([header] + [",".join(r) for r in body]) + "\n")
    runner.op()
    attempted, failed = runner.counts()
    assert attempted == 4 and failed >= 1
    assert runner.checks["e_ot_vs_reference"]["failed"] == 1


def test_quantum_check_still_reports_the_known_diagonal_failure(workdir):
    # not a BENCHMARK.json workload, but its checks still run by hand
    assert "quantum-check" not in {w["name"] for w in SPEC["workloads"]}
    runner = run.Runner("quantum-check", 4, workdir)
    runner.op()
    assert runner.counts() == (5, 1)
    assert runner.checks["diagonal_equals_plan"]["failed"] == 1


def test_unreadable_report_fails_every_check():
    results, error = workloads.run_checks("transport", None, None, {})
    assert error and not any(results.values())
    assert list(results) == workloads.CHECK_NAMES["transport"]


def test_tracer_wraps_every_binding_and_restores_it():
    import llot
    from llot import cli, grids, mmot, regularizer, semiclassics

    original = regularizer.build_regularized
    original_lp = mmot.solve_lp
    original_index_of = grids.Grid.__dict__["index_of"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bindings = set(tracer.bindings())
        for owner in ("llot", "llot.regularizer", "llot.semiclassics", "llot.cli"):
            assert (owner, "build_regularized") in bindings
        assert ("llot.mmot", "solve_standard_form") in bindings
        assert semiclassics.build_regularized is cli.build_regularized
        assert semiclassics.build_regularized is not original
        grid = grids.Grid.line(0.0, 1.0, 4)
        tracer.call("op", grid.index_of, 2.2)
    finally:
        tracer.uninstall()
    assert llot.build_regularized is original and semiclassics.solve_lp is original_lp
    assert grids.Grid.__dict__["index_of"] is original_index_of
    assert [s[0] for s in tracer.spans] == ["op", "grids.Grid.index_of"]


def test_tracer_skips_layers_that_are_gone(monkeypatch):
    gone = (("simplex", "no_such_function", None, None),
            ("no_such_module", "f", None, None),
            ("grids", "Grid.no_such_method", None, None))
    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + gone)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["simplex.no_such_function", "no_such_module.f",
                              "grids.Grid.no_such_method"]
    assert tracing.layer_metrics([{}])["no_such_module.f.calls"] == 0


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [["op", 0.0, 10.0, -1, 0], ["a", 1.0, 6.0, 0, 0],
                    ["b", 2.0, 3.0, 1, 7], ["b", 7.0, 9.0, 0, 5]]
    (op,) = tracer.per_op()
    assert op["op"]["s"] == 3.0 and op["a"]["s"] == 4.0
    assert op["b"] == {"calls": 2, "s": 3.0, "count": 12}
    assert tracer.check_nesting()
    tracer.spans[2][2] = 6.5
    assert not tracer.check_nesting()


def test_parse_importtime_sums_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy.signal._a",
        "import time:         5 |         15 |     scipy.signal.sub",
        "import time:         7 |          7 |     scipy.signal.other",
        "import time:         3 |          3 |     numpy.x",
        "import time:       100 |        125 |   llot.regularizer",
        "import time:        50 |        175 | llot",
    ])
    assert run.parse_importtime(text, "scipy.signal") == pytest.approx(22e-6)
    assert run.parse_importtime(text, "llot") == pytest.approx(175e-6)
    assert run.parse_importtime(text, "scipy.integrate") == 0.0


def test_op_time_is_scaled_by_the_host_slowdown():
    assert run._scaled_median([(2.0, 2.0), (3.0, 1.0), (1.0, 1.0), (4.0, 0.5)]) == 2.0
    assert 0.1 < run.Calibration().slowdown() < 10.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert report.tail_percentile(list(range(100))) == (90.0, 89)
    assert report.tail_percentile(list(range(20))) == (50.0, 9)
    assert report.tail_percentile(list(range(10))) == (None, None)
