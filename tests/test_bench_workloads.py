"""The benchmark's workloads, one op each through ``cli.main``, pass every
output check of ``bench/workloads.py`` against its stored reference, so a
change that breaks the benchmark fails here first."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from llot import cli

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_the_benchmark_lists_workloads_that_exist(workloads):
    assert WORKLOAD_NAMES and set(WORKLOAD_NAMES) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_a_benchmark_op_passes_every_check(workloads, tmp_path, name):
    make, _ = workloads.WORKLOADS[name]
    inputs = make(1, tmp_path)
    assert [cli.main(list(argv)) for argv in inputs.calls] == [0] * len(inputs.calls)
    reports = [json.loads(path.read_text()) for path in inputs.reports]
    results, error = workloads.run_checks(name, reports, inputs, workloads.load_reference())
    assert error is None
    assert results == dict.fromkeys(workloads.CHECK_NAMES[name], True)
