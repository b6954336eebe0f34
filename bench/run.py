"""Benchmark of the llot CLI.  Run from the repository root:

    python3 bench/run.py --workload rate-sweep --seed 1 --seconds 30 --trace 0

One op is one or more in-process calls of ``llot.cli.main(argv)`` on inputs
generated from ``--seed``, each writing its report to a temporary file.  The
load is closed-loop: one client, ops back to back, BLAS pinned to one thread.
After one warm-up op, ops run until ``--seconds`` would be exceeded; every
op's reports are checked.  Each op's wall time, and each fresh-interpreter
import time behind ``setup_s``, is scaled to a reference host speed by a
calibration task timed right before and right after it (see ``Calibration``).  The
last stdout line is the result JSON; the line before it describes the machine
and the run, raw wall times included.  ``--trace 1`` reports the per-layer
metrics of BENCHMARK.json instead of the end-to-end ones: half the time runs
untraced ops, half runs traced ones, and the difference of their median op
times is the tracing overhead.  Results and spans are also written under
``bench/out/``.
"""

from __future__ import annotations

import os

BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PIN:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120
CALIBRATION_REPEATS = 15
# Median times of the calibration's Python loop and matrix products on a
# 2-vCPU Xeon box of the kind the benchmark was written on, with the host idle.
CALIBRATION_REF_S = (3.5e-3, 2.5e-3)


def _fail(message: str):
    sys.stderr.write(f"bench: {message}\n")
    raise SystemExit(2)


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def fresh_import_seconds() -> float:
    """Wall time that a fresh interpreter spends in ``import llot``.

    Timed inside the child: waiting on a child with a timeout polls in steps
    of up to 50 ms, which would quantize a parent-side measurement.
    """
    code = ("import time; t = time.perf_counter(); import llot; "
            "print(repr(time.perf_counter() - t))")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                          check=True, timeout=CHILD_TIMEOUT_S,
                          capture_output=True, text=True)
    return float(proc.stdout)


def parse_importtime(text: str, prefix: str) -> float:
    """Cumulative seconds of ``prefix`` and its submodules in ``-X importtime``
    output, summed over the outermost matching entries.

    scipy loads subpackages lazily, so ``scipy.signal`` itself may have no
    entry; its submodules then sit directly under the importing module.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(parts[1])))
    total_us = 0
    ancestors: list = []  # (depth, inside a match) of the enclosing entries
    for depth, name, cumulative in reversed(entries):  # parents before children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        inside = bool(ancestors) and ancestors[-1][1]
        match = name == prefix or name.startswith(prefix + ".")
        if match and not inside:
            total_us += cumulative
        ancestors.append((depth, inside or match))
    return total_us / 1e6


def import_metrics() -> dict:
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import llot"],
                          env=_child_env(), cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
                          capture_output=True, text=True)
    return {f"import.{m}.s": parse_importtime(proc.stderr, m)
            for m in ("llot", "scipy.signal", "scipy.integrate")}


def machine_description() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_PIN},
        "git_commit": commit,
    }


class Calibration:
    """A fixed task, a Python loop and then BLAS matrix products, that does
    not touch llot.

    The host this benchmark runs on is shared: for tens of seconds at a time
    it runs any code up to 1.8 times slower, which no statistic over one run
    removes.  The calibration task slows down with it, so dividing an op's
    wall time (or an import's) by the task's slowdown, measured right before
    and right after it, gives the time at the reference speed.
    """

    def __init__(self):
        import numpy as np

        self.matrix = np.random.default_rng(0).standard_normal((300, 300))

    def _task(self) -> tuple:
        start = time.perf_counter()
        total = 0
        for i in range(60000):
            total += i * i
        middle = time.perf_counter()
        for _ in range(3):
            self.matrix @ self.matrix
        return middle - start, time.perf_counter() - middle

    def slowdown(self) -> float:
        """Mean over the task's two parts of the part's median time over its
        reference time; 1 is an idle host."""
        parts = list(zip(*(self._task() for _ in range(CALIBRATION_REPEATS))))
        return statistics.mean(statistics.median(times) / ref
                               for times, ref in zip(parts, CALIBRATION_REF_S))

    def scale(self, timed) -> tuple:
        """``(seconds, slowdown)``: what ``timed()`` returns, and the mean
        slowdown measured right before and right after the call."""
        before = self.slowdown()
        seconds = timed()
        return seconds, (before + self.slowdown()) / 2.0


class Runner:
    """Runs and checks the ops of one workload, with or without a tracer."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        from llot import cli

        self.cli = cli
        self.workload = workload
        self.inputs = workloads.WORKLOADS[workload][0](seed, workdir)
        self.reference = workloads.load_reference()
        self.checks = {name: {"passed": 0, "failed": 0}
                       for name in workloads.CHECK_NAMES[workload]}
        self.errors: list = []
        self.calibration = Calibration()

    def _calls(self) -> list:
        # cli.main is looked up on the module so that a traced op sees the wrapper
        return [self.cli.main(list(argv)) for argv in self.inputs.calls]

    def op(self, tracer=None) -> tuple:
        """Run one op and check its reports; return its wall time and the
        mean host slowdown measured right before and right after it."""
        for path in self.inputs.reports:
            path.unlink(missing_ok=True)
        slowdown = self.calibration.slowdown()
        reports, error = None, None
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            codes = self._calls() if tracer is None else tracer.call("op", self._calls)
        except Exception as exc:  # an op that raises is counted, not fatal
            codes, error = None, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        slowdown = (slowdown + self.calibration.slowdown()) / 2.0
        if codes is not None and any(codes):
            error = f"exit codes {codes}"
        elif codes is not None:
            reports = []
            for path in self.inputs.reports:
                with open(path) as fh:
                    reports.append(json.load(fh))
        results, check_error = workloads.run_checks(
            self.workload, reports, self.inputs, self.reference)
        for name, ok in results.items():
            self.checks[name]["passed" if ok else "failed"] += 1
        if error or check_error:
            self.errors.append(error or check_error)
        return elapsed, slowdown

    def loop(self, seconds: float, tracer=None) -> list:
        """Ops back to back until the next one would end after ``seconds``;
        returns ``(wall time, slowdown)`` per op."""
        samples: list = []
        start = time.perf_counter()
        while True:
            samples.append(self.op(tracer))
            typical = statistics.median(t for t, _ in samples)
            if time.perf_counter() - start + typical > seconds:
                return samples

    def counts(self) -> tuple:
        passed = sum(c["passed"] for c in self.checks.values())
        failed = sum(c["failed"] for c in self.checks.values())
        return passed + failed, failed


def _scaled_median(samples: list) -> float:
    """Median of ``(wall time, slowdown)`` samples at the calibration's
    reference speed."""
    return statistics.median(t / slowdown for t, slowdown in samples)


def _metric_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"{path.name} not found next to {HERE.name}/")
    with open(path) as fh:
        return json.load(fh)


def _select(values: dict, specs: list) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "llot" / "__init__.py").is_file():
        _fail(f"no llot sources under {SRC}")
    spec = _metric_spec()
    sys.path.insert(0, str(SRC))
    import llot

    if Path(llot.__file__).resolve().parent != (SRC / "llot").resolve():
        _fail(f"imported llot from {llot.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, workdir)

    warmup, _ = runner.op()
    description = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "load": "closed loop, 1 client, 1 process",
        "machine": machine_description(), "warmup_op_s": warmup,
        "known_failures": workloads.KNOWN_FAILURES.get(args.workload, {}),
    }
    if args.trace:
        untraced = runner.loop(args.seconds / 2)
        tracer = Tracer()
        traced = runner.loop(args.seconds / 2, tracer)
        values = layer_metrics(tracer.per_op())
        values["trace.overhead.s"] = _scaled_median(traced) - _scaled_median(untraced)
        values.update(import_metrics())
        kind = "per_layer"
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "spans" / f"{tag}.json")
        description.update(op_samples=untraced, traced_op_samples=traced,
                           spans=len(tracer.spans), spans_nest=tracer.check_nesting(),
                           layers_not_found=tracer.missing)
    else:
        setup = [runner.calibration.scale(fresh_import_seconds)
                 for _ in range(SETUP_SAMPLES)]
        samples = runner.loop(args.seconds)
        values = {
            "setup_s": _scaled_median(setup),
            "op_p50_s": _scaled_median(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        kind = "end_to_end"
        description.update(op_samples=samples, setup_samples=setup)
    attempted, failed = runner.counts()
    values["checks_passed_frac"] = (attempted - failed) / attempted
    metrics = _select(values, spec[kind])
    description.update(
        ops=len(description["op_samples"]) + len(description.get("traced_op_samples", [])),
        checks=runner.checks, failed_frac=failed / attempted,
        op_errors=sorted(set(runner.errors)))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{tag}.json", "w") as fh:
        json.dump({"description": description, "result": result}, fh, indent=1)
    print(json.dumps({"description": description}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
