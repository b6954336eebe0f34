"""Pool the result files of several benchmark runs into one report.

    python3 bench/report.py [RESULT.json ...]

Without arguments it reads every file in ``bench/out/results/``.  For each
workload it prints, over the untraced runs, the median and the quartile
spread ((q3 - q1) / median) of every end-to-end metric, the pooled op times'
median and highest percentile with at least ten samples beyond it (scaled to
the reference host speed, as ``op_p50_s`` is, with the raw median), the ops
per run, and the share of failed output checks by check name.  Over the
traced runs it prints the median of every per-layer metric.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "out" / "results"
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(samples: list):
    """``(p, value)``: the highest percentile (nearest rank) with at least ten
    samples above it, or ``(None, None)``."""
    ordered = sorted(samples)
    for p in PERCENTILES:
        value = ordered[max(math.ceil(p / 100.0 * len(ordered)) - 1, 0)]
        if sum(v > value for v in ordered) >= MIN_BEYOND:
            return p, value
    return None, None


def spread(values: list) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def load(paths: list) -> dict:
    runs = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        d = data["description"]
        runs[(d["workload"], d["trace"])].append(data)
    return runs


def main(argv: list) -> int:
    paths = [Path(a) for a in argv] or sorted(RESULTS.glob("*.json"))
    if not paths:
        sys.stderr.write(f"no result files in {RESULTS}\n")
        return 1
    runs = load(paths)
    for (workload, trace), items in sorted(runs.items()):
        seeds = sorted(i["description"]["seed"] for i in items)
        print(f"== {workload} trace={trace}: {len(items)} runs, seeds {seeds}")
        metrics = defaultdict(list)
        for item in items:
            for name, m in item["result"]["metrics"].items():
                metrics[name].append(m["value"])
        for name, values in metrics.items():
            unit = items[0]["result"]["metrics"][name]["unit"]
            print(f"  {name:45s} median {statistics.median(values):.6g} {unit}"
                  f"  spread {spread(values):.4f}")
        if trace:
            continue
        samples = [s for i in items for s in i["description"]["op_samples"]]
        pooled = [t / slowdown for t, slowdown in samples]
        p, tail = tail_percentile(pooled)
        tail_text = f"p{p:g} {tail:.4g} s" if p else "no percentile with 10 beyond"
        print(f"  op times pooled: {len(pooled)} ops, p50 {statistics.median(pooled):.4g} s,"
              f" {tail_text} (raw wall p50 {statistics.median(t for t, _ in samples):.4g} s,"
              f" host slowdown p50 {statistics.median(f for _, f in samples):.3g});"
              f" ops per run {[len(i['description']['op_samples']) for i in items]}")
        failed = defaultdict(int)
        attempted = 0
        for item in items:
            attempted += item["result"]["attempted"]
            for name, c in item["description"]["checks"].items():
                failed[name] += c["failed"]
        bad = {k: v for k, v in failed.items() if v}
        print(f"  failed_frac {sum(failed.values()) / attempted:.4g}"
              f" of {attempted} checks; failing: {bad or 'none'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
