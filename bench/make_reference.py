"""Write ``bench/reference.json``: the values the rate-sweep and
regularize-fine checks compare against.  Run from the repository root:

    python3 bench/make_reference.py

It runs the op of both workloads once on the seed-0 inputs and stores the reported
values with the code and library versions that produced them.  Regenerate only
when a change is meant to alter these numbers, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

from llot import cli  # noqa: E402

import workloads  # noqa: E402


def _reports(workload: str, workdir: Path) -> list:
    inputs = workloads.WORKLOADS[workload][0](0, workdir)
    for argv in inputs.calls:
        if cli.main(list(argv)) != 0:
            raise SystemExit(f"{workload}: {argv} failed")
    return [json.loads(p.read_text()) for p in inputs.reports]


def main() -> int:
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        (sweep,) = _reports("rate-sweep", Path(tmp))
        (fine,) = _reports("regularize-fine", Path(tmp))
    machine = run.machine_description()
    reference = {
        "produced_by": {
            "command": "python3 bench/make_reference.py",
            "inputs": "seed 0 of each workload; every seed only translates the geometry",
            "git_commit": machine["git_commit"],
            "python": machine["python"], "numpy": machine["numpy"],
            "scipy": machine["scipy"],
        },
        "rate-sweep": {
            "e_ot": sweep["e_ot"],
            "etas": [r["eta"] for r in sweep["records"]],
            "totals": [r["total"] for r in sweep["records"]],
        },
        "regularize-fine": {
            "kinetic_lhs": fine["checks"]["kinetic"]["lhs"],
            "potential_lhs": fine["checks"]["potential"]["lhs"],
        },
    }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
