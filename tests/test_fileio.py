import csv
import math

from llot import fileio
from llot.semiclassics import SweepRecord


def test_sweep_csv_round_trip(tmp_path):
    records = [
        SweepRecord(eta=1e-4, eps_opt=0.0123456789012345, total=2.0089758711195361,
                    e_ot=2.008975871119536, gap=1.1e-16, assembled_c=0.0031),
        SweepRecord(eta=0.1, eps_opt=1.0 / 3.0, total=math.pi, e_ot=2.0,
                    gap=math.pi - 2.0, assembled_c=31.5, scan_fallback=True),
    ]
    path = tmp_path / "sweep.csv"
    fileio.write_sweep_csv(path, records)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eta", "eps_opt", "e_ot", "trial_total", "gap", "assembled_C"]
    assert len(rows) == 1 + len(records)
    for row, r in zip(rows[1:], records):
        assert [float(v) for v in row] == [r.eta, r.eps_opt, r.e_ot, r.total, r.gap,
                                           r.assembled_c]
