import csv
import math

import numpy as np
import pytest

from llot import fileio
from llot.grids import AtomicPlan, Grid, GridDensity, density_from_values
from llot.presets import fixture_three_particle, sweep_density
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


def test_plan_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(8)
    configs = rng.uniform(-3.0, 3.0, size=(5, 3, 2))
    configs[0, 0, 0] = -0.0
    weights = rng.uniform(0.1, 1.0, size=5)
    _, _, three, _ = fixture_three_particle()
    for plan in (three, AtomicPlan(3, 2, configs, weights / weights.sum())):
        path = tmp_path / "plan.json"
        fileio.write_plan(path, plan)
        back = fileio.read_plan(path)
        assert (back.n, back.dim) == (plan.n, plan.dim)
        assert back.configs.tobytes() == plan.configs.tobytes()
        assert back.weights.tobytes() == plan.weights.tobytes()


@pytest.mark.parametrize("convention", ["probability", "particle-number"])
def test_density_round_trip(tmp_path, convention):
    rho = sweep_density()
    grid = Grid.line(-1.3, rho.grid.h, rho.grid.npts)
    n = 3
    if convention == "probability":
        written = density_from_values(grid, rho.values)
    else:
        written = GridDensity(grid, n * rho.values, "particle_number", n)
    path = tmp_path / "density.csv"
    fileio.write_density(path, written)
    back = fileio.read_density(path, convention=convention, n_particles=n)
    assert back.mass_convention == "probability"
    assert back.grid.npts == grid.npts and back.grid.dim == 1
    assert back.grid.origin[0] == grid.origin[0]
    assert back.grid.h == pytest.approx(grid.h, rel=1e-12, abs=0.0)
    expected = written.values if convention == "probability" else written.values / n
    assert np.array_equal(back.values, expected)
