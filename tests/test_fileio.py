import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llot import fileio
from llot.errors import ValidationError
from llot.grids import AtomicPlan, Grid, density_from_values
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


def write_rows(path, xs, values):
    """A density CSV of any mass, which no ``GridDensity`` can hold."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value"])
        writer.writerows([repr(float(x)), repr(float(v))] for x, v in zip(xs, values))


@pytest.mark.parametrize("mass", ["probability", "particle-number"])
def test_density_round_trip(tmp_path, mass):
    rho = sweep_density()
    grid = Grid.line(-1.3, rho.grid.h, rho.grid.npts)
    n = 3
    written = density_from_values(grid, rho.values)
    path = tmp_path / "density.csv"
    if mass == "probability":
        fileio.write_density(path, written)
        expected = written.values
    else:
        write_rows(path, grid.axis(), n * written.values)
        expected = (n * written.values) / n
    back = fileio.read_density(path, n_particles=n)
    assert back.grid.npts == grid.npts and back.grid.dim == 1
    assert back.grid.origin[0] == grid.origin[0]
    assert back.grid.h == pytest.approx(grid.h, rel=1e-12, abs=0.0)
    assert np.array_equal(back.values, expected)


@pytest.mark.parametrize("mass, n", [(2.5, 2), (2.0, None)])
def test_read_density_rejects_a_mass_neither_one_nor_n(tmp_path, mass, n):
    grid = Grid.line(0.0, 0.25, 8)
    path = tmp_path / "density.csv"
    write_rows(path, grid.axis(), np.full(8, mass / 2.0))
    with pytest.raises(ValidationError, match="neither 1 nor"):
        fileio.read_density(path, n_particles=n)


ROUND_TRIP_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None,
                               database=None)


@st.composite
def line_plans(draw):
    """1-d plans of 1-3 particles and 1-5 atoms, coordinates anywhere in the
    finite floats (signed zeros and subnormals included)."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    coord = st.floats(allow_nan=False, allow_infinity=False)
    configs = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=m, max_size=m))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
    return AtomicPlan(n, 1, np.array(configs)[:, :, None], weights / weights.sum())


@ROUND_TRIP_SETTINGS
@given(line_plans())
def test_plan_round_trip_property(tmp_path_factory, plan):
    path = tmp_path_factory.getbasetemp() / "plan.json"
    fileio.write_plan(path, plan)
    back = fileio.read_plan(path)
    assert (back.n, back.dim) == (plan.n, plan.dim)
    assert back.configs.tobytes() == plan.configs.tobytes()
    assert back.weights.tobytes() == plan.weights.tobytes()


@st.composite
def line_densities(draw):
    """Unit-mass 1-d densities on 2-40 nodes with any origin in [-1e3, 1e3],
    a spacing in [1e-3, 10] and values that may vanish or be subnormal."""
    npts = draw(st.integers(2, 40))
    origin = draw(st.floats(-1e3, 1e3))
    h = draw(st.floats(1e-3, 10.0))
    raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
                        min_size=npts, max_size=npts))
    raw[draw(st.integers(0, npts - 1))] = 1.0   # some mass
    return density_from_values(Grid.line(origin, h, npts), raw, normalize=True)


@ROUND_TRIP_SETTINGS
@given(line_densities())
def test_density_round_trip_property(tmp_path_factory, rho):
    path = tmp_path_factory.getbasetemp() / "density.csv"
    fileio.write_density(path, rho)
    back = fileio.read_density(path)
    assert back.grid.npts == rho.grid.npts and back.grid.dim == 1
    assert back.grid.origin[0] == rho.grid.origin[0]
    # the reader takes the mean of the written node spacings, which can be
    # rho's h off by the rounding of the node coordinates (origin 16, h 1e-3)
    assert back.grid.h == np.diff(rho.grid.axis()).mean()
    assert back.values.tobytes() == rho.values.tobytes()
