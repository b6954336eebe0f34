import csv
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llot import fileio
from llot.errors import ValidationError
from llot.grids import MASS_TOL, AtomicPlan, Grid, density_from_values
from llot.presets import sweep_density
from llot.semiclassics import SweepRecord
from instances import fixture_three_particle
import oracles


def test_sweep_csv_round_trip(tmp_path):
    records = [
        SweepRecord(eta=1e-4, eps_opt=0.0123456789012345, total=2.0089758711195361,
                    gap=1.1e-16, assembled_c=0.0031, assembled_margin=0.95,
                    eps_edge="lower"),
        SweepRecord(eta=0.1, eps_opt=1.0 / 3.0, total=math.pi, gap=math.pi - 2.0,
                    assembled_c=31.5, assembled_margin=1e-3 / 3.0, eps_edge="upper"),
        SweepRecord(eta=1e-2, error="empty feasible eps interval: [1e+06, 183.7]"),
        SweepRecord(eta=1e-3, eps_opt=0.25, total=2.5, gap=0.5, assembled_c=0.004,
                    assembled_margin=np.float64(0.5)),
    ]
    path = tmp_path / "sweep.csv"
    fileio.write_sweep_csv(path, records)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eta", "eps_opt", "total", "gap", "assembled_c", "assembled_margin",
                       "error", "eps_edge"]
    assert len(rows) == 1 + len(records)
    for row, r in zip(rows[1:], records):
        floats = [r.eta, r.eps_opt, r.total, r.gap, r.assembled_c, r.assembled_margin]
        assert np.array_equal([float(v) for v in row[:6]], floats, equal_nan=True)
        assert row[6:] == [r.error or "", r.eps_edge or ""]
    assert [row[7] for row in rows[1:]] == ["lower", "upper", "", ""]
    assert rows[3][6] == "empty feasible eps interval: [1e+06, 183.7]"
    assert rows[3][1:6] == ["nan"] * 5 and rows[4][5] == "0.5"


def plan_json(x, weights) -> str:
    return json.dumps({"n": 2, "dim": 1, "atoms": [{"x": x, "w": w} for w in weights]})


def write_then_read(reader, text, path):
    path.write_text(text)
    reader(path)


def read_text(reader, text):
    """A row's call: write ``text`` to the path and read it with ``reader``;
    ``call.args`` is ``(reader, text)``."""
    return functools.partial(write_then_read, reader, text)


def read_latin1(reader, text):
    """A row's call like :func:`read_text`'s, with ``text`` written Latin-1
    encoded, where ``\xff`` is the byte 0xff, which no UTF-8 text holds; not
    a ``functools.partial``, since the oracles read text only."""
    def call(path):
        path.write_bytes(text.encode("latin-1"))
        reader(path)
    return call


def write_2d_density(path):
    grid = Grid(dim=2, origin=np.zeros(2), h=0.5, npts=2)
    fileio.write_density(path, density_from_values(grid, np.ones((2, 2)), normalize=True))


MALFORMED = [
    pytest.param(read_text(fileio.read_density, "x,y\n0.0,1.0\n1.0,1.0\n"),
                 "expected header ending in 'value'", 1, id="header-without-value"),
    pytest.param(read_text(fileio.read_density, "x,y,value\n0.0,0.0,1.0\n1.0,0.0,1.0\n"),
                 "only 1-d densities are supported", None, id="three-columns"),
    # the blank line 3 is skipped, and still counted
    pytest.param(read_text(fileio.read_density, "x,value\n0.0,0.5\n\n1.0\n"),
                 "expected 2 fields", 4, id="blank-line-skipped"),
    pytest.param(read_text(fileio.read_density, "x,value\n0.0,0.5\n1.0,0.5,0.0\n"),
                 "expected 2 fields", 3, id="wrong-field-count"),
    pytest.param(read_text(fileio.read_density, "x,value\n0.0,1.0\n"),
                 "need at least 2 rows", None, id="one-row"),
    pytest.param(read_text(fileio.read_density, "x,value\n0.0,0.5\n1.0,0.25\n3.0,0.25\n"),
                 "grid spacing is not uniform", None, id="non-uniform-spacing"),
    pytest.param(write_2d_density, "only 1-d densities are written", None,
                 id="write-2d-density"),
    pytest.param(read_text(fileio.read_plan, '{"n": 2,\n "dim": 1,,}'),
                 "invalid JSON", 2, id="invalid-json"),
    pytest.param(read_text(fileio.read_plan, '{"n": 2, "dim": 1}'),
                 "missing key 'atoms'", None, id="missing-key"),
    pytest.param(read_text(fileio.read_plan, '{"n": 2, "dim": 1, "atoms": {}}'),
                 "'atoms' must be a list", None, id="atoms-not-a-list"),
    pytest.param(read_text(fileio.read_plan, plan_json([[0.0, 1.0]], [1.0])),
                 r"atom 0: x must be shape \(2, 1\)", None, id="atom-x-shape"),
    pytest.param(read_text(fileio.read_plan, plan_json([[0.0], [1.0]], [1.5, -0.5])),
                 "atom weights must be positive", None, id="negative-weight"),
    pytest.param(read_text(fileio.read_plan, plan_json([[0.0], [1.0]], [0.5, 0.4])),
                 "atom weights sum to 0.9,", None, id="weights-sum-to-0.9"),
    pytest.param(read_text(fileio.read_density, "x,value\n0.0,0.5\n\n1.0,abc\n"),
                 "non-numeric field", 4, id="non-numeric-after-blank-line"),
    pytest.param(read_text(fileio.read_density, "x,value\n0.0,0.5\n1.0,nan\n"),
                 "non-finite field", 3, id="nan"),
    pytest.param(read_text(fileio.read_density, "x,value\n0.0,0.5\n\ninf,0.5\n"),
                 "non-finite field", 4, id="inf"),
    pytest.param(read_text(fileio.read_density, "x,value\n0.0,-inf\n1.0,0.5\n"),
                 "non-finite field", 2, id="minus-inf"),
    pytest.param(read_text(fileio.read_density, "x,value\n0.0,0.5\n   \n1.0,0.5\n"),
                 "expected 2 fields", 3, id="whitespace-only-line"),
    pytest.param(read_text(fileio.read_density, "x,value\n0.0,0.5\n# note\n1.0,0.5\n"),
                 "expected 2 fields", 3, id="comment-line"),
    pytest.param(read_text(fileio.read_density, "x,value\n"),
                 "need at least 2 rows", None, id="header-only"),
    pytest.param(read_text(fileio.read_density, "x,value\n\n\n"),
                 "need at least 2 rows", None, id="header-and-blank-lines"),
    pytest.param(read_text(fileio.read_density, "x,value\n0.0,-0.5\n1.0,1.5\n"),
                 "density values must be nonnegative", None, id="negative-value"),
    pytest.param(read_text(fileio.read_density, "x,value\n-1e308,0.5\n1e308,0.5\n"),
                 "grid spacing must be positive and finite", None, id="overflowing-spacing"),
    pytest.param(read_text(fileio.read_plan, '{"n": 2, "dim": 1, "atoms": []}'),
                 "empty measure", None, id="no-atoms"),
    pytest.param(read_text(fileio.read_plan, '{"n": 2, "dim": 1, "atoms": [3]}'),
                 "atom 0: must be an object", None, id="atom-not-an-object"),
    pytest.param(read_text(fileio.read_plan, plan_json([[0.0], [1.0, 2.0]], [1.0])),
                 "atom 0: x must be a numeric array", None, id="ragged-x"),
    pytest.param(read_text(fileio.read_plan, plan_json([[0.0], ["1.0"]], [1.0])),
                 "atom 0: x must be a numeric array", None, id="string-in-x"),
    pytest.param(read_text(fileio.read_plan, plan_json([[0.0], [1.0]], [0.5, True])),
                 "atom 1: x must be a numeric array", None, id="bool-w"),
    pytest.param(read_text(fileio.read_plan, plan_json([[0.0], [1.0]], [10**400])),
                 "atom 0: x must be a numeric array", None, id="overflowing-int-w"),
    pytest.param(read_latin1(fileio.read_density, "x,value\n0.0,\xff\n1.0,1.0\n"),
                 "not UTF-8 text", None, id="density-not-utf8"),
    pytest.param(read_latin1(fileio.read_plan, '{"n": 2, "dim": 1, "atoms": "\xff"}'),
                 "not UTF-8 text", None, id="plan-not-utf8"),
]


@pytest.mark.parametrize("call, message, line", MALFORMED)
def test_malformed_files_name_the_path_and_line(tmp_path, call, message, line):
    path = tmp_path / "input"
    with pytest.raises(ValidationError, match=message) as exc:
        call(path)
    assert str(exc.value).startswith(f"{path}: ")
    if line is not None:
        assert str(exc.value).startswith(f"{path}: line {line}: ")


ORACLES = {fileio.read_density: oracles.read_density, fileio.read_plan: oracles.read_plan}


def read_or_reject(reader, path, *args):
    """What ``reader`` makes of the file: its result, or its message."""
    try:
        return reader(path, *args)
    except ValidationError as exc:
        return str(exc)


@pytest.mark.parametrize("call, message, line",
                         [row for row in MALFORMED if isinstance(row.values[0], functools.partial)])
def test_malformed_files_give_the_oracles_message(tmp_path, call, message, line):
    reader, text = call.args
    path = tmp_path / "input"
    path.write_text(text)
    with np.errstate(all="ignore"):   # the oracle overflows on huge coordinates
        expected = read_or_reject(ORACLES[reader], path)
    # the oracle leaves the path out of the grid's and the density's messages
    if not expected.startswith(f"{path}: "):
        expected = f"{path}: {expected}"
    assert read_or_reject(reader, path) == expected


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


def test_a_plan_file_is_the_symmetrization_of_its_atoms(tmp_path):
    # every ordering of an atom is one orbit, weights summed, whether the
    # file lists all orderings evenly, unevenly, or one of them
    path = tmp_path / "plan.json"
    listings = {
        "expanded": [([[1.5], [0.25]], 0.25), ([[0.25], [1.5]], 0.25), ([[2.0], [-1.0]], 0.5)],
        "uneven": [([[1.5], [0.25]], 0.35), ([[0.25], [1.5]], 0.15), ([[-1.0], [2.0]], 0.5)],
        "one-ordering": [([[1.5], [0.25]], 0.5), ([[2.0], [-1.0]], 0.5)],
    }
    for name, atoms in listings.items():
        path.write_text(json.dumps({"n": 2, "dim": 1,
                                    "atoms": [{"x": x, "w": w} for x, w in atoms]}))
        plan = fileio.read_plan(path)
        assert plan.configs[:, :, 0].tolist() == [[-1.0, 2.0], [0.25, 1.5]], name
        assert plan.weights.tolist() == [0.5, 0.5], name
        fileio.write_plan(path, plan)
        assert [a["x"] for a in json.loads(path.read_text())["atoms"]] == \
            [[[-1.0], [2.0]], [[0.25], [1.5]]], name


def test_read_plan_rejects_a_plan_of_dimension_zero(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text('{"n": 2, "dim": 0, "atoms": [{"x": [[], []], "w": 1.0}]}')
    with pytest.raises(ValidationError, match=f"{path}: .*dim = 0"):
        fileio.read_plan(path)


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


def same_density(a, b) -> bool:
    """Whether two densities have the same grid and values, bit for bit."""
    return all(x.tobytes() == y.tobytes() for x, y in
               ((a.grid.origin, b.grid.origin), (np.float64(a.grid.h), np.float64(b.grid.h)),
                (a.values, b.values))) and a.grid.npts == b.grid.npts


def quote_fields(text):
    header, *rows = text.splitlines()
    return "\n".join([header] + ['"' + row.replace(",", '","') + '"' for row in rows]) + "\n"


@pytest.mark.parametrize("layout", [
    pytest.param(lambda text: text.replace("\n", "\r\n"), id="crlf"),
    pytest.param(quote_fields, id="quoted-fields"),
    pytest.param(lambda text: text + "\n\n", id="trailing-blank-lines"),
])
def test_a_density_reads_alike_in_every_accepted_layout(tmp_path, layout):
    written = tmp_path / "written.csv"
    fileio.write_density(written, sweep_density())
    text = written.read_text()   # csv ends its lines in \r\n; read_text gives \n
    paths = tmp_path / "plain.csv", tmp_path / "layout.csv"
    for path, body in zip(paths, (text, layout(text))):
        with open(path, "w", newline="") as fh:
            fh.write(body)
    assert same_density(*map(fileio.read_density, paths))


def test_a_number_with_an_underscore_is_non_numeric(tmp_path):
    # Python's float reads "1_0" as 10; the reader's C-level parse does not
    path = tmp_path / "density.csv"
    path.write_text("x,value\n0.0,0.5\n1_0,0.5\n")
    with pytest.raises(ValidationError, match="non-numeric field") as exc:
        fileio.read_density(path)
    assert str(exc.value).startswith(f"{path}: line 3: ")


@pytest.mark.parametrize("mass, n", [(1.0 + 5e-9, None), (2.0 + 1e-8, 2)])
def test_read_density_renormalizes_inside_the_mass_window(tmp_path, mass, n):
    # a density printed to 8 digits: inside the reader's 1e-6 window, but off
    # 1 (or n) by more than a GridDensity's MASS_TOL
    grid = Grid.line(0.0, 0.25, 8)
    raw = np.linspace(1.0, 2.0, 8)
    raw *= mass / (raw.sum() * grid.h)
    path = tmp_path / "density.csv"
    write_rows(path, grid.axis(), raw)
    back = fileio.read_density(path, n_particles=n)
    assert abs(back.mass() - 1.0) <= MASS_TOL
    np.testing.assert_allclose(back.values, raw / mass, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("mass, n", [(2.5, 2), (2.0, None), (1.0 + 2e-6, None)])
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


@st.composite
def density_files(draw):
    """Density CSV files as ``(xs, values, n, format)``: 2-2048 nodes, any
    origin in [-1e9, 1e9] and spacing in [1e-9, 1e6], mass 1 or n = 1-4,
    values written in full or to 8 digits."""
    npts, n = draw(st.integers(2, 2048)), draw(st.integers(1, 4))
    origin, h = draw(st.floats(-1e9, 1e9)), draw(st.floats(1e-9, 1e6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.uniform(0.0, 10.0, npts) * (rng.random(npts) < 0.7)
    raw[draw(st.integers(0, npts - 1))] = 1.0   # some mass
    mass = draw(st.sampled_from([1, n]))
    return (Grid.line(origin, h, npts).axis().tolist(),
            (raw * (mass / (raw.sum() * h))).tolist(), n,
            draw(st.sampled_from([repr, "{:.8g}".format])))


@ROUND_TRIP_SETTINGS
@given(density_files())
def test_read_density_agrees_with_the_row_by_row_oracle(tmp_path_factory, file):
    xs, values, n, fmt = file
    path = tmp_path_factory.getbasetemp() / "density.csv"
    with open(path, "w", newline="") as fh:
        fh.write("x,value\n" + "".join(f"{fmt(x)},{fmt(v)}\n" for x, v in zip(xs, values)))
    expected = read_or_reject(oracles.read_density, path, n)
    back = read_or_reject(fileio.read_density, path, n)
    if isinstance(expected, str):
        assert back == expected
    else:
        assert same_density(back, expected)


@st.composite
def plan_files(draw):
    """Plan JSON of n = 1-4 particles in 1-3 dimensions: coordinates and
    weights mixing JSON integers and floats, some atoms listed again in
    another ordering, and weights normalized or, sometimes, not."""
    n, dim = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    number = st.one_of(st.integers(-2**70, 2**70),
                       st.floats(allow_nan=False, allow_infinity=False))
    point = st.lists(number, min_size=dim, max_size=dim)
    configs = draw(st.lists(st.lists(point, min_size=n, max_size=n), min_size=1, max_size=6))
    again = draw(st.lists(st.tuples(st.integers(0, len(configs) - 1), st.permutations(range(n))),
                          max_size=4))
    configs += [[configs[i][k] for k in order] for i, order in again]
    weights = draw(st.lists(st.one_of(st.integers(1, 5), st.floats(0.01, 1.0)),
                            min_size=len(configs), max_size=len(configs)))
    if len(weights) == 1:
        weights = [1]
    elif draw(st.booleans()):
        weights = [w / sum(weights) for w in weights]
    return json.dumps({"n": n, "dim": dim,
                       "atoms": [{"x": x, "w": w} for x, w in zip(configs, weights)]})


@ROUND_TRIP_SETTINGS
@given(plan_files())
def test_read_plan_agrees_with_the_per_atom_oracle(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "plan.json"
    path.write_text(text)
    expected = read_or_reject(oracles.read_plan, path)
    back = read_or_reject(fileio.read_plan, path)
    if isinstance(expected, str):
        assert back == expected
    else:
        assert (back.n, back.dim) == (expected.n, expected.dim)
        assert back.configs.tobytes() == expected.configs.tobytes()
        assert back.weights.tobytes() == expected.weights.tobytes()
