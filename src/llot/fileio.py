r"""Plain-text file formats: CSV densities, JSON plans, JSON reports.

Density CSV: one-dimensional only, header ``x,value``, one node per row,
uniform spacing (a multi-d format is ROADMAP item 6).  A file holds either a
probability (mass 1) or a particle-number density (mass N); the reader
returns both as the probability :class:`~llot.grids.GridDensity`.  The file
is read once, with universal newlines (``\n``, ``\r\n``, ``\r``), and its
body is parsed in one pass by ``np.loadtxt``'s C-level parser.  Empty lines
are skipped and still counted for line numbers, and fields may be quoted.
A line of spaces, a ``#`` line, a wrong field count, an empty field, nan
and inf are rejected; a line-by-line rescan then names the first bad line.
A number reads as Python's ``float`` reads it, bit for bit, except that the
parser rejects underscores (``float`` reads ``1_0`` as 10) and non-ASCII
digits, and strips the ASCII separators ``\x1c``-``\x1f`` around a number
as whitespace.
Plan JSON: ``{"n": N, "dim": d, "atoms": [{"x": [[...], ...], "w": w}]}``.
The file's plan is the symmetrization of its listed atoms: any listing is
read, with every ordering of an atom standing for the same orbit and
their weights summed (:class:`~llot.grids.AtomicPlan`), and a plan is
written one atom per orbit.  Coordinates and weights must be JSON numbers,
not strings or booleans.
Reports are JSON with sorted keys so identical runs are byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from typing import NoReturn, Optional

import numpy as np

from .errors import ValidationError
from .grids import MASS_TOL, AtomicPlan, Grid, GridDensity

SCHEMA_VERSION = 1
MASS_WINDOW = 1e-6  # relative mass error a density file may carry
NUMBER_TYPES = frozenset({int, float})  # what json reads numbers as; not bool or str


def read_density(path, n_particles: Optional[int] = None) -> GridDensity:
    """Load a 1-d density CSV as a probability density.

    The body is parsed in one pass by :func:`_parse_rows`; only a file it
    rejects is read again line by line, to name the first bad line.
    A mass within ``MASS_WINDOW`` of 1 passes through; a mass within
    ``MASS_WINDOW * n`` of ``n = n_particles`` is a particle-number density
    and is divided by ``n``.  Any other mass is rejected.  A result whose
    mass is still off 1 by more than ``MASS_TOL``, as in a file printed to
    8 digits, is divided by that mass; values already within ``MASS_TOL``
    are kept bit for bit.
    """
    with open(path) as fh:
        header = next(csv.reader([fh.readline()]))
        body = fh.read()
    if len(header) < 2 or header[-1].strip() != "value":
        raise ValidationError(f"{path}: line 1: expected header ending in 'value'")
    if len(header) != 2:
        raise ValidationError(f"{path}: only 1-d densities are supported in CSV")
    if not body.strip("\n"):     # np.loadtxt warns on a file without rows
        raise ValidationError(f"{path}: need at least 2 rows")
    try:
        rows = _parse_rows(body)
    except ValueError:
        rows = None
    if rows is None or rows.shape[1] != 2 or not np.isfinite(rows).all():
        _reject_rows(path, body)
    if len(rows) < 2:
        raise ValidationError(f"{path}: need at least 2 rows")
    order = np.argsort(rows[:, 0])
    xs, vals = rows[order, 0], rows[order, 1]
    # coordinates near +-1e308 overflow the spacing to inf, which Grid rejects
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            spacings = np.diff(xs)
            h = spacings.mean()
            if h <= 0 or np.abs(spacings - h).max() > 1e-9 * max(abs(xs[-1]), abs(xs[0]), 1.0):
                raise ValidationError("grid spacing is not uniform")
            grid = Grid.line(float(xs[0]), float(h), len(xs))
            mass = vals.sum() * grid.cell_volume
            if abs(mass - 1.0) > MASS_WINDOW:
                if not (n_particles and abs(mass - n_particles) <= MASS_WINDOW * n_particles):
                    raise ValidationError(
                        f"mass {mass:.6g} is neither 1 nor n_particles = {n_particles}")
                vals = vals / n_particles
                mass = vals.sum() * grid.cell_volume
            if abs(mass - 1.0) > MASS_TOL:
                vals = vals / mass
            return GridDensity(grid, vals)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}")


def _parse_rows(text: str) -> np.ndarray:
    """The comma-separated rows of ``text`` as a 2-d float array, by numpy's
    C-level parser; raises ``ValueError`` on a row it cannot read."""
    return np.loadtxt(io.StringIO(text), delimiter=",", comments=None, quotechar='"',
                      ndmin=2)


def _reject_rows(path, body: str) -> NoReturn:
    """Raise the message of the first line of a density body that
    :func:`_parse_rows` rejects: its field count, read as ``csv`` does, is
    not 2, it does not parse, or it holds nan or inf."""
    for lineno, line in enumerate(body.split("\n"), start=2):
        if not line:
            continue
        if len(next(csv.reader([line]))) != 2:
            raise ValidationError(f"{path}: line {lineno}: expected 2 fields")
        try:
            row = _parse_rows(line)
        except ValueError:
            row = None
        if row is None or row.shape != (1, 2):
            raise ValidationError(f"{path}: line {lineno}: non-numeric field")
        if not np.isfinite(row).all():
            raise ValidationError(f"{path}: line {lineno}: non-finite field")
    raise ValidationError(f"{path}: rows do not parse as one table")


def write_density(path, rho: GridDensity):
    if rho.grid.dim != 1:
        raise ValidationError(f"{path}: only 1-d densities are written to CSV")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value"])
        for x, v in zip(rho.grid.axis(), rho.values):
            writer.writerow([repr(float(x)), repr(float(v))])


def read_plan(path) -> AtomicPlan:
    """Load a plan JSON.  Every ``x`` goes into one array of shape
    ``(atoms, n, dim)``, every ``w`` into another, and each is checked to
    hold JSON numbers only; only a plan that fails this is read again atom
    by atom, to name the first bad atom."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: line {exc.lineno}: invalid JSON ({exc.msg})")
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: top level must be an object")
    for key in ("n", "dim", "atoms"):
        if key not in data:
            raise ValidationError(f"{path}: missing key {key!r}")
    for key in ("n", "dim"):
        if not isinstance(data[key], int) or isinstance(data[key], bool):
            raise ValidationError(f"{path}: {key!r} must be an integer, got {data[key]!r}")
    n, dim, atoms = data["n"], data["dim"], data["atoms"]
    if not isinstance(atoms, list):
        raise ValidationError(f"{path}: 'atoms' must be a list")
    try:
        x = np.array([atom["x"] for atom in atoms], dtype=object)
        w = np.array([atom["w"] for atom in atoms], dtype=object)
        ok = (x.shape == (len(atoms), n, dim) and w.shape == (len(atoms),)
              and (set(map(type, x.flat)) | set(map(type, w))) <= NUMBER_TYPES)
        if ok:
            x, w = x.astype(float), w.astype(float)
    except (TypeError, KeyError, OverflowError):
        ok = False
    if not ok:
        _reject_atoms(path, atoms, n, dim)
    try:
        return AtomicPlan(n, dim, x, w)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}")


def _reject_atoms(path, atoms: list, n: int, dim: int) -> NoReturn:
    """Raise the message of the first atom that :func:`read_plan`'s bulk
    read rejects: not an object with ``x`` and ``w``, a field that is not
    JSON numbers or overflows a float, or an ``x`` not of shape (n, dim)."""
    for i, atom in enumerate(atoms):
        if not isinstance(atom, dict) or "x" not in atom or "w" not in atom:
            raise ValidationError(f"{path}: atom {i}: must be an object with 'x' and 'w'")
        x = np.array(atom["x"], dtype=object)
        numeric = (set(map(type, x.flat)) | {type(atom["w"])}) <= NUMBER_TYPES
        try:
            if numeric:     # a JSON integer beyond the float range overflows
                x = x.astype(float)
                float(atom["w"])
        except OverflowError:
            numeric = False
        if not numeric:
            raise ValidationError(f"{path}: atom {i}: x must be a numeric array "
                                  "and w a number")
        if x.shape != (n, dim):
            raise ValidationError(f"{path}: atom {i}: x must be shape ({n}, {dim})")
    # no atom is bad, so the bulk read failed on an empty list
    raise ValidationError(f"{path}: empty measure")


def write_plan(path, plan: AtomicPlan):
    data = {
        "n": plan.n,
        "dim": plan.dim,
        "atoms": [
            {"x": [[float(v) for v in particle] for particle in config],
             "w": float(w)}
            for config, w in zip(plan.configs, plan.weights)
        ],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def render_report(report: dict) -> str:
    """Deterministic JSON text for a report dictionary."""
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update(report)
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


def write_report(path, report: dict):
    text = render_report(report)
    if path is None:
        return text
    with open(path, "w") as fh:
        fh.write(text)
    return text


def write_sweep_csv(path, records):
    """One row per sweep record (:class:`~llot.semiclassics.SweepRecord`,
    at least one), one column per record field in order: ``eta, eps_opt,
    total, gap, assembled_c, assembled_margin, error, eps_edge``.  Numbers
    are written in ``repr``; ``error`` and ``eps_edge`` are empty on a
    record without one."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in dataclasses.fields(records[0])])
        for r in records:
            writer.writerow(["" if v is None else v if isinstance(v, str) else repr(float(v))
                             for v in dataclasses.astuple(r)])
