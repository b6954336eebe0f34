"""Plain-text file formats: CSV densities, JSON plans, JSON reports.

Density CSV: one-dimensional only, header ``x,value``, one node per row,
uniform spacing (a multi-d format is ROADMAP item 6).  A file holds either a
probability (mass 1) or a particle-number density (mass N); the reader
returns both as the probability :class:`~llot.grids.GridDensity`.
Plan JSON: ``{"n": N, "dim": d, "atoms": [{"x": [[...], ...], "w": w}]}``.
The file's plan is the symmetrization of its listed atoms: any listing is
read, with every ordering of an atom standing for the same orbit and
their weights summed (:class:`~llot.grids.AtomicPlan`), and a plan is
written one atom per orbit.
Reports are JSON with sorted keys so identical runs are byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from typing import Optional

import numpy as np

from .errors import ValidationError
from .grids import MASS_TOL, AtomicPlan, Grid, GridDensity

SCHEMA_VERSION = 1
MASS_WINDOW = 1e-6  # relative mass error a density file may carry


def read_density(path, n_particles: Optional[int] = None) -> GridDensity:
    """Load a 1-d density CSV as a probability density.

    A mass within ``MASS_WINDOW`` of 1 passes through; a mass within
    ``MASS_WINDOW * n`` of ``n = n_particles`` is a particle-number density
    and is divided by ``n``.  Any other mass is rejected.  A result whose
    mass is still off 1 by more than ``MASS_TOL``, as in a file printed to
    8 digits, is divided by that mass; values already within ``MASS_TOL``
    are kept bit for bit.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[-1].strip() != "value":
            raise ValidationError(f"{path}: line 1: expected header ending in 'value'")
        if len(header) != 2:
            raise ValidationError(f"{path}: only 1-d densities are supported in CSV")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValidationError(f"{path}: line {lineno}: expected 2 fields")
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError:
                raise ValidationError(f"{path}: line {lineno}: non-numeric field")
            if not all(map(math.isfinite, rows[-1])):
                raise ValidationError(f"{path}: line {lineno}: non-finite field")
    if len(rows) < 2:
        raise ValidationError(f"{path}: need at least 2 rows")
    rows = np.asarray(rows)
    order = np.argsort(rows[:, 0])
    xs, vals = rows[order, 0], rows[order, 1]
    spacings = np.diff(xs)
    h = spacings.mean()
    if h <= 0 or np.abs(spacings - h).max() > 1e-9 * max(abs(xs[-1]), abs(xs[0]), 1.0):
        raise ValidationError(f"{path}: grid spacing is not uniform")
    grid = Grid.line(float(xs[0]), float(h), len(xs))
    mass = vals.sum() * grid.cell_volume
    if abs(mass - 1.0) > MASS_WINDOW:
        if not (n_particles and abs(mass - n_particles) <= MASS_WINDOW * n_particles):
            raise ValidationError(
                f"{path}: mass {mass:.6g} is neither 1 nor n_particles = {n_particles}")
        vals = vals / n_particles
        mass = vals.sum() * grid.cell_volume
    if abs(mass - 1.0) > MASS_TOL:
        vals = vals / mass
    return GridDensity(grid, vals)


def write_density(path, rho: GridDensity):
    if rho.grid.dim != 1:
        raise ValidationError(f"{path}: only 1-d densities are written to CSV")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value"])
        for x, v in zip(rho.grid.axis(), rho.values):
            writer.writerow([repr(float(x)), repr(float(v))])


def _json_numbers(value) -> bool:
    """Whether ``value`` is a JSON number, or a list nesting only numbers:
    no string and no boolean, which ``float`` would read as numbers."""
    if isinstance(value, list):
        return all(map(_json_numbers, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_plan(path) -> AtomicPlan:
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
    if not isinstance(data["atoms"], list):
        raise ValidationError(f"{path}: 'atoms' must be a list")
    atoms = []
    for i, atom in enumerate(data["atoms"]):
        if not isinstance(atom, dict) or "x" not in atom or "w" not in atom:
            raise ValidationError(f"{path}: atom {i}: must be an object with 'x' and 'w'")
        numeric = _json_numbers(atom["x"]) and _json_numbers([atom["w"]])
        try:
            x = np.asarray(atom["x"], dtype=float)
            w = float(atom["w"])
        except (TypeError, ValueError, OverflowError):
            numeric = False
        if not numeric:
            raise ValidationError(f"{path}: atom {i}: x must be a numeric array "
                                  "and w a number")
        if x.shape != (data["n"], data["dim"]):
            raise ValidationError(
                f"{path}: atom {i}: x must be shape ({data['n']}, {data['dim']})"
            )
        atoms.append((x, w))
    try:
        return AtomicPlan.from_atoms(atoms, dim=data["dim"])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}")


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
