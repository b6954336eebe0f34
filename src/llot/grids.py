"""Uniform grids, discrete densities, atomic symmetric plans, and the Coulomb
cost of their configurations.

Conventions used throughout the package:

* A grid node is ``origin + i * h`` componentwise, ``i`` a multi-index with
  ``0 <= i_k < npts``.  All axes share the same spacing and point count.
* A :class:`GridDensity` stores *density values* (not masses); the quadrature
  mass of a region is ``sum(values) * h**dim``, and of the whole grid 1.
* An :class:`AtomicPlan` is a finitely supported symmetric probability on
  configuration space: a list of ``(X, w)`` with ``X`` an ``(n, dim)`` array
  of particle positions and ``w > 0`` summing to one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError

MASS_TOL = 1e-10
WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid in ``dim`` dimensions."""

    dim: int
    origin: np.ndarray
    h: float
    npts: int

    def __post_init__(self):
        if not (self.h > 0 and np.isfinite(self.h)):
            raise ValidationError("grid spacing must be positive and finite")
        if self.npts < 2:
            raise ValidationError("grid needs at least 2 points per axis")
        origin = np.atleast_1d(np.asarray(self.origin, dtype=float))
        if origin.shape != (self.dim,):
            raise ValidationError(f"origin must have shape ({self.dim},)")
        if not np.all(np.isfinite(origin)):
            raise ValidationError("grid origin must be finite")
        object.__setattr__(self, "origin", origin)

    @classmethod
    def line(cls, start: float, h: float, npts: int) -> "Grid":
        """One-dimensional grid starting at ``start``."""
        return cls(dim=1, origin=np.array([start]), h=float(h), npts=int(npts))

    @property
    def shape(self) -> tuple:
        return (self.npts,) * self.dim

    @property
    def n_sites(self) -> int:
        return self.npts**self.dim

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def axis(self, k: int = 0) -> np.ndarray:
        return self.origin[k] + self.h * np.arange(self.npts)

    def points(self) -> np.ndarray:
        """All node coordinates, shape ``(n_sites, dim)``, C-order."""
        axes = [self.axis(k) for k in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def indices_of(self, x) -> np.ndarray:
        """Multi-indices of the nodes nearest to points ``x`` of shape
        ``(..., dim)``, clipped to the grid."""
        idx = np.rint((np.asarray(x, dtype=float) - self.origin) / self.h).astype(int)
        return np.minimum(np.maximum(idx, 0), self.npts - 1)

    def node(self, idx) -> np.ndarray:
        return self.origin + self.h * np.asarray(idx, dtype=float)


@dataclass
class GridDensity:
    """Nonnegative probability density sampled on a grid: unit quadrature
    mass to ``MASS_TOL``.

    A mass-N particle-number density is divided by N where it is read
    (:func:`llot.fileio.read_density`); grid fields of other mass, such as
    the smoothing denominator, are plain arrays.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(self.grid.shape)
        if not np.all(np.isfinite(values)):
            raise ValidationError("density values must be finite")
        if np.any(values < 0):
            raise ValidationError("density values must be nonnegative")
        self.values = values
        if abs(self.mass() - 1.0) > MASS_TOL:
            raise ValidationError(
                f"density mass {self.mass():.12g} differs from 1 beyond {MASS_TOL:g}"
            )

    def mass(self) -> float:
        return float(self.values.sum() * self.grid.cell_volume)

    def l1_distance(self, other: "GridDensity") -> float:
        return float(np.abs(self.values - other.values).sum() * self.grid.cell_volume)


def density_from_values(grid: Grid, raw, normalize: bool = False) -> GridDensity:
    """Build a density, optionally rescaling ``raw`` to unit mass first."""
    raw = np.asarray(raw, dtype=float).reshape(grid.shape)
    if normalize:
        total = raw.sum() * grid.cell_volume
        if total <= 0:
            raise ValidationError("cannot normalize a density with zero mass")
        raw = raw / total
    return GridDensity(grid, raw)


@dataclass
class AtomicPlan:
    """Finitely supported symmetric ``n``-particle probability measure."""

    n: int
    dim: int
    configs: np.ndarray  # (m, n, dim)
    weights: np.ndarray  # (m,)

    def __post_init__(self):
        configs = np.asarray(self.configs, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if configs.ndim != 3 or configs.shape[1:] != (self.n, self.dim):
            raise ValidationError(f"configs must have shape (m, {self.n}, {self.dim})")
        if weights.shape != (configs.shape[0],):
            raise ValidationError("weights must match configs")
        if configs.shape[0] == 0:
            raise ValidationError("empty measure")
        if not (np.all(np.isfinite(configs)) and np.all(np.isfinite(weights))):
            raise ValidationError("atom coordinates and weights must be finite")
        if np.any(weights <= 0):
            raise ValidationError("atom weights must be positive")
        if abs(weights.sum() - 1.0) > WEIGHT_TOL:
            raise ValidationError(
                f"atom weights sum to {weights.sum():.15g}, expected 1"
            )
        self.configs = configs
        self.weights = weights

    @classmethod
    def from_atoms(cls, atoms, dim: Optional[int] = None) -> "AtomicPlan":
        """Build from ``[(config, weight), ...]``; configs of shape (n,) mean dim=1."""
        if not atoms:
            raise ValidationError("empty measure")
        first = np.atleast_2d(np.asarray(atoms[0][0], dtype=float))
        if dim is None:
            dim = first.shape[-1] if np.asarray(atoms[0][0]).ndim > 1 else 1
        configs = []
        weights = []
        for x, w in atoms:
            x = np.asarray(x, dtype=float)
            if x.ndim == 1:
                x = x[:, None] if dim == 1 else x.reshape(-1, dim)
            configs.append(x)
            weights.append(float(w))
        configs = np.stack(configs)
        return cls(n=configs.shape[1], dim=dim, configs=configs,
                   weights=np.asarray(weights))

    @property
    def n_atoms(self) -> int:
        return self.configs.shape[0]

    def sorted_copy(self) -> "AtomicPlan":
        """Atoms reordered by lexicographic configuration; for determinism."""
        order = np.lexsort(self.configs.reshape(self.n_atoms, -1).T[::-1])
        return AtomicPlan(self.n, self.dim, self.configs[order], self.weights[order])


@dataclass
class SeparationReport:
    """Minimum pairwise particle distance over all atoms of a plan."""

    alpha: float
    violating_atom: Optional[np.ndarray] = None


def _row_keys(configs: np.ndarray) -> np.ndarray:
    """One ``np.void`` key per configuration: its contiguous row bytes.

    Keys sort as ``bytes`` do and are equal exactly when the bytes are, so
    ``-0.0`` and ``0.0`` are distinct coordinates.
    """
    rows = np.ascontiguousarray(configs).reshape(len(configs), -1)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _merge_atoms(configs: np.ndarray, weights: np.ndarray) -> tuple:
    """Atoms with equal configurations merged: the distinct configurations in
    key order and their weights, each summed in input order."""
    _, first, inverse = np.unique(_row_keys(configs), return_index=True,
                                  return_inverse=True)
    return configs[first], np.bincount(inverse, weights=weights)


def permutations(n: int) -> np.ndarray:
    """All permutations of range(n) as the rows of an (n!, n) array, in
    lexicographic order."""
    return np.array(list(itertools.permutations(range(n))))


def symmetrize(plan: AtomicPlan) -> AtomicPlan:
    """Average atom weights over all coordinate permutations.

    The result assigns each configuration the mean of the input weights of
    its n! permuted copies, so the output is permutation invariant and total
    mass is preserved exactly.  Idempotent.
    """
    perms = permutations(plan.n)
    permuted = plan.configs[:, perms].reshape(-1, plan.n, plan.dim)
    configs, weights = _merge_atoms(permuted, np.repeat(plan.weights / len(perms),
                                                        len(perms)))
    return AtomicPlan(plan.n, plan.dim, configs, weights / weights.sum())


def is_symmetric(plan: AtomicPlan, tol: float = 1e-12) -> bool:
    """Whether every permutation of every atom carries the same weight."""
    configs, weights = _merge_atoms(plan.configs, plan.weights)
    keys = _row_keys(configs)
    perms = permutations(plan.n)
    permuted = _row_keys(configs[:, perms].reshape(-1, plan.n, plan.dim))
    pos = np.minimum(np.searchsorted(keys, permuted), len(keys) - 1)
    return bool(np.all(keys[pos] == permuted) and np.all(
        np.abs(weights[pos] - np.repeat(weights, len(perms))) <= tol))


def separation(plan: AtomicPlan) -> SeparationReport:
    """Exact minimum pairwise distance |x_i - x_j| over atoms and pairs i != j."""
    if plan.n < 2:
        raise ValidationError("separation undefined for single particle")
    diff = plan.configs[:, :, None, :] - plan.configs[:, None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    iu = np.triu_indices(plan.n, k=1)
    per_atom = dist[:, iu[0], iu[1]].min(axis=1)
    worst = int(np.argmin(per_atom))
    best = per_atom[worst]
    report = SeparationReport(alpha=float(best))
    if best == 0.0:
        report.violating_atom = plan.configs[worst]
    return report


def coulomb(configs) -> np.ndarray:
    """Pairwise repulsion ``sum_{j<k} 1/|x_j - x_k|`` of configurations of
    shape (m, n, dim); +inf on coincidence."""
    configs = np.asarray(configs, dtype=float)
    m, n, _ = configs.shape
    out = np.zeros(m)
    for j in range(n):
        for k in range(j + 1, n):
            r = np.sqrt(((configs[:, j] - configs[:, k]) ** 2).sum(-1))
            with np.errstate(divide="ignore"):
                out += np.where(r > 0, 1.0 / np.where(r > 0, r, 1.0), np.inf)
    return out


def snap_to_grid(plan: AtomicPlan, grid: Grid, max_shift: Optional[float] = None) -> AtomicPlan:
    """Move every atom coordinate to its nearest grid node.

    The exact marginal and trace identities of the smoothing constructions
    hold only for node-supported plans, so plans are snapped on entry.
    """
    snapped = grid.node(grid.indices_of(plan.configs))
    shift = float(np.max(np.abs(snapped - plan.configs)))
    if max_shift is not None and shift > max_shift:
        raise ValidationError(
            f"atom coordinates are {shift:.3g} away from the nearest node, "
            f"more than the allowed {max_shift:.3g}"
        )
    configs, weights = _merge_atoms(snapped, plan.weights)
    return AtomicPlan(plan.n, plan.dim, configs, weights)


def marginal(plan: AtomicPlan, grid: Grid) -> GridDensity:
    """One-particle marginal of a symmetric plan, binned to grid nodes.

    Each atom spreads weight ``w / n`` onto the nearest node of each of its
    ``n`` coordinates.
    """
    if plan.n_atoms == 0:
        raise ValidationError("empty measure")
    idx = grid.indices_of(plan.configs)
    flat = np.ravel_multi_index(tuple(np.moveaxis(idx, -1, 0)), grid.shape)
    # bincount adds in C order over (atom, coordinate), as a loop would
    share = np.repeat(plan.weights / (plan.n * grid.cell_volume), plan.n)
    values = np.bincount(flat.ravel(), weights=share, minlength=grid.n_sites)
    return GridDensity(grid, values.reshape(grid.shape))


def h1_seminorm_sqrt(rho: GridDensity) -> float:
    """Dirichlet energy of sqrt(rho): quadrature of |grad sqrt(rho)|^2.

    The square root is taken before differencing; central differences in the
    interior, second-order one-sided at array edges.  Second-order accurate
    for smooth densities bounded away from zero on their support interior.
    """
    g = np.sqrt(rho.values)
    h = rho.grid.h
    total = np.zeros_like(g)
    for axis in range(rho.grid.dim):
        d = np.gradient(g, h, axis=axis, edge_order=2)
        total += d * d
    return float(total.sum() * rho.grid.cell_volume)


def l1_gradient(rho: GridDensity) -> float:
    """Quadrature of |grad rho| (sum of finite-difference gradient norms)."""
    h = rho.grid.h
    sq = np.zeros_like(rho.values)
    for axis in range(rho.grid.dim):
        d = np.gradient(rho.values, h, axis=axis, edge_order=2)
        sq += d * d
    return float(np.sqrt(sq).sum() * rho.grid.cell_volume)
