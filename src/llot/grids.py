"""Uniform grids, discrete densities, atomic symmetric plans, and the Coulomb
cost of their configurations.

Conventions used throughout the package:

* A grid node is ``origin + i * h`` componentwise, ``i`` a multi-index with
  ``0 <= i_k < npts``.  All axes share the same spacing and point count.
* A :class:`GridDensity` stores *density values* (not masses); the quadrature
  mass of a region is ``sum(values) * h**dim``, and of the whole grid 1.
* An :class:`AtomicPlan` is a finitely supported symmetric probability on
  configuration space, stored once per orbit: a list of ``(X, W)`` with ``X``
  an ``(n, dim)`` array of particle positions in lexicographic order and
  ``W > 0`` summing to one.  It stands for the symmetrization
  ``sum_X W / n! * sum_sigma delta_{sigma X}``, so any listing of atoms,
  ordered or not, builds the plan of its symmetrization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError

MASS_TOL = 1e-10
WEIGHT_TOL = 1e-12
STRIPE_ENTRIES = 1 << 16   # most entries of one stripe (see stripes)


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

    def require_gradient_nodes(self):
        """Raise unless every axis has the 3 nodes that the second-order
        one-sided differences of ``np.gradient(..., edge_order=2)`` read."""
        if self.npts < 3:
            raise ValidationError(
                f"grid of {self.npts} nodes per axis: second-order finite "
                f"differences need at least 3 nodes per axis")

    def indices_of(self, x) -> np.ndarray:
        """Multi-indices of the nodes nearest to finite points ``x`` of shape
        ``(..., dim)``.  Points are clipped to the grid's extent before the
        division, so neither it nor the int cast can overflow."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.dim:
            raise ValidationError(
                f"points of dimension {x.shape[-1]} on a grid of dimension {self.dim}")
        if not np.all(np.isfinite(x)):
            raise ValidationError("points must be finite")
        x = np.clip(x, self.origin, self.origin + self.h * (self.npts - 1))
        idx = np.rint((x - self.origin) / self.h)
        return np.minimum(np.maximum(idx, 0), self.npts - 1).astype(int)

    def flat_index(self, idx) -> np.ndarray:
        """C-order flat indices of multi-indices ``idx`` of shape
        ``(..., dim)``; -1 for a multi-index off the grid."""
        idx = np.asarray(idx)
        on = np.all((idx >= 0) & (idx < self.npts), axis=-1)
        return np.where(on, idx @ self.npts ** np.arange(self.dim - 1, -1, -1), -1)

    def multi_index(self, flat) -> np.ndarray:
        """Multi-indices ``(..., dim)`` of C-order flat indices: the inverse
        of :meth:`flat_index` on the grid."""
        return np.stack(np.unravel_index(flat, self.shape), axis=-1)

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
    """Finitely supported symmetric ``n``-particle probability measure, one
    atom per orbit.

    The constructor symmetrizes what it is given: it sorts the points of
    each configuration lexicographically (``-0.0`` read as ``+0.0``), merges
    equal configurations, summing their weights in input order, and orders
    the atoms lexicographically.  Every per-orbit sum (the marginal, the
    separation, a symmetric cost) reads the atoms as they are; the full
    n-point density sums each orbit over its n! orderings, and no reader
    forms them as a table (see :mod:`llot.regularizer`).
    """

    n: int
    dim: int
    configs: np.ndarray  # (m, n, dim)
    weights: np.ndarray  # (m,)

    def __post_init__(self):
        configs = np.asarray(self.configs, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if self.n < 1 or self.dim < 1:
            raise ValidationError(f"a plan needs at least one particle and one "
                                  f"dimension, got n = {self.n}, dim = {self.dim}")
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
        m = configs.shape[0]
        points = (configs + 0.0).reshape(m * self.n, self.dim)   # -0.0 + 0.0 is +0.0
        points = points[np.lexsort((*points.T[::-1], np.repeat(np.arange(m), self.n)))]
        rows = points.reshape(m, -1)
        order = np.lexsort(rows.T[::-1])    # stable: equal rows keep input order
        rows = rows[order]
        first = np.concatenate(([True], np.any(rows[1:] != rows[:-1], axis=1)))
        self.configs = rows[first].reshape(-1, self.n, self.dim)
        self.weights = np.bincount(np.cumsum(first) - 1, weights=weights[order])

    @property
    def n_atoms(self) -> int:
        """The number of orbits."""
        return self.configs.shape[0]


def separation(plan: AtomicPlan) -> float:
    """Exact minimum pairwise distance |x_i - x_j| over atoms and pairs i != j."""
    if plan.n < 2:
        raise ValidationError("separation undefined for single particle")
    diff = plan.configs[:, :, None, :] - plan.configs[:, None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    iu = np.triu_indices(plan.n, k=1)
    return float(dist[:, iu[0], iu[1]].min())


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
    """Move every atom coordinate to its nearest grid node; atoms that land
    on one configuration merge.

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
    return AtomicPlan(plan.n, plan.dim, snapped, plan.weights)


def marginal(plan: AtomicPlan, grid: Grid) -> GridDensity:
    """One-particle marginal of a symmetric plan, binned to grid nodes.

    Each atom spreads weight ``w / n`` onto the nearest node of each of its
    ``n`` coordinates.
    """
    if plan.n_atoms == 0:
        raise ValidationError("empty measure")
    flat = grid.flat_index(grid.indices_of(plan.configs))
    # bincount adds in C order over (atom, coordinate), as a loop would
    share = np.repeat(plan.weights / (plan.n * grid.cell_volume), plan.n)
    values = np.bincount(flat.ravel(), weights=share, minlength=grid.n_sites)
    return GridDensity(grid, values.reshape(grid.shape))


def stripes(shape: tuple) -> list:
    """Row ranges ``(lo, hi)`` that cover axis 0 of an array of ``shape``,
    each of at most ``STRIPE_ENTRIES`` entries and at least one row."""
    rows = max(1, STRIPE_ENTRIES // max(math.prod(shape[1:]), 1))
    return [(lo, min(lo + rows, shape[0])) for lo in range(0, shape[0], rows)]


def _gradient_into(out, f, h: float, axis: int, n: int, lo: int = 0, first: int = 0):
    """``np.gradient(g, h, axis=axis, edge_order=2)`` at indices ``lo, lo + 1,
    ...`` along ``axis`` of an array ``g`` of length ``n`` there, written to
    ``out``; ``f`` holds ``g`` from index ``first`` on along ``axis``
    (``first = 0`` where ``lo = 0``) and reaches every index that the
    stencil reads.  The same operations in the same order as
    ``np.gradient``, so the same bits."""
    out, f = np.moveaxis(out, axis, 0), np.moveaxis(f, axis, 0)
    hi = lo + len(out)
    i0, i1 = max(lo, 1), min(hi, n - 1)          # the central differences
    if i0 < i1:
        d = out[i0 - lo:i1 - lo]
        np.subtract(f[i0 + 1 - first:i1 + 1 - first], f[i0 - 1 - first:i1 - 1 - first], out=d)
        np.divide(d, 2. * h, out=d)
    if lo == 0:
        f0, f1, f2 = f[:3]
        out[0] = (-1.5 / h) * f0 + (2. / h) * f1 + (-0.5 / h) * f2
    if hi == n:
        f0, f1, f2 = f[n - 3 - first:n - first]
        out[-1] = (0.5 / h) * f0 + (-2. / h) * f1 + (1.5 / h) * f2


def dirichlet_sum_sqrt(values: np.ndarray, h: float) -> float:
    """``sum |grad sqrt(values)|^2`` over the nodes of an array of any rank,
    without the cell volume: the differences of ``np.gradient`` of the square
    root, spacing ``h``, second order and one-sided at array edges, summed
    stripe by stripe (:func:`stripes`) and axis by axis.

    Each stripe takes the square root of its rows plus a halo (1 row inside
    the array, 2 at its ends, for the one-sided stencil) into one buffer,
    and the derivative along each axis into another, squared in place and
    summed, so the working set is two stripes whatever the array's size.
    A 1-D array in one stripe sums exactly as ``np.gradient`` does; in
    general the additions of the total run in another order.  Needs at
    least 3 entries per axis.
    """
    if min(values.shape) < 3:
        raise ValidationError(f"array of shape {values.shape}: second-order finite "
                              f"differences need at least 3 entries per axis")
    n = values.shape[0]
    spans = stripes(values.shape)
    rows = spans[0][1]
    root = np.empty((min(rows + 2, n),) + values.shape[1:])
    grad = np.empty((rows,) + values.shape[1:])
    total = 0.0
    for lo, hi in spans:
        first, last = min(max(lo - 1, 0), n - 3), max(min(hi + 1, n), 3)
        g = root[:last - first]
        np.sqrt(values[first:last], out=g)
        d = grad[:hi - lo]
        for axis in range(values.ndim):
            if axis == 0:
                _gradient_into(d, g, h, 0, n, lo, first)
            else:   # the stripe's own rows, whole along the axis
                _gradient_into(d, g[lo - first:hi - first], h, axis, values.shape[axis])
            d *= d
            total += d.sum()
    return total


def h1_seminorm_sqrt(rho: GridDensity) -> float:
    """Dirichlet energy of sqrt(rho), :func:`dirichlet_sum_sqrt` times the
    cell volume.  Second-order accurate for smooth densities bounded away
    from zero on their support interior."""
    rho.grid.require_gradient_nodes()
    return float(dirichlet_sum_sqrt(rho.values, rho.grid.h) * rho.grid.cell_volume)


def l1_gradient(rho: GridDensity) -> float:
    """Quadrature of |grad rho| (sum of finite-difference gradient norms)."""
    rho.grid.require_gradient_nodes()
    h = rho.grid.h
    sq = np.zeros_like(rho.values)
    for axis in range(rho.grid.dim):
        d = np.gradient(rho.values, h, axis=axis, edge_order=2)
        sq += d * d
    return float(np.sqrt(sq).sum() * rho.grid.cell_volume)
