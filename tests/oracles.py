"""Test-only reference code: whole-grid forms of the smoothed plan's
per-center tables, explicit orbitals and Slater determinants, and simple
observables, shared by the regularizer and the quantum tests as oracles."""

import math
from typing import Callable, Optional

import numpy as np

from llot.errors import ValidationError
from llot.grids import GridDensity, permutations
from llot.mollifier import GridKernel, offset_sum
from llot.regularizer import Observable


def dense_transfer(rp):
    """The transfer vectors as ``(n_centers, n_sites)`` rows, built over the
    whole grid: ``q`` scattered to each center's window nodes and spread by
    :func:`offset_sum` on the grid, times ``rho * h^d``."""
    grid = rp.grid
    n_centers = len(rp.centers)
    u = np.zeros((n_centers, grid.n_sites))
    u[np.arange(n_centers)[:, None], rp.window] = rp.q
    spread = offset_sum(u.reshape((n_centers,) + grid.shape), rp.kernel.offsets,
                        rp.kernel.sq)
    return (rp.rho.values * spread * grid.cell_volume).reshape(n_centers, -1)


def scattered_transfer(rp):
    """The box table ``rp.transfer`` written row by row onto the grid."""
    rows = np.zeros((len(rp.centers), rp.grid.n_sites))
    for row, nodes, values in zip(rows, rp.nodes, rp.transfer):
        row[nodes[nodes >= 0]] = values[nodes >= 0]
    return rows


class OrbitalSet:
    """Localized orbitals amp(x - z_k), optionally weighted by sqrt(rho)."""

    def __init__(self, centers: np.ndarray, kernel: GridKernel,
                 rho: Optional[GridDensity] = None):
        centers = np.asarray(centers, dtype=float)
        if centers.ndim == 1:
            centers = centers[:, None]
        self.centers = centers
        self.kernel = kernel
        self.rho = rho

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    @property
    def eps(self) -> float:
        return self.kernel.m.eps

    def min_center_distance(self) -> float:
        if self.n < 2:
            return math.inf
        diff = self.centers[:, None, :] - self.centers[None, :, :]
        dist = np.sqrt((diff**2).sum(-1))
        iu = np.triu_indices(self.n, k=1)
        return float(dist[iu].min())

    def matrix(self, config) -> np.ndarray:
        """Orbital values phi_i(x_j), shape (n, n).

        Index-space orbitals: ``phi_i(x) = amp(rint((x - z_i) / h))`` from the
        kernel's table, times ``sqrt(rho)`` at the node nearest to ``x`` when
        a density is given.
        """
        config = np.asarray(config, dtype=float).reshape(self.n, -1)
        steps = np.rint((config[None, :, :] - self.centers[:, None, :]) / self.kernel.h)
        vals = self.kernel.amp_of(steps.astype(int))
        if self.rho is not None:
            idx = self.rho.grid.indices_of(config)
            vals = vals * np.sqrt(self.rho.values[tuple(idx.T)])[None, :]
        return vals


def slater(orbitals: OrbitalSet, config) -> float:
    """Normalized Slater determinant (1/sqrt(n!)) det(phi_i(x_j))."""
    mat = orbitals.matrix(config)
    return float(np.linalg.det(mat) / math.sqrt(math.factorial(orbitals.n)))


def det_square_identity(orbitals: OrbitalSet, config) -> tuple:
    """Both sides of the disjoint-support determinant-square collapse.

    Returns ``(lhs, rhs)`` with ``lhs = det(phi_i(x_j))**2`` and
    ``rhs = sum_sigma prod_k phi_{sigma(k)}(x_k)**2``; they agree to rounding
    whenever the orbital centers are at least 2 eps apart.
    """
    if orbitals.min_center_distance() < 2.0 * orbitals.eps:
        raise ValidationError("identity requires disjoint supports")
    mat = orbitals.matrix(config)
    lhs = float(np.linalg.det(mat) ** 2)
    rhs = sum(float(np.prod(mat[perm, np.arange(orbitals.n)] ** 2))
              for perm in permutations(orbitals.n))
    return lhs, float(rhs)


class SingleParticleSum(Observable):
    """sum_j phi(x_j) for a scalar phi with supplied derivatives.

    ``phi``, ``dphi``, ``d2phi`` act on coordinate arrays of shape (m, dim).
    """

    def __init__(self, phi: Callable, dphi: Callable, d2phi: Callable):
        self.phi = phi
        self.dphi = dphi
        self.d2phi = d2phi

    def value_many(self, configs):
        configs = np.asarray(configs, dtype=float)
        return sum(np.asarray(self.phi(configs[:, j]), dtype=float)
                   for j in range(configs.shape[1]))

    def grad_many(self, configs, j):
        configs = np.asarray(configs, dtype=float)
        g = np.asarray(self.dphi(configs[:, j]), dtype=float)
        return g.reshape(configs.shape[0], configs.shape[2])

    def hess_many(self, configs, j, k):
        configs = np.asarray(configs, dtype=float)
        m, _, d = configs.shape
        if j != k:
            return np.zeros((m, d, d))
        hs = np.asarray(self.d2phi(configs[:, j]), dtype=float)
        return hs.reshape(m, d, d)


class Constant(Observable):
    def __init__(self, c: float = 1.0):
        self.c = float(c)

    def value_many(self, configs):
        return np.full(np.asarray(configs).shape[0], self.c)

    def grad_many(self, configs, j):
        m, _, d = np.asarray(configs).shape
        return np.zeros((m, d))

    def hess_many(self, configs, j, k):
        m, _, d = np.asarray(configs).shape
        return np.zeros((m, d, d))
