"""Fermionic mixed state built over a marginal-pinned smoothed plan.

The state is an integral of rank-one projections onto Slater determinants of
the localized orbitals ``f_z(x) = sqrt(rho(x)) * amp(x - z)``, weighted by the
same (atom, z)-quadrature measure that defines the smoothed plan.  Its kernel
on configuration pairs is

    K(X; X') = 1/n! * sum_atoms w * sum_Z det(amp(x_j - z_i))
               * det(amp(x'_j - z_i)) * prod_k sqrt(rho(x_k) rho(x'_k))
               * prod_k kappa(z_k - y_k) / (rho*kappa)(z_k) * h^{d n}.

Because the z windows of distinct atom coordinates are disjoint (the plan
separation exceeds 4 eps), the determinant square collapses to a permutation
sum and the diagonal of the kernel equals the smoothed plan density exactly.
All traces reduce to one-dimensional sums; nothing dense is ever required.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from .errors import ValidationError
from .grids import GridDensity, h1_seminorm_sqrt
from .mollifier import GridKernel
from .regularizer import RegularizedPlan, kinetic_term

MAX_DENSE_ENTRIES = 1 << 24


def _permutations_with_sign(n: int):
    perms = []
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        perms.append((perm, sign))
    return perms


def _sort_block(config: np.ndarray):
    """Lexicographic sort of particle rows; returns (sorted, permutation sign)."""
    keys = tuple(config[:, d] for d in reversed(range(config.shape[1])))
    order = np.lexsort(keys)
    sign = 1
    seen = [False] * len(order)
    perm = list(order)
    for start in range(len(order)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return config[order], sign


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
        """Orbital values phi_i(x_j), shape (n, n)."""
        config = np.asarray(config, dtype=float).reshape(self.n, -1)
        disp = config[None, :, :] - self.centers[:, None, :]
        vals = self.kernel.amp_at(disp)
        if self.rho is not None:
            g = self.rho.grid
            root = np.array([
                math.sqrt(self.rho.values[g.index_of(x)]) for x in config
            ])
            vals = vals * root[None, :]
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
    rhs = 0.0
    for perm, _ in _permutations_with_sign(orbitals.n):
        prod = 1.0
        for k in range(orbitals.n):
            prod *= mat[perm[k], k] ** 2
        rhs += prod
    return lhs, float(rhs)


class MixedStateKernel:
    """The fermionic mixed state over a smoothed plan, kernel-level API."""

    def __init__(self, rp: RegularizedPlan):
        self.rp = rp
        self.sqrt_rho = np.sqrt(rp.rho.values).ravel()
        self.points = rp.grid.points()
        # per atom and coordinate: window node positions, kappa/denom weights
        self._atom_windows = []
        for a in range(rp.source.n_atoms):
            wins = []
            for k in range(rp.n):
                flat_idx, kap, q = rp.windows[rp.center_of[a, k]]
                wins.append((flat_idx, self.points[flat_idx], q))
            self._atom_windows.append(wins)

    @property
    def n(self) -> int:
        return self.rp.n

    @property
    def grid(self):
        return self.rp.grid

    def _block_eval(self, x_sorted: np.ndarray, xp_sorted: np.ndarray) -> float:
        """Kernel value for canonically ordered blocks of node coordinates."""
        rp = self.rp
        grid = rp.grid
        n = rp.n
        cell = grid.cell_volume
        root_x = np.array([self.sqrt_rho[grid.flat_index_of(x)] for x in x_sorted])
        root_xp = np.array([self.sqrt_rho[grid.flat_index_of(x)] for x in xp_sorted])
        amp_scale = float(np.prod(root_x) * np.prod(root_xp))
        if amp_scale == 0.0:
            return 0.0
        total = 0.0
        for a in range(rp.source.n_atoms):
            wins = self._atom_windows[a]
            mats = []
            matps = []
            skip = False
            for i in range(n):
                _, zpos, _ = wins[i]
                vi = rp.kernel.amp_at(x_sorted[None, :, :] - zpos[:, None, :])
                vpi = rp.kernel.amp_at(xp_sorted[None, :, :] - zpos[:, None, :])
                mats.append(vi)     # (w_i, n): columns are x_j
                matps.append(vpi)
            for j in range(n):
                if all(m[:, j].max() == 0.0 for m in mats) or \
                   all(m[:, j].max() == 0.0 for m in matps):
                    skip = True
                    break
            if skip:
                continue
            sizes = [w[0].size for w in wins]
            idx = np.stack([g.ravel() for g in np.meshgrid(
                *[np.arange(s) for s in sizes], indexing="ij")], axis=1)
            m_batch = np.empty((idx.shape[0], n, n))
            mp_batch = np.empty((idx.shape[0], n, n))
            weight = np.ones(idx.shape[0])
            for i in range(n):
                m_batch[:, i, :] = mats[i][idx[:, i]]
                mp_batch[:, i, :] = matps[i][idx[:, i]]
                weight *= wins[i][2][idx[:, i]]
            dets = np.linalg.det(m_batch) * np.linalg.det(mp_batch)
            total += rp.source.weights[a] * float((dets * weight).sum())
        return total * amp_scale * cell**n / math.factorial(n)


def kernel_eval(K: MixedStateKernel, config, config_p) -> float:
    """Kernel value K(X; X') of the state on the grid.

    Coordinates are snapped to their nearest nodes, as
    :meth:`RegularizedPlan.evaluate` does, so the diagonal equals the
    smoothed plan density exactly.  Argument blocks are then brought to a
    canonical particle order and the permutation parities applied afterwards,
    so antisymmetry under particle exchange holds exactly, not just to
    rounding.
    """
    n, dim, grid = K.n, K.rp.source.dim, K.grid

    def snapped(c):
        c = np.asarray(c, dtype=float).reshape(n, dim)
        return np.array([grid.node(grid.index_of(x)) for x in c])

    x, xp = snapped(config), snapped(config_p)
    xs, sign_x = _sort_block(x)
    xps, sign_xp = _sort_block(xp)
    return sign_x * sign_xp * K._block_eval(xs, xps)


def trace(K: MixedStateKernel) -> float:
    """Tensor-grid quadrature of the kernel diagonal.

    The diagonal equals the smoothed plan density, whose tensor sum
    factorizes over coordinates; the factorized form is summed here.
    """
    return K.rp.mass()


def one_particle_density(K: MixedStateKernel) -> GridDensity:
    """Partial diagonal trace over coordinates 2..n."""
    rp = K.rp
    cell = rp.grid.cell_volume
    acc = np.zeros(rp.grid.n_sites)
    for a in range(rp.source.n_atoms):
        w = rp.source.weights[a]
        tail = 1.0
        for k in range(1, rp.n):
            tail *= rp.transfer[rp.center_of[a, k]].sum() * cell
        acc += w * tail * rp.transfer[rp.center_of[a, 0]]
    return GridDensity(rp.grid, acc.reshape(rp.grid.shape))


_GAUSS_PTS, _GAUSS_WTS = np.polynomial.legendre.leggauss(16)


def kinetic_trace(K: MixedStateKernel) -> tuple:
    """Kinetic energy of the state, two independent ways.

    ``analytic`` assembles n * (H1 seminorm of sqrt(rho) + w^-2 * profile
    gradient moment), w the width of the kernel the state is built from
    (see :func:`kinetic_term`).  ``quadrature`` integrates the squared
    gradient of each localized orbital sqrt(rho) amp(. - z) against the
    (atom, z) measure: the gradient is the product rule with the analytic
    kernel derivative and finite-difference slopes of sqrt(rho), and the
    spatial integral is done cell by cell with Gauss quadrature (sqrt(rho)
    taken piecewise linear).  The two sides agree up to second-order
    discretization error.  One-dimensional grids only.
    """
    rp = K.rp
    grid = rp.grid
    if grid.dim != 1:
        raise ValidationError("kinetic_trace implemented for 1-d grids")
    cell = grid.cell_volume
    analytic = kinetic_term(rp.n, h1_seminorm_sqrt(rp.rho),
                            rp.m.base.moments()[0], rp.kernel.m.eps)

    g = np.sqrt(rp.rho.values)
    axis = grid.axis()
    h = grid.h
    # the kernel's own profile: wider than rp.m for the one-node kernel
    m = rp.kernel.m
    eps = m.eps
    scale = 1.0 / math.sqrt(rp.kernel.norm)
    g_cache: dict = {}

    def orbital_energy(flat_z: int) -> float:
        if flat_z in g_cache:
            return g_cache[flat_z]
        zpos = axis[flat_z]
        i0 = max(int(math.floor((zpos - eps - grid.origin[0]) / h)), 0)
        i1 = min(int(math.ceil((zpos + eps - grid.origin[0]) / h)), grid.npts - 1)
        cells = axis[i0:i1]
        slopes = (g[i0 + 1:i1 + 1] - g[i0:i1]) / h
        xq = cells[:, None] + 0.5 * h * (_GAUSS_PTS + 1.0)[None, :]
        gq = g[i0:i1][:, None] + slopes[:, None] * (xq - cells[:, None])
        u = xq - zpos
        amp = m.radial(np.abs(u)) * scale
        amp_d = m.radial_deriv(np.abs(u)) * np.sign(u) * scale
        integrand = (slopes[:, None] * amp + gq * amp_d) ** 2
        val = float((integrand * (0.5 * h * _GAUSS_WTS)[None, :]).sum())
        g_cache[flat_z] = val
        return val

    quad = 0.0
    for a in range(rp.source.n_atoms):
        w = rp.source.weights[a]
        for k in range(rp.n):
            flat_idx, _, q = rp.windows[rp.center_of[a, k]]
            for fz, qz in zip(flat_idx, q):
                quad += w * orbital_energy(int(fz)) * qz * cell
    return float(analytic), float(quad)


def _atom_tuple_vectors(K: MixedStateKernel, a: int):
    """Orbital column matrix, tuple index array and weights for one atom."""
    rp = K.rp
    wins = K._atom_windows[a]
    sizes = [w[0].size for w in wins]
    idx = np.stack([g.ravel() for g in np.meshgrid(
        *[np.arange(s) for s in sizes], indexing="ij")], axis=1)
    weight = rp.source.weights[a] * np.ones(idx.shape[0])
    for i in range(rp.n):
        weight *= wins[i][2][idx[:, i]]
    weight *= rp.grid.cell_volume**rp.n
    return wins, idx, weight


def _orbital_columns(K: MixedStateKernel, flat_idx: np.ndarray) -> np.ndarray:
    """f_z vectors (n_sites, n_windows) for the window nodes ``flat_idx``."""
    rp = K.rp
    s = rp.grid.n_sites
    cols = np.zeros((s, flat_idx.size))
    base_shape = rp.grid.shape
    for w, fz in enumerate(flat_idx):
        z_idx = np.array(np.unravel_index(int(fz), base_shape))
        field = np.zeros(base_shape)
        for o, v in zip(rp.kernel.offsets, rp.kernel.amp):
            field[tuple(z_idx + o)] = v
        cols[:, w] = field.ravel() * K.sqrt_rho
    return cols


def quadratic_form(K: MixedStateKernel, psi: np.ndarray) -> float:
    """<psi, Gamma psi> for a test vector on the n-fold tensor grid.

    Evaluated through the rank-one structure: the overlap of psi with each
    Slater determinant in the mixture, squared and weighted.
    """
    rp = K.rp
    n = rp.n
    s = rp.grid.n_sites
    psi = np.asarray(psi, dtype=float).reshape((s,) * n)
    cell = rp.grid.cell_volume
    perms = _permutations_with_sign(n)
    total = 0.0
    for a in range(rp.source.n_atoms):
        wins, idx, weight = _atom_tuple_vectors(K, a)
        mats = [_orbital_columns(K, w[0]) for w in wins]
        overlaps = np.zeros(idx.shape[0])
        for perm, sign in perms:
            # axis j of psi contracted against the orbital of slot perm(j)
            c = psi
            for j in range(n):
                c = np.tensordot(c, mats[perm[j]], axes=([0], [0]))
            gathered = c[tuple(idx[:, perm[j]] for j in range(n))]
            overlaps += sign * gathered
        overlaps *= cell**n / math.sqrt(math.factorial(n))
        total += float((weight * overlaps**2).sum())
    return total


def dense_kernel_matrix(K: MixedStateKernel,
                        max_entries: int = MAX_DENSE_ENTRIES) -> np.ndarray:
    """Dense (n_sites^n, n_sites^n) kernel matrix, for desk-size checks."""
    rp = K.rp
    n = rp.n
    s = rp.grid.n_sites
    dim_total = s**n
    rows = sum(int(np.prod([w[0].size for w in K._atom_windows[a]]))
               for a in range(rp.source.n_atoms))
    if rows * dim_total > max_entries:
        raise ValidationError(
            f"dense kernel of {rows} x {dim_total} entries exceeds the "
            f"{max_entries} limit"
        )
    perms = _permutations_with_sign(n)
    blocks = []
    weights = []
    for a in range(rp.source.n_atoms):
        wins, idx, weight = _atom_tuple_vectors(K, a)
        mats = [_orbital_columns(K, w[0]) for w in wins]
        b = np.zeros((idx.shape[0], dim_total))
        for perm, sign in perms:
            # per tuple: the product state prod_j f_{z_perm(j)}(x_j), flattened
            term = mats[perm[0]][:, idx[:, perm[0]]].T
            for j in range(1, n):
                nxt = mats[perm[j]][:, idx[:, perm[j]]].T
                term = (term[:, :, None] * nxt[:, None, :]).reshape(idx.shape[0], -1)
            b += sign * term
        b /= math.sqrt(math.factorial(n))
        blocks.append(b)
        weights.append(weight)
    b_all = np.concatenate(blocks, axis=0)
    w_all = np.concatenate(weights)
    return (b_all * w_all[:, None]).T @ b_all
