"""Fermionic mixed state built over a marginal-pinned smoothed plan.

The state is an integral of rank-one projections onto Slater determinants of
the localized orbitals ``f_z(x) = sqrt(rho(x)) * amp(x - z)``, weighted by the
same (atom, z)-quadrature measure that defines the smoothed plan.  The
orbitals live in index space: ``x`` and ``z`` are grid nodes and ``amp`` is
the kernel's table at the integer offset ``x - z`` (``GridKernel.amp_of``).
With ``A(X, Z)_{ij} = amp(x_j - z_i)`` the kernel on configuration pairs is

    K(X; X') = 1/n! * sum_atoms w * sum_Z prod_i q_i(z_i)
               * det A(X, Z) * det A(X', Z)
               * prod_k sqrt(rho(x_k) rho(x'_k)) * h^{d n},

where ``z_i`` runs over the window of the atom's i-th coordinate and
``q_i = kappa / (rho * kappa)`` there.  The weights are a product over
particles, so the sum over Z factorizes into one n x n matrix per
atom-coordinate center c, ``M_c = A_c^T diag(q_c) A'_c``:

    sum_Z prod_i q_i(z_i) det A(X, Z) det A(X', Z)
        = sum_{sigma, tau} sgn(sigma) sgn(tau) prod_i M_i[sigma(i), tau(i)].

Because the z windows of distinct atom coordinates are disjoint (the plan
separation exceeds 4 eps), the determinant square collapses to a permutation
sum and the diagonal of the kernel equals the smoothed plan density exactly.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ValidationError
from .grids import GridDensity, h1_seminorm_sqrt
from .mollifier import GridKernel, offset_sum
from .regularizer import RegularizedPlan, kinetic_term

MAX_DENSE_ENTRIES = 1 << 24


def _parity(perm) -> int:
    """Sign of the permutation ``i -> perm[i]``: -1 to the number of
    even-length cycles."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def _signed_permutations(n: int) -> tuple:
    """All permutations of range(n) as rows of an array, and their signs."""
    perms = np.array(list(itertools.permutations(range(n))))
    return perms, np.array([_parity(p) for p in perms])


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
    perms, _ = _signed_permutations(orbitals.n)
    rhs = sum(float(np.prod(mat[perm, np.arange(orbitals.n)] ** 2)) for perm in perms)
    return lhs, float(rhs)


class MixedStateKernel:
    """The fermionic mixed state over a smoothed plan, kernel-level API."""

    def __init__(self, rp: RegularizedPlan):
        self.rp = rp
        self.sqrt_rho = np.sqrt(rp.rho.values).ravel()
        # per center: window node multi-indices and weights q, padded with q = 0
        width = max(q.size for _, _, q in rp.windows)
        self._z = np.zeros((len(rp.windows), width, rp.grid.dim), dtype=int)
        self._q = np.zeros((len(rp.windows), width))
        for c, (flat_z, _, q) in enumerate(rp.windows):
            self._z[c, :q.size] = np.stack(np.unravel_index(flat_z, rp.grid.shape), -1)
            self._q[c, :q.size] = q
        # per center: the nodes x its window reaches, amp(x - z) != 0 for some z
        marks = np.zeros((len(rp.windows), rp.grid.n_sites))
        for c, (flat_z, _, _) in enumerate(rp.windows):
            marks[c, flat_z] = 1.0
        support = rp.kernel.offsets[rp.kernel.amp != 0.0]
        self._reaches = offset_sum(marks.reshape((-1,) + rp.grid.shape), support,
                                   np.ones(len(support))).reshape(len(marks), -1) > 0
        self._perms = _signed_permutations(rp.n)

    @property
    def n(self) -> int:
        return self.rp.n

    @property
    def grid(self):
        return self.rp.grid

    @cached_property
    def window_tuples(self) -> tuple:
        """Every atom's window node tuples ``(m, n)`` as flat node indices, and
        their weights ``w * prod_i q_i(z_i) * h^{d n}``."""
        rp = self.rp
        tuples, weights = [], []
        for a in range(rp.source.n_atoms):
            wins = [rp.windows[c] for c in rp.center_of[a]]
            nodes = np.meshgrid(*[flat_z for flat_z, _, _ in wins], indexing="ij")
            qs = np.meshgrid(*[q for _, _, q in wins], indexing="ij")
            tuples.append(np.stack([g.ravel() for g in nodes], axis=1))
            weight = rp.source.weights[a] * np.ones(qs[0].size)
            for g in qs:
                weight *= g.ravel()
            weights.append(weight * rp.grid.cell_volume**rp.n)
        return np.concatenate(tuples), np.concatenate(weights)

    def _block_eval(self, x: np.ndarray, xp: np.ndarray) -> float:
        """Kernel value for sorted blocks of flat node indices, through the
        factorized sum over window tuples (see the module docstring)."""
        rp = self.rp
        n = rp.n
        root = float(np.prod(self.sqrt_rho[x]) * np.prod(self.sqrt_rho[xp]))
        if root == 0.0:
            return 0.0
        # the atoms whose centers reach every coordinate of both blocks, and
        # the amplitudes and M_c of their centers only
        both = np.concatenate((x, xp))
        hits = self._reaches[:, both][rp.center_of]        # (n_atoms, n, 2n)
        atoms = np.flatnonzero(hits.any(axis=1).all(axis=1))
        if atoms.size == 0:
            return 0.0
        centers = rp.center_of[atoms]
        nodes = np.stack(np.unravel_index(both, rp.grid.shape), axis=-1)
        amps = rp.kernel.amp_of(nodes - self._z[centers][..., None, :])
        m = np.einsum("akzj,akz,akzl->akjl",
                      amps[..., :n], self._q[centers], amps[..., n:])
        perms, signs = self._perms
        terms = np.ones((atoms.size, len(perms), len(perms)))
        for i in range(n):
            terms *= m[:, i][:, perms[:, i][:, None], perms[:, i][None, :]]
        total = np.einsum("a,ast,s,t->", rp.source.weights[atoms], terms, signs, signs)
        return float(total) * root * rp.grid.cell_volume**n / math.factorial(n)


def kernel_eval(K: MixedStateKernel, config, config_p) -> float:
    """Kernel value K(X; X') of the state on the grid.

    Coordinates are snapped to their nearest nodes, as
    :meth:`RegularizedPlan.evaluate` does, so the diagonal equals the
    smoothed plan density exactly.  Each block's flat node indices are then
    sorted and the parities of the sorts applied afterwards, so antisymmetry
    under particle exchange holds exactly, not just to rounding; a block that
    repeats a node gives exactly 0 (Pauli).
    """
    grid = K.grid
    sign = 1
    blocks = []
    for c in (config, config_p):
        idx = grid.indices_of(np.asarray(c, dtype=float).reshape(K.n, grid.dim))
        flat = np.ravel_multi_index(tuple(idx.T), grid.shape)
        order = np.argsort(flat)
        if np.any(np.diff(flat[order]) == 0):
            return 0.0
        sign *= _parity(order)
        blocks.append(flat[order])
    return sign * K._block_eval(*blocks)


def trace(K: MixedStateKernel) -> float:
    """Tensor-grid quadrature of the kernel diagonal.

    The diagonal equals the smoothed plan density, whose tensor sum
    factorizes over coordinates; the factorized form is summed here.
    """
    return K.rp.mass()


def one_particle_density(K: MixedStateKernel) -> GridDensity:
    """Partial diagonal trace over coordinates 2..n.

    Atom a adds ``w * prod_{k >= 2} m_k * T_{c(a,1)}`` (``m_k`` the masses of
    its other transfer vectors); the coefficients are summed per center.
    """
    rp = K.rp
    masses = rp.center_masses()[rp.center_of]
    coef = rp.source.weights * masses[:, 1:].prod(axis=1)
    per_center = np.bincount(rp.center_of[:, 0], weights=coef, minlength=len(rp.centers))
    return GridDensity(rp.grid, (per_center @ rp.transfer).reshape(rp.grid.shape))


_GAUSS_PTS, _GAUSS_WTS = np.polynomial.legendre.leggauss(16)


def _orbital_energy(rp: RegularizedPlan, flat_z: int) -> float:
    """Integral of |grad(sqrt(rho) amp(. - z))|^2 for z the node ``flat_z``.

    The gradient is the product rule with the analytic kernel derivative and
    finite-difference slopes of sqrt(rho); the integral is done cell by cell
    with Gauss quadrature, sqrt(rho) taken piecewise linear.
    """
    grid = rp.grid
    h = grid.h
    g = np.sqrt(rp.rho.values)
    # the kernel's own profile: wider than rp.m for the one-node kernel
    m = rp.kernel.m
    scale = 1.0 / math.sqrt(rp.kernel.norm)
    axis = grid.axis()
    zpos = axis[flat_z]
    i0 = max(int(math.floor((zpos - m.eps - grid.origin[0]) / h)), 0)
    i1 = min(int(math.ceil((zpos + m.eps - grid.origin[0]) / h)), grid.npts - 1)
    cells = axis[i0:i1]
    slopes = (g[i0 + 1:i1 + 1] - g[i0:i1]) / h
    xq = cells[:, None] + 0.5 * h * (_GAUSS_PTS + 1.0)[None, :]
    gq = g[i0:i1][:, None] + slopes[:, None] * (xq - cells[:, None])
    u = xq - zpos
    amp = m.radial(np.abs(u)) * scale
    amp_d = m.radial_deriv(np.abs(u)) * np.sign(u) * scale
    integrand = (slopes[:, None] * amp + gq * amp_d) ** 2
    return float((integrand * (0.5 * h * _GAUSS_WTS)[None, :]).sum())


def kinetic_trace(K: MixedStateKernel) -> tuple:
    """Kinetic energy of the state, two independent ways.

    ``analytic`` assembles n * (H1 seminorm of sqrt(rho) + w^-2 * profile
    gradient moment), w the width of the kernel the state is built from
    (see :func:`kinetic_term`).  ``quadrature`` integrates the squared
    gradient of each localized orbital sqrt(rho) amp(. - z) (see
    :func:`_orbital_energy`) against the (atom, z) measure, summed per
    center: the atom weights binned over ``center_of`` times each center's
    ``sum_z E(z) q_z``.  The two sides agree up to second-order
    discretization error.  One-dimensional grids only.
    """
    rp = K.rp
    grid = rp.grid
    if grid.dim != 1:
        raise ValidationError("kinetic_trace implemented for 1-d grids")
    analytic = kinetic_term(rp.n, h1_seminorm_sqrt(rp.rho),
                            rp.m.base.moments()[0], rp.kernel.m.eps)

    nodes = np.unique(np.concatenate([flat_idx for flat_idx, _, _ in rp.windows]))
    energy = np.zeros(grid.n_sites)
    energy[nodes] = [_orbital_energy(rp, int(z)) for z in nodes]
    per_center = np.array([energy[flat_idx] @ q for flat_idx, _, q in rp.windows])
    center_weight = np.bincount(rp.center_of.ravel(),
                                weights=np.repeat(rp.source.weights, rp.n),
                                minlength=len(rp.windows))
    quad = float(center_weight @ per_center) * grid.cell_volume
    return float(analytic), quad


def quadratic_form(K: MixedStateKernel, psi: np.ndarray) -> float:
    """<psi, Gamma psi> for a test vector on the n-fold tensor grid.

    Evaluated through the rank-one structure.  ``psi * sqrt(rho)`` correlated
    with ``amp`` along each particle axis (:func:`offset_sum`; off-grid nodes
    count as zero) holds the overlap of psi with every product orbital
    ``f_{z_1} x ... x f_{z_n}``; the overlap with a Slater determinant is its
    signed sum over the orderings of the window tuple, squared and weighted.
    """
    rp = K.rp
    n, grid = rp.n, rp.grid
    c = np.asarray(psi, dtype=float).reshape(grid.shape * n)
    root = K.sqrt_rho.reshape(grid.shape)
    for _ in range(n):
        # correlate the last particle's axes, then rotate them to the front
        c = offset_sum(c * root, -rp.kernel.offsets, rp.kernel.amp)
        c = np.moveaxis(c, range(c.ndim - grid.dim, c.ndim), range(grid.dim))
    c = c.ravel()
    tuples, weights = K.window_tuples
    perms, signs = K._perms
    overlaps = np.zeros(tuples.shape[0])
    for perm, sign in zip(perms, signs):
        flat = np.ravel_multi_index(tuples[:, perm].T, (grid.n_sites,) * n)
        overlaps += sign * c[flat]
    overlaps *= grid.cell_volume**n / math.sqrt(math.factorial(n))
    return float((weights * overlaps**2).sum())


def dense_kernel_matrix(K: MixedStateKernel,
                        max_entries: int = MAX_DENSE_ENTRIES) -> np.ndarray:
    """Dense (n_sites^n, n_sites^n) kernel matrix, for desk-size checks.

    The reference the tests compare :func:`kernel_eval` and
    :func:`quadratic_form` against: one explicit Slater vector per window
    tuple, from orbital columns ``f_z(x) = sqrt(rho(x)) * amp(x - z)`` over
    every node x.
    """
    rp = K.rp
    n = rp.n
    s = rp.grid.n_sites
    dim_total = s**n
    tuples, weights = K.window_tuples
    rows = tuples.shape[0]
    if rows * dim_total > max_entries:
        raise ValidationError(
            f"dense kernel of {rows} x {dim_total} entries exceeds the "
            f"{max_entries} limit"
        )
    zs, col_of = np.unique(tuples, return_inverse=True)
    col_of = col_of.reshape(tuples.shape)
    nodes = np.stack(np.unravel_index(np.arange(s), rp.grid.shape), axis=-1)
    cols = K.sqrt_rho[:, None] * rp.kernel.amp_of(nodes[:, None] - nodes[None, zs])
    perms, signs = K._perms
    b = np.zeros((rows, dim_total))
    for perm, sign in zip(perms, signs):
        # per tuple: the product state prod_j f_{z_perm(j)}(x_j), flattened
        term = cols[:, col_of[:, perm[0]]].T
        for j in range(1, n):
            nxt = cols[:, col_of[:, perm[j]]].T
            term = (term[:, :, None] * nxt[:, None, :]).reshape(rows, -1)
        b += sign * term
    b /= math.sqrt(math.factorial(n))
    return (b * weights[:, None]).T @ b
