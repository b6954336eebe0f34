"""Fermionic mixed state built over a marginal-pinned smoothed plan.

The state is an integral of rank-one projections onto Slater determinants of
the localized orbitals ``f_z(x) = sqrt(rho(x)) * amp(x - z)``, weighted by the
same (atom, z)-quadrature measure that defines the smoothed plan.  The
orbitals live in index space: ``x`` and ``z`` are grid nodes and ``amp`` is
the kernel's table ``GridKernel.amp`` at the integer offset ``x - z``.
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

A window node is ``z = c + o``, so ``amp(x - z)`` vanishes unless ``x`` is
in the box ``c + b`` (``GridKernel.box``) that also holds ``T_c``;
:class:`MixedStateKernel` reads it at ``b = x - c`` from the kernel's table
``amp(b - o)`` over box slots ``b`` and kernel offsets ``o``
(``GridKernel.box_amp``).
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .grids import GridDensity, h1_seminorm_sqrt, permutations
from .mollifier import offset_sum
from .regularizer import RegularizedPlan, kinetic_term


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
    perms = permutations(n)
    return perms, np.array([_parity(p) for p in perms])


class MixedStateKernel:
    """The fermionic mixed state over a smoothed plan, kernel-level API."""

    def __init__(self, rp: RegularizedPlan):
        self.rp = rp
        self.sqrt_rho = np.sqrt(rp.rho.values).ravel()
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
        their weights ``w * prod_i q_i(z_i) * h^{d n}``.

        Atom by atom, each in the C order of its tuple grid; particle axis i
        broadcasts the window row of the atom's i-th center.
        """
        rp = self.rp
        n, n_atoms = rp.n, rp.source.n_atoms
        full = (n_atoms,) + rp.window.shape[1:] * n

        def along(table, i):
            shape = [n_atoms] + [1] * n
            shape[1 + i] = -1
            return table[rp.center_of[:, i]].reshape(shape)

        tuples = np.stack([np.broadcast_to(along(rp.window, i), full).ravel()
                           for i in range(n)], axis=1)
        weights = rp.source.weights.reshape((n_atoms,) + (1,) * n)
        for i in range(n):
            weights = weights * along(rp.q, i)
        return tuples, (weights * rp.grid.cell_volume**n).ravel()

    def _block_eval(self, x: np.ndarray, xp: np.ndarray) -> float:
        """Kernel value for sorted blocks of flat node indices, through the
        factorized sum over window tuples (see the module docstring)."""
        rp = self.rp
        n = rp.n
        root = float(np.prod(self.sqrt_rho[x]) * np.prod(self.sqrt_rho[xp]))
        if root == 0.0:
            return 0.0
        # per center and node: amp(x - c - o) over the window, read from the
        # box table, whose row is nonzero where some window node's orbital
        # reaches the slot; then the atoms whose centers reach every
        # coordinate of both blocks, and M_c of their centers only
        both = np.concatenate((x, xp))
        nodes = np.stack(np.unravel_index(both, rp.grid.shape), axis=-1)
        slot, inside = rp.kernel.box_slot(nodes[None, :, :] - rp.centers[:, None, :])
        rows = rp.kernel.box_amp[np.where(inside, slot, -1)]  # (n_centers, 2n, n_offsets)
        hits = rows.any(axis=2)[rp.center_of]               # (n_atoms, n, 2n)
        atoms = np.flatnonzero(hits.any(axis=1).all(axis=1))
        if atoms.size == 0:
            return 0.0
        centers = rp.center_of[atoms]
        amps = rows[centers]                                 # (atoms, n, 2n, n_offsets)
        m = np.einsum("akjz,akz,aklz->akjl",
                      amps[:, :, :n], rp.q[centers], amps[:, :, n:])
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


def one_particle_density(K: MixedStateKernel) -> GridDensity:
    """Partial diagonal trace over coordinates 2..n.

    Atom a adds ``w * prod_{k >= 2} m_k * T_{c(a,1)}`` (``m_k`` the masses of
    its other transfer vectors); the coefficients are summed per center and
    spread with :meth:`RegularizedPlan.spread`.  The trace itself is
    :meth:`RegularizedPlan.mass`: the kernel diagonal is the smoothed plan
    density, whose tensor sum factorizes over coordinates.
    """
    rp = K.rp
    masses = rp.center_masses()[rp.center_of]
    coef = rp.source.weights * masses[:, 1:].prod(axis=1)
    return rp.spread(np.bincount(rp.center_of[:, 0], weights=coef,
                                 minlength=len(rp.centers)))


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
    # the kernel's own width: h, not rp.eps, for the one-node kernel
    w, profile = rp.kernel.width, rp.kernel.profile
    scale = 1.0 / math.sqrt(rp.kernel.norm)
    axis = grid.axis()
    zpos = axis[flat_z]
    i0 = max(int(math.floor((zpos - w - grid.origin[0]) / h)), 0)
    i1 = min(int(math.ceil((zpos + w - grid.origin[0]) / h)), grid.npts - 1)
    cells = axis[i0:i1]
    slopes = (g[i0 + 1:i1 + 1] - g[i0:i1]) / h
    xq = cells[:, None] + 0.5 * h * (_GAUSS_PTS + 1.0)[None, :]
    gq = g[i0:i1][:, None] + slopes[:, None] * (xq - cells[:, None])
    u = xq - zpos
    # the continuum amplitude w^(-1/2) chi(|u| / w) / sqrt(norm) in d = 1
    amp = w ** -0.5 * profile.radial(np.abs(u) / w) * scale
    amp_d = w ** -1.5 * profile.radial_deriv(np.abs(u) / w) * np.sign(u) * scale
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
    analytic = kinetic_term(rp.n, h1_seminorm_sqrt(rp.rho), rp.kernel)

    nodes = np.unique(rp.window)
    energy = np.zeros(grid.n_sites)
    energy[nodes] = [_orbital_energy(rp, int(z)) for z in nodes]
    # one dot product per window row
    per_center = (energy[rp.window][:, None, :] @ rp.q[:, :, None]).ravel()
    center_weight = np.bincount(rp.center_of.ravel(),
                                weights=np.repeat(rp.source.weights, rp.n),
                                minlength=len(rp.window))
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
