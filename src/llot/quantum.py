"""Fermionic mixed state built over a marginal-pinned smoothed plan.

The state is an integral of rank-one projections onto Slater determinants of
the localized orbitals ``f_z(x) = sqrt(rho(x)) * amp(x - z)``, weighted by the
same (atom, z)-quadrature measure that defines the smoothed plan.  The
orbitals live in index space: ``x`` and ``z`` are grid nodes and ``amp`` is
the kernel's table ``GridKernel.amp`` at the integer offset ``x - z``.
With ``A(X, Z)_{ij} = amp(x_j - z_i)`` the kernel on configuration pairs is

    K(X; X') = 1/n! * sum_orbits W * sum_Z prod_i q_i(z_i)
               * det A(X, Z) * det A(X', Z)
               * prod_k sqrt(rho(x_k) rho(x'_k)) * h^{d n},

where ``z_i`` runs over the window of the orbit's i-th center and
``q_i = kappa / (rho * kappa)`` there.  The sum runs once per orbit, with the
orbit weight W (:class:`~llot.grids.AtomicPlan`): each of an orbit's n!
orderings, weight ``W / n!``, adds the same signed term, since reordering the
centers permutes the rows of both determinants, so the orderings' sum is the
orbit's term times W.  The ``1/n!`` is the Slater normalization squared.
The weights are a product over particles, so the sum over Z factorizes into
one n x n matrix per atom-coordinate center c, ``M_c = A_c^T diag(q_c) A'_c``:

    sum_Z prod_i q_i(z_i) det A(X, Z) det A(X', Z)
        = sum_{sigma, tau} sgn(sigma) sgn(tau) prod_i M_i[sigma(i), tau(i)].

Center i's orbitals reach only nodes within 2 eps of it, and the guard
``eps < alpha/4`` of ``smooth_plan`` keeps an atom's centers more than 4 eps
apart.  So one term at most survives, where each center i reaches exactly
one node ``x_{sigma(i)}`` of X and one ``x'_{tau(i)}`` of X' (none if a node
repeats), and the kernel takes it alone: n dot products per (row, atom)
pair.  Its diagonal equals the smoothed plan density exactly.  Past the
guard other terms survive and the one-term formula is not the state's kernel.

A window node is ``z = c + o``, so ``amp(x - z)`` vanishes unless ``x`` is
in the box ``c + b`` (``GridKernel.box``) that also holds ``T_c``;
:class:`MixedStateKernel` reads it at ``b = x - c`` from the kernel's table
``amp(b - o)`` over box slots ``b`` and kernel offsets ``o``
(``GridKernel.box_amp``).

Configurations come in batches: :func:`kernel_eval` maps two arrays of m
configurations, shape ``(m, n, dim)``, to the m values ``K(X; X')``.  A
row's sign is the inversion parity of its snapped nodes; a row that repeats
a node, or has ``sqrt(rho) = 0`` at one, is exactly 0 (Pauli).

Within an atom the orbitals have disjoint supports, so the one-body density
matrix is ``gamma = sum_z W_z |f_z><f_z|`` over the state's table of distinct
orbitals (:attr:`MixedStateKernel.orbitals`), with ``Tr(gamma) h^d = n``.
The table is gamma's only representation: it gives the density
``diag(gamma) / n`` (:func:`one_particle_density`) and the kinetic energy on
the grid (:func:`kinetic_trace`).  Pauli bounds the spectrum of
``gamma * h^d`` by 1 (Coleman's ensemble N-representability condition), and
:func:`rdm_max_eigenvalue` certifies it on the block of gamma over the support
of rho, formed from the table: every orbital carries the factor sqrt(rho),
so gamma vanishes off that block.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .grids import GridDensity
from .regularizer import BATCH_ENTRIES, RegularizedPlan


def _parity(rows) -> np.ndarray:
    """Sign of each row of ``rows`` (m, k): -1 to the number of its
    inversions, pairs i < j with ``row[i] > row[j]``: the sign of the sort
    of each configuration's nodes in :func:`kernel_eval`, and of the
    surviving term's sigma and tau in :meth:`MixedStateKernel._block_eval`."""
    i, j = np.triu_indices(rows.shape[1], k=1)
    return 1 - 2 * ((rows[:, i] > rows[:, j]).sum(axis=1) % 2)


class MixedStateKernel:
    """The fermionic mixed state over a smoothed plan, kernel-level API."""

    def __init__(self, rp: RegularizedPlan):
        self.rp = rp
        self.sqrt_rho = np.sqrt(rp.rho.values).ravel()

    @property
    def n(self) -> int:
        return self.rp.n

    @property
    def grid(self):
        return self.rp.grid

    @cached_property
    def orbitals(self) -> tuple:
        """The state's distinct orbitals and their weights, ``(nodes, values,
        weights)``, one row per distinct window node z (ascending).

        ``nodes[k, j]`` is the flat index of ``z + o_j`` over the kernel
        offsets ``o_j`` (-1 off the grid) and ``values[k, j]`` the orbital
        there, ``f_z(z + o_j) = sqrt(rho)(z + o_j) * amp(o_j)`` (0 off the
        grid).  ``weights[k]`` is ``W_z = h^d * sum_{c + o = z} coef_c *
        q_c(o)``, ``coef_c`` the plan's ``center_weights``; then ``gamma =
        sum_z W_z |f_z><f_z|``.
        """
        rp = self.rp
        grid = rp.grid
        per_node = np.bincount(rp.window.ravel(),
                               weights=(rp.center_weights[:, None] * rp.q).ravel(),
                               minlength=grid.n_sites)
        zs = np.unique(rp.window)
        nodes = grid.flat_index(grid.multi_index(zs)[:, None, :]
                                + rp.kernel.offsets[None, :, :])
        values = np.append(self.sqrt_rho, 0.0)[nodes] * rp.kernel.amp
        return nodes, values, per_node[zs] * grid.cell_volume

    def _block_eval(self, x: np.ndarray, xp: np.ndarray) -> np.ndarray:
        """The surviving term (module docstring) summed over the orbits,
        without its factor ``root h^{dn} / n!``, for rows (m, n) of sorted
        flat node indices ``x`` and ``xp``; shape (m,).  A (row, atom) pair
        has it where each center reaches one node of each block and every
        node is reached, so that sigma and tau are permutations."""
        rp = self.rp
        n = rp.n
        # per row, center and node: the slot of x - c in the center's box,
        # -1 off it; the box table's row there is amp(x - c - o) over the
        # window, nonzero where some window node's orbital reaches the slot
        nodes = rp.grid.multi_index(np.concatenate((x, xp), axis=1))
        slot, inside = rp.kernel.box_slot(nodes[:, None, :, :] - rp.centers[None, :, None, :])
        slot = np.where(inside, slot, -1)                        # (m, n_centers, 2n)
        hits = rp.kernel.box_amp.any(axis=1)[slot][:, rp.center_of]  # (m, n_atoms, n, 2n)
        row, atom = np.nonzero(hits.any(axis=2).all(axis=2))
        reach = hits[row, atom]                                  # (pairs, n, 2n)
        one = np.all(reach.reshape(-1, n, 2, n).sum(axis=3) == 1, axis=(1, 2))
        row, atom, reach = row[one], atom[one], reach[one]
        sigma, tau = reach[:, :, :n].argmax(axis=2), reach[:, :, n:].argmax(axis=2)
        centers = rp.center_of[atom]                             # (pairs, n)
        box = rp.kernel.box_amp
        m = np.einsum("pkz,pkz,pkz->pk", box[slot[row[:, None], centers, sigma]],
                      rp.q[centers], box[slot[row[:, None], centers, n + tau]])
        pairs = rp.source.weights[atom] * (_parity(sigma) * _parity(tau) * np.prod(m, axis=1))
        return np.bincount(row, weights=pairs, minlength=len(x))


def kernel_eval(K: MixedStateKernel, configs, configs_p) -> np.ndarray:
    """Kernel values ``K(X; X')`` of the state on the grid for two batches
    of m configurations, shape (m, n, dim); returns shape (m,).

    Coordinates are snapped to their nearest nodes by
    :meth:`RegularizedPlan.config_nodes`, as in
    :meth:`RegularizedPlan.evaluate`, so the diagonal equals the
    smoothed plan density exactly.  Each row's flat node indices are then
    sorted and the rows' inversion parities applied afterwards, so
    antisymmetry under particle exchange holds exactly, not just to
    rounding.  A (row, atom) pair adds one term at most, exact under the
    guard ``eps < alpha/4`` (module docstring).  A row that repeats a node,
    or has ``sqrt(rho) = 0`` at one, gives exactly 0 (Pauli).  The other
    rows run in chunks of ``BATCH_ENTRIES`` (row, center, node, axis) index
    entries, so the working set does not grow with m.
    """
    grid = K.grid
    x, xp = (grid.flat_index(idx) for idx in K.rp.config_nodes(configs, configs_p))
    sign = _parity(x) * _parity(xp)
    x, xp = np.sort(x, axis=1), np.sort(xp, axis=1)
    root = np.prod(K.sqrt_rho[x], axis=1) * np.prod(K.sqrt_rho[xp], axis=1)
    live = np.flatnonzero(root != 0.0)
    total = np.zeros(len(x))
    step = max(1, BATCH_ENTRIES // (len(K.rp.centers) * 2 * K.n * grid.dim))
    for lo in range(0, live.size, step):
        rows = live[lo:lo + step]
        total[rows] = K._block_eval(x[rows], xp[rows])
    return sign * (total * root * grid.cell_volume**K.n / math.factorial(K.n))


def one_particle_density(K: MixedStateKernel) -> GridDensity:
    """Partial diagonal trace over coordinates 2..n, ``diag(gamma) / n``,
    read off the orbital table as ``sum_z W_z f_z(x)^2 / n`` in one scatter.

    For a symmetric plan it is ``sum_c coef_c T_c / n``, the smoothed plan's
    marginal (:meth:`RegularizedPlan.density`), and so ``rho``.
    """
    nodes, values, weights = K.orbitals
    on = nodes >= 0
    diag = np.bincount(nodes[on], weights=(weights[:, None] * values * values)[on],
                       minlength=K.grid.n_sites)
    return GridDensity(K.grid, (diag / K.n).reshape(K.grid.shape))


def kinetic_trace(K: MixedStateKernel) -> float:
    """Kinetic energy of the state on the grid, ``Tr(-Delta_h gamma)``.

    It is ``sum_z W_z E_h(z)`` over the orbital table
    (:attr:`MixedStateKernel.orbitals`), where ``E_h(z)`` sums
    ``|f_z(x + h e_k) - f_z(x)|^2 h^(d-2)`` over every grid edge, the orbital
    taken as 0 off its kernel box (and off the grid).  It differs from the
    continuum formula :func:`~llot.regularizer.kinetic_term` by O((h/w)^2)
    discretization, w the kernel width.  Any dimension.
    """
    rp = K.rp
    grid = rp.grid
    _, values, weights = K.orbitals
    # each orbital on its kernel box padded by one node of zeros
    r = rp.kernel.halfwidth
    box = np.zeros((len(values),) + (2 * r + 3,) * grid.dim)
    box[(slice(None),) + tuple((rp.kernel.offsets + r + 1).T)] = values
    energy = sum((np.diff(box, axis=1 + k) ** 2).reshape(len(values), -1).sum(axis=1)
                 for k in range(grid.dim))
    return float(weights @ energy) * grid.h ** (grid.dim - 2)


def rdm_max_eigenvalue(K: MixedStateKernel) -> float:
    """Largest eigenvalue of the one-body density matrix, as an operator on
    the grid (``gamma * h^d``).

    A fermionic state has it at most 1 (Pauli).  ``gamma`` vanishes off the
    support S of rho, so the dense eigenproblem is taken on its S x S block,
    formed from the orbital table: the table is scattered onto one row per
    node of S, and off-support nodes and node -1 land in a dropped last row.
    """
    nodes, values, weights = K.orbitals
    support = np.flatnonzero(K.sqrt_rho)
    row = np.full(K.grid.n_sites + 1, len(support))
    row[support] = np.arange(len(support))
    f = np.zeros((len(support) + 1, len(values)))
    f[row[nodes], np.arange(len(values))[:, None]] = values
    f = f[:-1]
    return float(np.linalg.eigvalsh((f * weights) @ f.T * K.grid.cell_volume)[-1])
