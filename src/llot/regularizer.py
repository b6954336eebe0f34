"""Marginal-pinned smoothing of atomic symmetric plans.

Given a symmetric atomic plan P with binned one-particle marginal rho, the
smoothed plan is represented through per-coordinate transfer vectors

    T_c(x) = rho(x) * sum_z kappa(x - z) kappa(z - c) / (rho * kappa)(z) * h^d

one per distinct atom-coordinate node c, where kappa is the renormalized
squared mollifier kernel on the grid.  The smoothed plan is then

    P_eps(x_1, ..., x_n) = sum_atoms w * prod_k T_{c(atom,k)}(x_k),

a probability density on the n-fold tensor grid.  Each center's window is
the nodes ``z = c + o`` over the kernel offsets ``o``, with the weights
``q(z) = kappa(z - c) / (rho * kappa)(z)``; one table of shape
``(n_centers, n_offsets)`` holds each, ``RegularizedPlan.window`` (flat node
indices) and ``RegularizedPlan.q``, and both the transfer vectors and the
mixed state of :mod:`llot.quantum` are built from it.  ``T_c`` vanishes off
the box ``c + b``, ``|b_k| <= 2 halfwidth`` (``GridKernel.box``), and is
stored there only, one row per center: ``RegularizedPlan.nodes`` (flat node
indices, -1 off the grid) and ``RegularizedPlan.transfer`` (its values).
Because kappa has unit discrete mass and atoms sit on nodes, the
one-particle marginal of P_eps equals rho exactly (up to float rounding),
for every eps.  A width at or below the grid spacing h resolves only the
zero offset, so kappa is the one-node kernel and P_eps = P on the grid (see
:func:`build_regularized`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grids import (
    AtomicPlan,
    Grid,
    GridDensity,
    coulomb,
    is_symmetric,
    l1_gradient,
    marginal,
    separation,
    snap_to_grid,
)
from .mollifier import GridKernel, convolve_sq, offset_sum

DENOM_FLOOR = 1e-300
MAX_TENSOR_ENTRIES = 1 << 22
MARGINAL_TOL = 1e-8   # L1 distance allowed between rho and the binned plan marginal


class RegularizedPlan:
    """Evaluator for the marginal-pinned smoothing of an atomic plan."""

    def __init__(self, prep: "PreparedPlan", eps: float, kernel: GridKernel,
                 nodes: np.ndarray, transfer: np.ndarray, window: np.ndarray,
                 q: np.ndarray):
        self.source = prep.source
        self.rho = prep.rho
        self.alpha = prep.alpha
        self.centers = prep.centers      # (n_centers, dim) multi-indices
        self.center_of = prep.center_of  # (n_atoms, n) -> row of the tables
        self.eps = eps                  # the requested width; the kernel's is max(eps, h)
        self.kernel = kernel
        self.nodes = nodes              # (n_centers, n_box) flat nodes c + b, -1 off the grid
        self.transfer = transfer        # (n_centers, n_box) T_c there, 0 off the grid
        self.window = window            # (n_centers, n_offsets) flat nodes c + o
        self.q = q                      # kappa / (rho * kappa) there, 0 where kappa = 0
        self._tensor = None             # read-only dense tensor, built on first use

    @property
    def grid(self) -> Grid:
        return self.rho.grid

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def one_node_kernel(self) -> bool:
        """True when kappa is the one-node kernel, so that P_eps = P."""
        return len(self.kernel.offsets) == 1

    def evaluate(self, config) -> float:
        """P_eps at a configuration (coordinates snapped to nearest nodes)."""
        config = np.asarray(config, dtype=float).reshape(self.n, self.source.dim)
        diff = self.grid.indices_of(config) - self.centers[self.center_of]
        slot, inside = self.kernel.box_slot(diff)          # (n_atoms, n)
        factors = np.where(inside, self.transfer[self.center_of, np.where(inside, slot, 0)],
                           0.0)
        return float((self.source.weights * factors.prod(axis=1)).sum())

    def tensor(self) -> np.ndarray:
        """Dense density on the n-fold tensor grid, shape grid.shape * n.

        One contraction over atoms, ``(w T_0 ... T_{n-2})^T @ T_{n-1}`` with
        the first n-1 factors as an outer product per atom; atoms are taken
        in chunks so that no intermediate exceeds ``MAX_TENSOR_ENTRIES``,
        which also caps the tensor itself.  Built once and returned
        read-only, so the kinetic and the potential checks share one build.
        """
        if self._tensor is None:
            t = self._build_tensor()
            t.flags.writeable = False
            self._tensor = t
        return self._tensor

    def _build_tensor(self) -> np.ndarray:
        s = self.grid.n_sites
        if s**self.n > MAX_TENSOR_ENTRIES:
            raise ValidationError(
                f"tensor grid of {s}^{self.n} = {s**self.n} entries exceeds "
                f"the {MAX_TENSOR_ENTRIES} limit"
            )
        step = max(1, MAX_TENSOR_ENTRIES // s ** max(self.n - 1, 1))
        flat = np.zeros((s ** (self.n - 1), s))
        for lo in range(0, self.source.n_atoms, step):
            rows = slice(lo, lo + step)
            t = self._grid_rows(self.center_of[rows])     # (atoms, n, n_sites)
            left = self.source.weights[rows, None]
            for k in range(self.n - 1):
                left = (left[:, :, None] * t[:, k, None, :]).reshape(left.shape[0], -1)
            flat += left.T @ t[:, -1]
        return flat.reshape(self.grid.shape * self.n)

    def _grid_rows(self, centers: np.ndarray) -> np.ndarray:
        """The transfer vectors of an array of centers as whole-grid rows; an
        extra last column takes the box slots off the grid (node -1)."""
        rows = np.zeros(centers.shape + (self.grid.n_sites + 1,))
        flat = rows.reshape(-1, rows.shape[-1])
        flat[np.arange(len(flat))[:, None], self.nodes[centers.ravel()]] = \
            self.transfer[centers.ravel()]
        return rows[..., :-1]

    def center_masses(self) -> np.ndarray:
        """Quadrature mass of each transfer vector ``T_c``."""
        return self.transfer.sum(axis=1) * self.grid.cell_volume

    def mass(self) -> float:
        masses = self.center_masses()[self.center_of]   # (n_atoms, n)
        return float((self.source.weights * masses.prod(axis=1)).sum())

    def spread(self, per_center: np.ndarray) -> GridDensity:
        """``sum_c per_center[c] * T_c`` on the grid: one scatter of the table."""
        on = self.nodes >= 0
        values = np.bincount(self.nodes[on], weights=(per_center[:, None] * self.transfer)[on],
                             minlength=self.grid.n_sites)
        return GridDensity(self.grid, values.reshape(self.grid.shape))

    def density(self) -> GridDensity:
        """One-particle marginal of P_eps (coordinate-averaged).

        Coordinate k of atom a adds ``w / n * prod_{l != k} m_l * T_{c(a,k)}``
        (``m_l`` the masses of the atom's other transfer vectors); the
        coefficients are summed per center and spread in one scatter.
        """
        masses = self.center_masses()[self.center_of]
        coef = np.empty_like(masses)
        for k in range(self.n):
            others = np.delete(masses, k, axis=1).prod(axis=1)
            coef[:, k] = self.source.weights / self.n * others
        return self.spread(np.bincount(self.center_of.ravel(), weights=coef.ravel(),
                                       minlength=len(self.centers)))


def kinetic_term(n: int, h1: float, kernel: GridKernel) -> float:
    """``n * (H1(sqrt rho) + G / w^2)``, the kinetic part of the bound at
    eta = 1, for the state built from ``kernel`` (``rp.kernel``).

    ``w = kernel.width`` is the kernel's width, ``max(eps, h)`` (see
    :func:`smooth_plan`), and ``G`` its profile's gradient moment.
    """
    return n * (h1 + kernel.profile.moments()[0] / kernel.width**2)


@dataclass
class PreparedPlan:
    """The eps-independent half of the smoothing of ``source`` over ``rho``."""

    source: AtomicPlan      # node-snapped, symmetric, marginal ``rho``
    rho: GridDensity
    alpha: float            # separation; inf for one particle
    centers: np.ndarray     # (n_centers, dim) distinct atom-coordinate nodes
    center_of: np.ndarray   # (n_atoms, n) -> index into ``centers``


def prepare_plan(plan: AtomicPlan, rho: GridDensity) -> PreparedPlan:
    """Snap ``plan`` to the grid of ``rho`` and validate it for smoothing.

    Checks that the snapped plan is symmetric and that ``rho`` is its binned
    marginal to ``MARGINAL_TOL`` in L1, and finds its separation and the
    distinct coordinate nodes.
    """
    grid = rho.grid
    plan = snap_to_grid(plan, grid, max_shift=grid.h)
    if not is_symmetric(plan, tol=1e-9):
        raise ValidationError("plan is not permutation symmetric; symmetrize it first")
    alpha = separation(plan).alpha if plan.n >= 2 else math.inf
    binned = marginal(plan, grid)
    if binned.l1_distance(rho) > MARGINAL_TOL:
        raise ValidationError(
            f"rho differs from the binned plan marginal by "
            f"{binned.l1_distance(rho):.3g} in L1 (tolerance {MARGINAL_TOL:g})"
        )
    idx = grid.indices_of(plan.configs)
    flat = np.ravel_multi_index(tuple(np.moveaxis(idx, -1, 0)), grid.shape)
    nodes, center_of = np.unique(flat, return_inverse=True)
    centers = np.stack(np.unravel_index(nodes, grid.shape), axis=-1)
    return PreparedPlan(plan, rho, alpha, centers,
                        center_of.reshape(plan.n_atoms, plan.n))


def smooth_plan(prep: PreparedPlan, eps: float) -> RegularizedPlan:
    """The marginal-pinned smoothing of a prepared plan at width ``eps``.

    The one place that decides the kernel for a width: the grid's
    dimension fixes the profile, and one :class:`GridKernel` of width
    ``max(eps, h)`` serves the denominator, the windows and the transfer
    vectors (see :func:`build_regularized` for ``eps < h``).  Requires
    ``eps`` below a quarter of the plan separation and a kernel radius of
    margin between the support and the grid boundary (required for the
    exact identities).  The transfer vectors are
    ``rho * offset_sum(U, kappa) * h^d`` on each center's box, where row c
    of ``U`` holds ``kappa / (rho * kappa)`` on the window ``c + offsets``
    and 0 elsewhere in the box; per node, the additions run in the order
    they would on the whole grid.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ValidationError(f"mollifier width must be positive and finite, got {eps!r}")
    if not eps < prep.alpha / 4.0:
        raise ValidationError(
            f"mollifier too wide for separation {prep.alpha:.6g}: "
            f"eps must be below {prep.alpha / 4.0:.6g}, got {eps:.6g}"
        )
    rho = prep.rho
    grid = rho.grid
    eps = float(eps)
    kernel = GridKernel(grid.dim, max(eps, grid.h), grid.h)

    support_idx = np.argwhere(rho.values > 0)
    lo = support_idx.min(axis=0)
    hi = support_idx.max(axis=0)
    if np.any(lo < kernel.halfwidth) or np.any(hi > grid.npts - 1 - kernel.halfwidth):
        raise ValidationError(
            "density support too close to the grid boundary for this eps; "
            "enlarge the grid or shrink eps"
        )

    denom = convolve_sq(rho, kernel)

    z = prep.centers[:, None, :] + kernel.box[None, :, :]
    on = np.all((z >= 0) & (z < grid.npts), axis=-1)
    nodes = np.where(on, z @ grid.npts ** np.arange(grid.dim - 1, -1, -1), -1)
    slots, _ = kernel.box_slot(kernel.offsets)
    window = np.take(nodes, slots, axis=1)
    if np.any(window < 0):
        raise ValidationError(
            "density support too close to the grid boundary for this eps")
    dz = denom.ravel()[window]
    live = dz > DENOM_FLOOR
    if np.any(~live & (kernel.sq > 0)):
        raise ValidationError("density vanishes near plan support")
    q = np.where(live, kernel.sq / np.where(live, dz, 1.0), 0.0)
    u = np.zeros(nodes.shape)
    u[:, slots] = q
    spread = offset_sum(u.reshape((-1,) + kernel.box_shape), kernel.offsets, kernel.sq)
    rho_at = np.append(rho.values.ravel(), 0.0)[nodes]   # 0 at node -1
    transfer = rho_at * spread.reshape(nodes.shape) * grid.cell_volume
    return RegularizedPlan(prep, eps, kernel, nodes, transfer, window, q)


def build_regularized(plan: AtomicPlan, rho: GridDensity, eps: float) -> RegularizedPlan:
    """Construct the marginal-pinned smoothing evaluator.

    The composition of :func:`prepare_plan` (snap, symmetry, separation and
    binned-marginal checks; independent of eps) and :func:`smooth_plan`
    (eps bounds, boundary margin, kernel, denominator, transfer vectors).
    A caller that smooths one plan at many widths prepares it once.

    A width ``0 < eps < h`` is the grid's eps -> 0 limit.  The offset rule
    ``|o*h| < eps`` leaves only the zero offset for every eps <= h, so such a
    width gets the one-node kernel, built as the width-h kernel
    (``rp.kernel.width == h``; ``rp.eps`` keeps the requested width), for
    both the transfer vectors and the denominator: every ``T_c`` is
    ``delta_c / h^d`` and ``P_eps = P`` on the grid.  Marginal pinning, unit
    trace and the kernel diagonal stay exact;
    ``RegularizedPlan.one_node_kernel`` flags it.
    """
    return smooth_plan(prepare_plan(plan, rho), eps)


def kinetic_of_sqrt(rp: RegularizedPlan) -> float:
    """Dirichlet energy of sqrt(P_eps) on the n-fold tensor grid."""
    t = rp.tensor()
    g = np.sqrt(t)
    h = rp.grid.h
    total = 0.0
    for axis in range(g.ndim):
        d = np.gradient(g, h, axis=axis, edge_order=2)
        total += (d * d).sum()
    return float(total * rp.grid.cell_volume**rp.n)


def integrate_observable(rp: RegularizedPlan) -> float:
    """Integral of the Coulomb cost :func:`~llot.grids.coulomb` against the
    smoothed plan.

    Evaluated on the support of the tensor density only, so the cost is
    never touched on coincidence points, where it is infinite and P_eps = 0.
    """
    t = rp.tensor().ravel()
    s = rp.grid.n_sites
    nz = np.nonzero(t)[0]
    if nz.size == 0:
        return 0.0
    pts = rp.grid.points()
    site_idx = np.unravel_index(nz, (s,) * rp.n)
    configs = np.stack([pts[i] for i in site_idx], axis=1)
    return float((coulomb(configs) * t[nz]).sum() * rp.grid.cell_volume**rp.n)


def potential_error(rp: RegularizedPlan) -> tuple:
    """Measured smoothing error of the Coulomb cost c and its a priori bound.

    Returns ``(lhs, bound)`` with ``lhs = |int c dP_eps - int c dP|`` and

        bound = eps^2 * ( sum_j sup|grad_j c| * int|grad rho| * M2
                          + 2 * sum_{j,k} sup||hess_{jk} c|| ),

    where M2 is the second moment of the squared profile and the sups run
    over the configurations whose pairwise distances are all at least
    ``r0 = alpha - 4 eps``: every transfer vector lives within 2 eps of its
    center, and an atom's centers are at least alpha apart.  Each pair term
    ``1/|u|`` has gradient norm ``1/|u|^2`` and a Hessian of spectral norm
    ``2/|u|^3``; the mixed block ``hess_{jk}``, j != k, is minus that pair's
    Hessian.  Block j of the gradient, and the diagonal block ``hess_{jj}``,
    each sum n - 1 pair terms, so the triangle inequality gives the closed forms

        sum_j sup|grad_j c| <= n(n-1) / r0^2,
        sum_{j,k} sup||hess_{jk} c|| <= 4 n(n-1) / r0^3,

    attained for n = 2 by a pair at distance r0, and 0 for n = 1.
    """
    plan = rp.source
    lhs = abs(integrate_observable(rp) - float((coulomb(plan.configs) * plan.weights).sum()))
    r0 = rp.alpha - 4.0 * rp.eps
    m2 = rp.kernel.profile.moments()[1]
    bound = rp.eps**2 * coulomb_smoothing_rate(rp.n, r0, l1_gradient(rp.rho), m2)
    return float(lhs), float(bound)


def coulomb_smoothing_rate(n: int, r0: float, l1_grad_rho: float,
                           second_moment: float) -> float:
    """``n(n-1)/r0^2 * int|grad rho| * M2 + 8 n(n-1)/r0^3``: the bound of
    :func:`potential_error` over ``eps^2``, from the closed-form Coulomb
    derivative sups at pairwise distances of at least ``r0``."""
    pairs = n * (n - 1)
    return pairs / r0**2 * l1_grad_rho * second_moment + 8.0 * pairs / r0**3
