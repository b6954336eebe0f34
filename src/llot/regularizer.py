"""Marginal-pinned smoothing of atomic symmetric plans.

Given a symmetric atomic plan P (one atom per orbit, :class:`AtomicPlan`)
with binned one-particle marginal rho, the smoothed plan is represented
through per-coordinate transfer vectors

    T_c(x) = rho(x) * sum_z kappa(x - z) kappa(z - c) / (rho * kappa)(z) * h^d

one per distinct atom-coordinate node c, where kappa is the renormalized
squared mollifier kernel on the grid.  The smoothed plan is then

    P_eps(x_1, ..., x_n) = sum_orbits W / n!
                           * sum_sigma prod_k T_{c(orbit,sigma(k))}(x_k),

a probability density on the n-fold tensor grid, summed over each orbit's
n! orderings of its centers.  No reader forms the orderings: the tensor
build adds each block of orbits once per permutation of its axes,
:meth:`RegularizedPlan.evaluate` takes the one ordering that can reach a
configuration, the Coulomb integral (:func:`integrate_observable`) takes
each pair of an orbit's centers once, and every one-particle quantity (the
masses, the center weights, the density) sums per orbit, since each ordering
adds the same terms.  The dense ``s^n`` tensor serves the sqrt-Dirichlet
check :func:`kinetic_of_sqrt` alone; the Coulomb integral is read from the
transfer table in its pair form, with no tensor, so the trial energy and
the sweep run at any n whose transfer table fits.  Each center's window is
the nodes ``z = c + o`` over the kernel offsets ``o``, with the weights
``q(z) = kappa(z - c) / (rho * kappa)(z)``;
one table of shape ``(n_centers, n_offsets)`` holds each,
``RegularizedPlan.window`` (flat node indices) and ``RegularizedPlan.q``,
and both the transfer vectors and the mixed state of :mod:`llot.quantum` are
built from it.  ``T_c`` vanishes off
the box ``c + b``, ``|b_k| <= 2 halfwidth`` (``GridKernel.box``), and is
stored there only, one row per center: ``RegularizedPlan.nodes`` (flat node
indices, -1 off the grid) and ``RegularizedPlan.transfer`` (its values).
The denominator ``(rho * kappa)(z)`` is needed on the windows only, and it
and the transfer vectors are two products with the kernel's box table
(``GridKernel.box_amp``): no array spans the grid.
The boxes, the windows and rho gathered on the boxes depend on the kernel's
offsets alone, not on its width.  A :class:`PreparedPlan` keeps them for
the most recent offset set (:meth:`PreparedPlan.on_lattice`), so a caller
that smooths one prepared plan at many widths, as the sweep does, builds
them once per run of widths with the same offsets.  The numbers are
built by :func:`smooth_widths`, always as stacks with a leading width
axis, once per run of the widths given at once: the kernels' values, the
tables, the denominators, ``q`` and the transfer vectors.  Each width's
numbers do not depend on the widths given with it, bit for bit.  The
Coulomb integral (:func:`integrate_observable`) reads a stack with one set
of live slots and cost blocks; :func:`smooth_plan` turns a stack of one
into the one-width plan that every other reader takes.  On the sweep
preset the 52 widths keep 4 offset sets and make 7 lattice builds; the
scan's 32 widths are 4 stacked passes, the 20 refined widths one each.
Because kappa has unit discrete mass and atoms sit on nodes, the
one-particle marginal of P_eps equals rho exactly (up to float rounding),
for every eps.  A width at or below the grid spacing h resolves only the
zero offset, so kappa is the one-node kernel and P_eps = P on the grid (see
:func:`build_regularized`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .grids import (
    AtomicPlan,
    Grid,
    GridDensity,
    coulomb,
    dirichlet_sum_sqrt,
    l1_gradient,
    marginal,
    separation,
    snap_to_grid,
)
from .mollifier import BumpProfile, GridKernel, resample

DENOM_FLOOR = 1e-300
MAX_TENSOR_ENTRIES = 1 << 22
ATOM_CHUNK = 32        # orbits per block of the tensor build
BATCH_ENTRIES = 1 << 14  # index entries per chunk of a configuration batch
MARGINAL_TOL = 1e-8   # L1 distance allowed between rho and the binned plan marginal
SUPPORT_PAD = 3       # zero nodes around the support: the one-sided stencil's reach


class RegularizedPlan:
    """Evaluator for the marginal-pinned smoothing of an atomic plan.

    A *stack* (:func:`smooth_widths`) holds the smoothings of a run of
    widths that keep the same offsets: its ``eps`` and ``kernel.width`` are
    the run's widths, and ``kernel``'s values, ``transfer`` and ``q`` carry
    a leading width axis.  :meth:`center_masses` and
    :func:`integrate_observable` read a stack; the other readers take the
    one-width plan of :func:`smooth_plan`, whose ``eps`` and
    ``kernel.width`` are floats.
    """

    def __init__(self, prep: "PreparedPlan", eps: float, kernel: GridKernel,
                 nodes: np.ndarray, transfer: np.ndarray, window: np.ndarray,
                 q: np.ndarray):
        self.source = prep.source
        self.rho = prep.rho
        self.alpha = prep.alpha
        self.centers = prep.centers      # (n_centers, dim) multi-indices
        self.center_of = prep.center_of  # (n_atoms, n) -> row of the tables
        self.pair_groups = prep.pair_groups  # the orbits' center pairs, by offset
        self.eps = eps                  # the requested width; the kernel's is max(eps, h)
        self.kernel = kernel
        self.nodes = nodes              # (n_centers, n_box) flat nodes c + b, -1 off the grid
        self.transfer = transfer        # (n_centers, n_box) T_c there, 0 off the grid
        self.window = window            # (n_centers, n_offsets) flat nodes c + o
        self.q = q                      # kappa / (rho * kappa) there, all positive
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

    def config_nodes(self, *batches) -> list:
        """Multi-indices (m, n, dim) of the nodes nearest to each batch of m
        configurations, of shape (m, n, dim), or (n, dim) for m = 1; every
        batch has the same m, or ``ValidationError`` is raised."""
        shape = (self.n, self.grid.dim)
        shapes = [np.shape(c) for c in batches]
        if any(s[-2:] != shape or len(s) > 3 for s in shapes) or \
                len({s[0] if len(s) == 3 else 1 for s in shapes}) > 1:
            raise ValidationError(f"configuration batches of shapes {shapes}: expected "
                                  f"(m, {self.n}, {self.grid.dim}) with the same m, or {shape}")
        return [self.grid.indices_of(np.reshape(c, (-1,) + shape)) for c in batches]

    def evaluate(self, configs) -> np.ndarray:
        """P_eps at each configuration of a batch (m, n, dim), snapped to
        nearest nodes, in chunks of ``BATCH_ENTRIES`` index entries; (m,).

        One term per (configuration, orbit): ``T_c`` vanishes beyond 2 eps
        of c and the guard ``eps < alpha/4`` keeps an orbit's centers more
        than 4 eps apart, so each node reaches one center of the orbit at
        most.  The orbit's centers are then all reached exactly when the
        nodes reach them by a bijection sigma, and the product over its
        centers c of ``sum_k T_c(x_k)`` is ``prod_k T_{sigma(k)}(x_k)``, its
        one nonzero ordering; where a center is not reached, every ordering
        and that product are 0.
        """
        idx, = self.config_nodes(configs)
        rows = np.arange(len(self.centers))
        weights = self.source.weights / math.factorial(self.n)
        out = np.empty(len(idx))
        step = max(1, BATCH_ENTRIES // (self.n * max(self.centers.size, self.center_of.size)))
        for lo in range(0, len(idx), step):
            # T_c at node k of each configuration, for every center c
            slot, inside = self.kernel.box_slot(idx[lo:lo + step, :, None] - self.centers)
            at = np.where(inside, self.transfer[rows, np.where(inside, slot, 0)],
                          0.0)                              # (configs, n, n_centers)
            # np.take keeps the result C-ordered, so each configuration's sum
            # over orbits runs in one order whatever the batch size
            term = np.take(at.sum(axis=1), self.center_of, axis=1).prod(axis=2)
            out[lo:lo + step] = (weights * term).sum(axis=1)
        return out

    def tensor(self) -> np.ndarray:
        """Dense density on the n-fold tensor grid, shape grid.shape * n.

        A block-sparse contraction over the orbits (see
        :meth:`_build_tensor`): each chunk of them forms the block
        ``(w T_0 ... T_{n-2})^T @ T_{n-1}`` on the sub-box that its transfer
        vectors reach, and adds it once per ordering, with its axes
        permuted.  The tensor is capped at ``MAX_TENSOR_ENTRIES``.  Built
        once and returned read-only.  Its one reader in the package is
        :func:`kinetic_of_sqrt`; the Coulomb integral, and with it the
        potential check and the sweep, use the pair form.  The build's
        working set is the tensor plus one chunk's box factors.
        """
        if self._tensor is None:
            t = self._build_tensor()
            t.flags.writeable = False
            self._tensor = t
        return self._tensor

    def _build_tensor(self) -> np.ndarray:
        """The block-sparse contraction of :meth:`tensor`.

        The orbits, rows of ``center_of`` at weight ``W / n!``, are taken
        ``ATOM_CHUNK`` at a time (fewer when one row's whole-grid left
        factor, ``s^(n-1)`` entries, would push a chunk past
        ``MAX_TENSOR_ENTRIES``).  Per chunk and coordinate k, the transfer
        rows are scattered into the chunk's own bounding range of flat
        nodes, and the chunk's product, the block, is formed once.  For each
        permutation ``p`` of the n particles the block, its axes permuted by
        ``p``, is added into the sub-box of a zeroed tensor whose axis j is
        the range of coordinate ``p[j]``: the sum over each orbit's n!
        orderings, taken on the block after the product.  Pages no block
        writes are never touched.  Every product is ``>= +0``, so an entry is
        0 exactly where every term is.  The atoms are in lexicographic order
        (:class:`~llot.grids.AtomicPlan`), so a chunk's orbits share nearby
        first centers.  On the 1024-node paired plan (259 orbits, 9 chunks,
        boxes of 101 nodes) the blocks hold 14% of the tensor's entries, 8%
        of it is nonzero, and the build holds 1.06 tensors (traced).
        """
        s = self.grid.n_sites
        if s**self.n > MAX_TENSOR_ENTRIES:
            raise ValidationError(
                f"tensor grid of {s}^{self.n} = {s**self.n} entries exceeds "
                f"the {MAX_TENSOR_ENTRIES} limit"
            )
        perms = list(itertools.permutations(range(self.n)))
        weights = self.source.weights / len(perms)
        step = min(ATOM_CHUNK, max(1, MAX_TENSOR_ENTRIES // s ** max(self.n - 1, 1)))
        flat = np.zeros((s,) * self.n)
        for lo in range(0, len(self.center_of), step):
            centers = self.center_of[lo:lo + step]                  # (orbits, n)
            nodes = self.nodes[centers]                             # (orbits, n, n_box)
            on = nodes >= 0
            first = np.where(on, nodes, s).min(axis=(0, 2))         # per coordinate
            width = nodes.max(axis=(0, 2)) + 1 - first
            # the chunk's rows on its flat ranges; a last column takes node -1
            rows = np.zeros(nodes.shape[:2] + (width.max() + 1,))
            rows[np.arange(len(centers))[:, None, None], np.arange(self.n)[:, None],
                 np.where(on, nodes - first[:, None], -1)] = self.transfer[centers]
            left = weights[lo:lo + step, None]
            for k in range(self.n - 1):
                left = (left[:, :, None] * rows[:, k, None, :width[k]]).reshape(len(centers), -1)
            block = (left.T @ rows[:, -1, :width[-1]]).reshape(width)
            box = [slice(f, f + w) for f, w in zip(first.tolist(), width.tolist())]
            for perm in perms:
                flat[tuple(box[i] for i in perm)] += block.transpose(perm)
        return flat.reshape(self.grid.shape * self.n)

    def support_box(self, pad: int) -> tuple:
        """Per grid axis, the slice from the first to the last node where
        some ``T_c > 0`` (read from the transfer table, not from the
        tensor), widened by ``pad`` nodes and clipped to the grid.  The
        tensor vanishes off the n-fold product of this box."""
        live = np.unravel_index(self.nodes[self.transfer > 0], self.grid.shape)
        npts = self.grid.npts
        return tuple(slice(max(int(i.min()) - pad, 0), min(int(i.max()) + pad + 1, npts))
                     for i in live)

    def center_masses(self) -> np.ndarray:
        """Quadrature mass of each transfer vector ``T_c``."""
        return self.transfer.sum(axis=-1) * self.grid.cell_volume

    def mass(self) -> float:
        masses = self.center_masses()[self.center_of]   # (n_atoms, n)
        return float((self.source.weights * masses.prod(axis=1)).sum())

    @cached_property
    def center_weights(self) -> np.ndarray:
        """Per-center weight ``(n_centers,)``: over the atom coordinates at
        center c, the sum of the atom weight times the masses of the atom's
        other transfer vectors.  :meth:`density` is ``sum_c center_weights[c]
        T_c / n``, and ``MixedStateKernel.orbitals`` weighs windows by it."""
        masses = self.center_masses()[self.center_of]          # (n_atoms, n)
        others = np.stack([np.delete(masses, k, axis=1).prod(axis=1)
                           for k in range(self.n)], axis=1)
        return np.bincount(self.center_of.ravel(),
                           weights=(self.source.weights[:, None] * others).ravel(),
                           minlength=len(self.centers))

    def density(self) -> GridDensity:
        """One-particle marginal of P_eps: one scatter of the table."""
        on = self.nodes >= 0
        coef = self.center_weights / self.n
        values = np.bincount(self.nodes[on], weights=(coef[:, None] * self.transfer)[on],
                             minlength=self.grid.n_sites)
        return GridDensity(self.grid, values.reshape(self.grid.shape))


def kinetic_term(n: int, h1: float, width: float, profile: BumpProfile) -> float:
    """``n * (H1(sqrt rho) + G / w^2)``, the kinetic part of the bound at
    eta = 1, for the state built from a kernel of width ``w = width`` and
    profile ``profile`` (``rp.kernel.width``, ``max(eps, h)``: see
    :func:`smooth_widths`, and ``rp.kernel.profile``); ``G`` is the
    profile's gradient moment.
    """
    return n * (h1 + profile.moments()[0] / width**2)


@dataclass
class PreparedPlan:
    """The eps-independent half of the smoothing of ``source`` over ``rho``.

    It also keeps the half that depends on the kernel's offsets alone, for
    the most recent offset set (:meth:`on_lattice`), so that a caller that
    smooths one prepared plan at many widths builds it once per run of
    widths that keep the same offsets.  One set is kept, so the memory
    stays that of one smoothing in every dimension, and it lives as long as
    the prepared plan: one ``sweep``, ``TrialCurve`` or ``regularize``.
    """

    source: AtomicPlan      # node-snapped, one atom per orbit, marginal ``rho``
    rho: GridDensity
    alpha: float            # separation; inf for one particle
    centers: np.ndarray     # (n_centers, dim) distinct atom-coordinate nodes
    center_of: np.ndarray   # (n_atoms, n) -> index into ``centers``
    support: tuple          # per-axis first and last node of rho's support
    # (lattice, nodes, window, rho_at) of the offset set smoothed last
    _on_lattice: tuple = field(default=(None,), init=False, repr=False, compare=False)

    @property
    def lattice(self):
        """The :class:`~llot.mollifier.KernelLattice` of the offset set
        smoothed last, or None; kernels built on it share it."""
        return self._on_lattice[0]

    def on_lattice(self, kernel: GridKernel) -> tuple:
        """``(nodes, window, rho_at)`` on the offsets of the kernel stack
        ``kernel``.

        They depend on its offsets alone, and are built, and checked, only
        when its lattice is not the one of the last call (:attr:`lattice`):
        ``nodes`` (n_centers, n_box), the flat nodes of each center's box,
        -1 off the grid; ``window`` (n_centers, n_offsets), those of its
        offsets; ``rho_at``, rho gathered on the boxes, 0 off the grid.  The
        support must keep a kernel radius from the grid boundary, and every
        window must lie on the grid.  The arrays are read-only, since every
        smoothing on the set shares them.
        """
        if kernel.lattice is not self.lattice:
            grid = self.rho.grid
            lo, hi = self.support
            if np.any(lo < kernel.halfwidth) or np.any(hi > grid.npts - 1 - kernel.halfwidth):
                raise ValidationError(
                    "density support too close to the grid boundary for this eps; "
                    "enlarge the grid or shrink eps"
                )
            nodes = grid.flat_index(self.centers[:, None, :] + kernel.box[None, :, :])
            window = np.take(nodes, kernel.box_slot(kernel.offsets)[0], axis=1)
            if np.any(window < 0):
                raise ValidationError(
                    "density support too close to the grid boundary for this eps")
            rho_at = np.where(nodes >= 0, self.rho.values.ravel()[nodes], 0.0)
            for a in (nodes, window, rho_at):
                a.flags.writeable = False
            self._on_lattice = (kernel.lattice, nodes, window, rho_at)
        return self._on_lattice[1:]

    @cached_property
    def pair_groups(self) -> list:
        """The (orbit, particle pair ``j < k``) rows of the plan, grouped by
        the integer offset ``D = centers[c(a,k)] - centers[c(a,j)]`` of the
        pair's centers, one ``np.unique`` of a scalar key: per distinct D,
        ``(D, c(a,j), c(a,k), W_a, c(a,l) for l != j,k)`` over its rows.
        Empty for one particle.  See :func:`integrate_observable`."""
        n, grid = self.source.n, self.rho.grid
        pairs = list(itertools.combinations(range(n), 2))
        if not pairs:
            return []
        # per pair, the particles in the order j, k, then the others
        order = [[j, k] + [l for l in range(n) if l not in (j, k)] for j, k in pairs]
        rows = self.center_of[:, order].reshape(-1, n)
        weights = np.repeat(self.source.weights, len(pairs))
        offset = self.centers[rows[:, 1]] - self.centers[rows[:, 0]]
        key = np.ravel_multi_index((offset + grid.npts - 1).T, (2 * grid.npts - 1,) * grid.dim)
        _, first, group = np.unique(key, return_index=True, return_inverse=True)
        groups = []
        for g, row in enumerate(first):
            at = group == g
            groups.append((offset[row], rows[at, 0], rows[at, 1], weights[at], rows[at, 2:]))
        return groups


def prepare_plan(plan: AtomicPlan, rho: GridDensity) -> PreparedPlan:
    """Snap ``plan`` to the grid of ``rho`` and validate it for smoothing.

    Checks that ``rho`` is the snapped plan's binned marginal to
    ``MARGINAL_TOL`` in L1, and finds its separation, the distinct
    coordinate nodes and the bounding box of rho's support.
    """
    grid = rho.grid
    plan = snap_to_grid(plan, grid, max_shift=grid.h)
    alpha = separation(plan) if plan.n >= 2 else math.inf
    binned = marginal(plan, grid)
    if binned.l1_distance(rho) > MARGINAL_TOL:
        raise ValidationError(
            f"rho differs from the binned plan marginal by "
            f"{binned.l1_distance(rho):.3g} in L1 (tolerance {MARGINAL_TOL:g})"
        )
    nodes, center_of = np.unique(grid.flat_index(grid.indices_of(plan.configs)),
                                 return_inverse=True)
    center_of = center_of.reshape(plan.n_atoms, plan.n)
    support_idx = np.argwhere(rho.values > 0)
    return PreparedPlan(plan, rho, alpha, grid.multi_index(nodes), center_of,
                        (support_idx.min(axis=0), support_idx.max(axis=0)))


def smooth_plan(prep: PreparedPlan, eps: float) -> RegularizedPlan:
    """The marginal-pinned smoothing of a prepared plan at width ``eps``: row
    0 of the stack of one that :func:`smooth_widths` gives, as a one-width
    plan.

    The one place that turns a stack into a one-width plan, the form that
    :func:`build_regularized`, the CLI and :mod:`llot.quantum` read: its
    ``eps`` is the requested width, a float, and its kernel a one-width
    :class:`~llot.mollifier.GridKernel` of width ``max(eps, h)``, as
    :func:`smooth_widths` decided it, whose ``norm`` and ``amp`` are the
    stack's row 0, as are ``transfer`` and ``q``.
    """
    (rp,) = smooth_widths(prep, eps)
    k = rp.kernel
    kernel = GridKernel(k.lattice, k.profile, float(k.width[0]), k.norm[0], k.amp[0])
    return RegularizedPlan(prep, float(eps), kernel, rp.nodes, rp.transfer[0], rp.window, rp.q[0])


def smooth_widths(prep: PreparedPlan, eps) -> list:
    """The marginal-pinned smoothings of a prepared plan at one width, or at
    a 1-D array of widths, as stacks: one pass per run of consecutive widths
    that keep the same offsets.

    The one place that decides the kernel for a width: the grid's
    dimension fixes the profile, and one kernel of width ``max(eps, h)``
    serves the denominator, the windows and the transfer vectors (see
    :func:`build_regularized` for ``eps < h``).  Requires every ``eps``
    below a quarter of the plan separation and a kernel radius of margin
    between the support and the grid boundary (required for the exact
    identities).  The kernels come from one
    :func:`~llot.mollifier.resample` of the widths, one stack per run; each
    run's lattice, boxes, windows, boundary checks and ``rho`` on the boxes
    from :meth:`PreparedPlan.on_lattice`, built once per offset set and
    shared by the runs and the later smoothings that keep it.  With ``S[b,
    o] = kappa(b - o)``, the squared box table ``GridKernel.box_amp``, and
    ``rho`` gathered on each center's box (0 off the grid), two products
    give the smoothing: ``(rho * kappa)(c + o) = (rho @ S) * h^d`` on the
    windows, and, with ``q = kappa / (rho * kappa)`` there, ``T_c = rho *
    (q @ S^T) * h^d`` on the box.  On a run both are stacked products, one
    matrix product per width (BLAS), so each width's numbers do not depend
    on the other widths of its run, bit for bit.  ``rho * kappa`` at or below
    ``DENOM_FLOOR`` on a window is rejected; ``TAIL_CUT`` keeps every
    kernel weight positive, so every ``q`` is positive.

    The list holds one stacked :class:`RegularizedPlan` per run, whose
    ``eps``, ``kernel``, ``transfer`` and ``q`` carry the run's widths; one
    width gives a list of one stack of one, which :func:`smooth_plan` reads
    as a one-width plan.
    """
    eps = np.array(eps, dtype=float, ndmin=1)
    for e in eps.tolist():
        if not (e > 0 and math.isfinite(e)):
            raise ValidationError(f"mollifier width must be positive and finite, got {e!r}")
        if not e < prep.alpha / 4.0:
            raise ValidationError(
                f"mollifier too wide for separation {prep.alpha:.6g}: "
                f"eps must be below {prep.alpha / 4.0:.6g}, got {e:.6g}"
            )
    grid = prep.rho.grid
    plans, start = [], 0
    for kernel in resample(grid.dim, np.maximum(eps, grid.h), grid.h, prep.lattice):
        nodes, window, rho_at = prep.on_lattice(kernel)
        table = kernel.box_amp[..., :-1, :] ** 2        # kappa(b - o)
        dz = rho_at @ table * grid.cell_volume          # (rho * kappa)(c + o)
        if dz.min() <= DENOM_FLOOR:
            raise ValidationError("density vanishes near plan support")
        q = kernel.sq[..., None, :] / dz
        transfer = rho_at * (q @ table.swapaxes(-1, -2)) * grid.cell_volume
        n = len(kernel.width)
        plans.append(RegularizedPlan(prep, eps[start:start + n], kernel, nodes, transfer,
                                     window, q))
        start += n
    return plans


def build_regularized(plan: AtomicPlan, rho: GridDensity, eps: float) -> RegularizedPlan:
    """Construct the marginal-pinned smoothing evaluator.

    The composition of :func:`prepare_plan` (snap, separation and
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
    """Dirichlet energy of sqrt(P_eps) on the n-fold tensor grid.

    :func:`~llot.grids.dirichlet_sum_sqrt` runs on the tensor's support box
    only, :meth:`RegularizedPlan.support_box` widened by ``SUPPORT_PAD = 3``
    nodes.  The one-sided stencil at a box edge reads 3 nodes; with 3 zero
    nodes of padding it reads zeros only, so every derivative in the box
    equals the whole-grid one and every derivative outside it is exactly 0.
    Where the box is clipped, its edge is the grid's, with the same stencil.
    The box is a view of the tensor, read in stripes of at most
    ``grids.STRIPE_ENTRIES`` entries (one row at least), so beyond the
    tensor the working set is two stripes: the square root with its halo,
    and one derivative, squared in place.  On the 1024-node paired plan the
    box is 649 of the 1024 nodes per axis, and the working set beyond the
    tensor 1.2 MB (traced), from 13 MB for whole-box arrays.  Needs at
    least 3 nodes per axis.
    """
    rp.grid.require_gradient_nodes()
    t = rp.tensor()
    total = dirichlet_sum_sqrt(t[rp.support_box(SUPPORT_PAD) * rp.n], rp.grid.h)
    return float(total * rp.grid.cell_volume**rp.n)


def integrate_observable(rp: RegularizedPlan) -> float | np.ndarray:
    """Integral of the Coulomb cost :func:`~llot.grids.coulomb` against the
    smoothed plan, by the pair form

        int c dP_eps = h^{2d} sum_a W_a sum_{j<k} T_{c(a,j)}^T C T_{c(a,k)}
                                                * prod_{l != j,k} m_{c(a,l)},

    with ``m_c`` the masses :meth:`RegularizedPlan.center_masses`; the sum
    over each orbit's n! orderings gives every pair of its centers once.
    No tensor is built.  ``C`` is read on box x box blocks only: between
    slot b of center c and slot b' of center c' it is
    ``1 / (h |D + b' - b|)``, ``D = c' - c`` the centers' integer offset, so
    on a uniform grid one block serves every pair of centers at the same
    offset.  The (orbit, pair) rows come grouped by offset
    (:attr:`PreparedPlan.pair_groups`, formed once per plan, since offsets
    do not depend on eps), and per group the block is formed once and the
    rows' ``sum ((u T_j) @ C_D) * T_k`` added, ``u`` the orbit weight times
    the other centers' masses.  The blocks span the box slots where some
    ``T_c`` is nonzero, ``b = o + o'`` for kernel offsets with ``|o| h < w``
    (the kernel width), so ``|b - b'| h < 4 w``; ``eps < alpha/4`` keeps
    ``|D| h >= alpha > 4 eps``, and for ``eps < h`` the box is the one
    node: no entry is singular.  The working set is one group's rows and
    block: on the 1024-node paired plan (one group of 259 orbits, 101-node
    boxes) 1.0 MB traced.

    A stack (:func:`smooth_widths`) gives one integral per width, an array:
    its widths keep the same offsets, so the live slots and each group's
    block are formed once for all of them, and the products are stacked,
    one matrix product per width.  A one-width plan (:func:`smooth_plan`)
    gives a numpy float, a subclass of ``float``.
    """
    grid = rp.grid
    masses = rp.center_masses()
    live = np.flatnonzero(rp.transfer.reshape(-1, rp.transfer.shape[-1]).any(axis=0))
    box = rp.kernel.box[live]
    diff = box[None, :, :] - box[:, None, :]                         # b' - b
    total = 0.0
    for offset, cj, ck, weights, others in rp.pair_groups:
        cost = 1.0 / (np.sqrt(((offset + diff) ** 2).sum(axis=-1)) * grid.h)
        left = (weights * masses[..., others].prod(axis=-1))[..., None] * \
            rp.transfer[..., cj[:, None], live]
        total += ((left @ cost) * rp.transfer[..., ck[:, None], live]).sum(axis=(-2, -1))
    return total * grid.cell_volume**2


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
